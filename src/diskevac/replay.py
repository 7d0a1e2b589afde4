"""Kinematic replay oracle.

Re-executes the policy modules' motion plans as timestamped segments,
pricing every leg by its geometric length instead of the closed-form case
expressions.  Every event time comes from those integrated trajectories,
none from the policy: each robot meets its partner when its own legs
reach the meet point, and a wireless message leaves when the finder's
sweep ends on a true exit and lands when the receiver's sweep ends.
`verify_agreement` then checks the two robots' events against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from .geometry import ArcPos, Direction, arc_length, cartesian, point_distance
from .plans import ArcLeg, Leg, Outcome, Point
from .scenarios import CommModel, Scenario, TraceInvalidError, evaluate

POS_TOL = 1e-9  # a robot stands on a point: meets, exits, leg joints
EVENT_TIME_TOL = 1e-9  # both sides of a meet or a message agree in time
SPEED_TOL = 1e-12


class Segment(NamedTuple):
    kind: str  # "arc" or "chord"
    t0: float
    t1: float
    p0: Point
    p1: Point
    # arc bookkeeping for the length check
    theta0: float | None = None
    theta1: float | None = None
    ccw: bool | None = None


class Event(NamedTuple):
    """Something a robot does, timed by its own integrated trajectory."""

    kind: str  # sent_message | received_message | meet | exited
    time: float
    pos: Point


_by_time = attrgetter("time")


@dataclass
class Trajectory:
    segments: list[Segment] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)

    @property
    def final_time(self) -> float:
        return self.segments[-1].t1 if self.segments else 0.0


def _integrate(legs: list[Leg]) -> Trajectory:
    """Each leg becomes a segment timed by its length, arcs priced by
    arc_length on the leg's two thetas."""
    segments = []
    t = 0.0
    for leg in legs:
        if isinstance(leg, ArcLeg):
            start, end, direction = leg
            theta0, theta1 = start.theta, end.theta
            ccw = direction is Direction.CCW
            t1 = t + arc_length(theta0, theta1, ccw)
            segments.append(Segment("arc", t, t1, cartesian(start), cartesian(end),
                                    theta0, theta1, ccw))
        else:
            p0, p1 = leg
            t1 = t + point_distance(p0, p1)
            segments.append(Segment("chord", t, t1, p0, p1))
        t = t1
    if not segments:
        raise TraceInvalidError("empty trajectory")
    if not math.isfinite(t):  # a nan anywhere in a leg reaches the end time
        raise TraceInvalidError(f"trajectory ends at time {t}")
    return Trajectory(segments, [Event("exited", t, segments[-1].p1)])


def _exit_distance(pos: Point, exits: tuple[Point, Point]) -> float:
    """Distance from pos to the nearer of the two exits."""
    return min(point_distance(pos, exits[0]), point_distance(pos, exits[1]))


def _arrival(tr: Trajectory, point: Point) -> Segment:
    """The first segment of tr that ends on point."""
    for seg in tr.segments:
        if point_distance(seg.p1, point) <= POS_TOL:
            return seg
    raise TraceInvalidError(f"planned meeting at {point} is off a robot's path")


def replay(scn: Scenario, out: Outcome | None = None):
    """Reconstruct both trajectories; returns (traj1, traj2, makespan).

    `out` is scn's evaluated outcome, for a caller that already holds it;
    without it the scenario is evaluated here.
    """
    if out is None:
        out = evaluate(scn)
    trs = (_integrate(out.r1_plan), _integrate(out.r2_plan))
    for point in out.meets:
        for tr in trs:
            seg = _arrival(tr, point)
            tr.events.append(Event("meet", seg.t1, seg.p1))
    if scn.model is CommModel.WIRELESS:
        exits = (cartesian(scn.e1), cartesian(scn.e2))
        found = [_exit_distance(tr.segments[0].p1, exits) <= POS_TOL for tr in trs]
        if not any(found):
            raise TraceInvalidError("no robot's sweep ends on an exit")
        if not all(found):  # one finder; two finding at once need no message
            f = found.index(True)
            for tr, kind in ((trs[f], "sent_message"), (trs[1 - f], "received_message")):
                sweep = tr.segments[0]
                tr.events.append(Event(kind, sweep.t1, sweep.p1))
    tr1, tr2 = trs
    makespan = max(tr1.final_time, tr2.final_time)
    return tr1, tr2, makespan


class AgreementReport(NamedTuple):
    passed: bool
    issues: list[str]
    meets_checked: int = 0


def _events_by_kind(tr: Trajectory) -> dict[str, list[Event]]:
    """tr's events grouped by kind, in one pass, each group in event order."""
    groups: dict[str, list[Event]] = {}
    for ev in tr.events:
        groups.setdefault(ev.kind, []).append(ev)
    return groups


def verify_agreement(scn: Scenario, tr1: Trajectory, tr2: Trajectory) -> AgreementReport:
    """Path, speed, exit-truth, meet-agreement and message-causality checks."""
    issues: list[str] = []
    exits = (cartesian(scn.e1), cartesian(scn.e2))
    b = scn.zeta / 2.0
    ev1, ev2 = _events_by_kind(tr1), _events_by_kind(tr2)

    for name, tr, events, start in (("r1", tr1, ev1, ArcPos(b)),
                                    ("r2", tr2, ev2, ArcPos(-b))):
        finals = events.get("exited", ())
        if len(finals) != 1:
            issues.append(f"{name}: expected exactly one exited event")
            continue
        if _exit_distance(finals[0].pos, exits) > POS_TOL:
            issues.append(f"{name}: exited at {finals[0].pos}, not a true exit")
        at = cartesian(start)
        for kind, t0, t1, p0, p1, theta0, theta1, ccw in tr.segments:
            if point_distance(p0, at) > POS_TOL:
                issues.append(f"{name}: segment starts at {p0}, robot is at {at}")
            at = p1
            dur = t1 - t0
            if kind == "chord":
                length = point_distance(p0, p1)
            else:  # priced as _integrate prices it
                length = arc_length(theta0, theta1, ccw)
            if abs(dur - length) > SPEED_TOL + 1e-9 * max(1.0, length):
                issues.append(f"{name}: segment duration {dur} != length {length}")

    meets1 = sorted(ev1.get("meet", ()), key=_by_time)
    meets2 = sorted(ev2.get("meet", ()), key=_by_time)
    if len(meets1) != len(meets2):
        issues.append("asymmetric meet events")
    checked = 0
    for m1, m2 in zip(meets1, meets2):
        checked += 1
        if abs(m1.time - m2.time) > EVENT_TIME_TOL:
            issues.append(f"meet times differ: {m1.time} vs {m2.time}")
        if point_distance(m1.pos, m2.pos) > POS_TOL:
            issues.append(f"meet positions differ: {m1.pos} vs {m2.pos}")

    sent = sorted(ev1.get("sent_message", []) + ev2.get("sent_message", []), key=_by_time)
    received = sorted(ev1.get("received_message", []) + ev2.get("received_message", []),
                      key=_by_time)
    for s, r in zip(sent, received):
        if r.time < s.time - 1e-12:
            issues.append("message received before it was sent")
        if abs(r.time - s.time) > EVENT_TIME_TOL:
            issues.append("message not instantaneous")

    return AgreementReport(not issues, issues, checked)


def dump_trace(tr1: Trajectory, tr2: Trajectory, path) -> None:
    """One line per segment: robot,kind,t0,t1,x0,y0,x1,y1."""
    with open(path, "w", newline="\n") as fh:
        for name, tr in (("r1", tr1), ("r2", tr2)):
            for seg in tr.segments:
                fh.write(
                    f"{name},{seg.kind},{seg.t0:.9f},{seg.t1:.9f},"
                    f"{seg.p0[0]:.9f},{seg.p0[1]:.9f},"
                    f"{seg.p1[0]:.9f},{seg.p1[1]:.9f}\n"
                )
