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

from dataclasses import dataclass, field

from .geometry import ArcPos, Direction, arc_between, arc_length, cartesian, point_distance
from .plans import ArcLeg, Leg, Outcome, Point
from .scenarios import CommModel, Scenario, TraceInvalidError, evaluate

POS_TOL = 1e-9  # a robot stands on a point: meets, exits, leg joints
EVENT_TIME_TOL = 1e-9  # both sides of a meet or a message agree in time
SPEED_TOL = 1e-12


@dataclass(frozen=True)
class Segment:
    kind: str  # "arc" or "chord"
    t0: float
    t1: float
    p0: Point
    p1: Point
    # arc bookkeeping for the length check
    theta0: float | None = None
    theta1: float | None = None
    ccw: bool | None = None


@dataclass(frozen=True)
class Event:
    """Something a robot does, timed by its own integrated trajectory."""

    kind: str  # sent_message | received_message | meet | exited
    time: float
    pos: Point


@dataclass
class Trajectory:
    segments: list[Segment] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)

    @property
    def final_time(self) -> float:
        return self.segments[-1].t1 if self.segments else 0.0

    @property
    def final_pos(self) -> Point:
        if not self.segments:
            raise TraceInvalidError("empty trajectory")
        return self.segments[-1].p1


def _integrate(legs: list[Leg]) -> Trajectory:
    traj = Trajectory()
    t = 0.0
    for leg in legs:
        if isinstance(leg, ArcLeg):
            length = arc_between(leg.start, leg.end,
                                 leg.direction)
            seg = Segment("arc", t, t + length, leg.p0, leg.p1,
                          theta0=leg.start.theta, theta1=leg.end.theta,
                          ccw=leg.direction is Direction.CCW)
        else:
            length = point_distance(leg.p0, leg.p1)
            seg = Segment("chord", t, t + length, leg.p0, leg.p1)
        traj.segments.append(seg)
        t = seg.t1
    traj.events.append(Event("exited", t, traj.final_pos))
    return traj


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
        found = [min(point_distance(tr.segments[0].p1, e) for e in exits) <= POS_TOL
                 for tr in trs]
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


@dataclass
class AgreementReport:
    passed: bool
    issues: list[str] = field(default_factory=list)
    meets_checked: int = 0


def verify_agreement(scn: Scenario, tr1: Trajectory, tr2: Trajectory) -> AgreementReport:
    """Path, speed, exit-truth, meet-agreement and message-causality checks."""
    issues: list[str] = []
    exits = (cartesian(scn.e1), cartesian(scn.e2))
    b = scn.zeta / 2.0

    for name, tr, start in (("r1", tr1, ArcPos(b)), ("r2", tr2, ArcPos(-b))):
        finals = [ev for ev in tr.events if ev.kind == "exited"]
        if len(finals) != 1:
            issues.append(f"{name}: expected exactly one exited event")
            continue
        if min(point_distance(finals[0].pos, e) for e in exits) > 1e-7:
            issues.append(f"{name}: exited at {finals[0].pos}, not a true exit")
        at = cartesian(start)
        for seg in tr.segments:
            if point_distance(seg.p0, at) > POS_TOL:
                issues.append(f"{name}: segment starts at {seg.p0}, robot is at {at}")
            at = seg.p1
            dur = seg.t1 - seg.t0
            if seg.kind == "chord":
                length = point_distance(seg.p0, seg.p1)
            else:  # priced as _integrate prices it
                length = arc_length(seg.theta0, seg.theta1, seg.ccw)
            if abs(dur - length) > SPEED_TOL + 1e-9 * max(1.0, length):
                issues.append(f"{name}: segment duration {dur} != length {length}")

    meets1 = sorted((ev for ev in tr1.events if ev.kind == "meet"),
                    key=lambda ev: ev.time)
    meets2 = sorted((ev for ev in tr2.events if ev.kind == "meet"),
                    key=lambda ev: ev.time)
    if len(meets1) != len(meets2):
        issues.append("asymmetric meet events")
    checked = 0
    for m1, m2 in zip(meets1, meets2):
        checked += 1
        if abs(m1.time - m2.time) > EVENT_TIME_TOL:
            issues.append(f"meet times differ: {m1.time} vs {m2.time}")
        if point_distance(m1.pos, m2.pos) > POS_TOL:
            issues.append(f"meet positions differ: {m1.pos} vs {m2.pos}")

    sent = sorted((ev for ev in tr1.events + tr2.events
                   if ev.kind == "sent_message"), key=lambda ev: ev.time)
    received = sorted((ev for ev in tr1.events + tr2.events
                       if ev.kind == "received_message"), key=lambda ev: ev.time)
    for s, r in zip(sent, received):
        if r.time < s.time - 1e-12:
            issues.append("message received before it was sent")
        if abs(r.time - s.time) > EVENT_TIME_TOL:
            issues.append("message not instantaneous")

    return AgreementReport(passed=not issues, issues=issues, meets_checked=checked)


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
