"""Kinematic replay oracle.

Re-executes the policy modules' motion plans as timestamped segments,
pricing every leg by its geometric length instead of the closed-form case
expressions.  Meetings are then validated geometrically: at each planned
meet time both interpolated trajectories must sit on the meeting point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import Direction, arc_between, cartesian, point_distance
from .plans import ArcLeg, RobotPlan
from .scenarios import Scenario, TraceInvalidError, plan

MEET_POS_TOL = 1e-6
EXIT_POS_TOL = 1e-9
SPEED_TOL = 1e-12
CATCH_EQ_TOL = 1e-6


@dataclass(frozen=True)
class Segment:
    kind: str  # "arc" or "chord"
    t0: float
    t1: float
    p0: tuple[float, float]
    p1: tuple[float, float]
    # arc bookkeeping for interpolation
    theta0: float | None = None
    theta1: float | None = None
    ccw: bool | None = None


@dataclass(frozen=True)
class Event:
    kind: str  # found_exit | sent_message | received_message | meet | exited
    time: float
    pos: tuple[float, float]


@dataclass
class Trajectory:
    segments: list[Segment] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)

    @property
    def final_time(self) -> float:
        return self.segments[-1].t1 if self.segments else 0.0

    @property
    def final_pos(self) -> tuple[float, float]:
        if self.segments:
            return self.segments[-1].p1
        for ev in self.events:
            return ev.pos
        raise TraceInvalidError("empty trajectory")

    def position_at(self, t: float) -> tuple[float, float]:
        if not self.segments or t <= self.segments[0].t0:
            return self.segments[0].p0 if self.segments else self.final_pos
        for seg in self.segments:
            if t <= seg.t1:
                if seg.t1 <= seg.t0:
                    return seg.p1
                u = (t - seg.t0) / (seg.t1 - seg.t0)
                if seg.kind == "chord":
                    return (
                        seg.p0[0] + u * (seg.p1[0] - seg.p0[0]),
                        seg.p0[1] + u * (seg.p1[1] - seg.p0[1]),
                    )
                sweep = (seg.theta1 - seg.theta0) % (2.0 * math.pi)
                if not seg.ccw:
                    sweep = -((seg.theta0 - seg.theta1) % (2.0 * math.pi))
                ang = seg.theta0 + u * sweep
                return (math.cos(ang), math.sin(ang))
        return self.final_pos


def _integrate(plan: RobotPlan, start_time: float = 0.0) -> Trajectory:
    traj = Trajectory()
    t = start_time
    for leg in plan.legs:
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
    if plan.found_exit_at is not None:
        pos = None
        for seg in traj.segments:
            if abs(seg.t1 - plan.found_exit_at) <= 1e-9:
                pos = seg.p1
                break
        if pos is None:
            pos = traj.position_at(plan.found_exit_at)
        traj.events.append(Event("found_exit", plan.found_exit_at, pos))
    traj.events.append(Event("exited", t, traj.final_pos))
    return traj


def replay(scn: Scenario):
    """Reconstruct both trajectories; returns (traj1, traj2, makespan)."""
    out = plan(scn)
    tr1 = _integrate(out.r1_plan)
    tr2 = _integrate(out.r2_plan)
    if out.message_time is not None and not out.simultaneous:
        finder, receiver = (tr1, tr2) if out.r1_plan.found_exit_at is not None else (tr2, tr1)
        finder.events.append(Event("sent_message", out.message_time,
                                   finder.position_at(out.message_time)))
        receiver.events.append(Event("received_message", out.message_time,
                                     receiver.position_at(out.message_time)))
    for meet in out.meets:
        p1 = tr1.position_at(meet.policy_time)
        p2 = tr2.position_at(meet.policy_time)
        for tr, p in ((tr1, p1), (tr2, p2)):
            tr.events.append(Event("meet", meet.policy_time, p))
        if point_distance(p1, meet.point) > MEET_POS_TOL or \
                point_distance(p2, meet.point) > MEET_POS_TOL:
            raise TraceInvalidError(
                f"planned meeting at {meet.point} never occurs: robots at "
                f"{p1} and {p2} at t={meet.policy_time}"
            )
        if meet.catch_eq is not None:
            x, offset, y = meet.catch_eq
            res = x + 2.0 * math.sin((x + y + offset) / 2.0) - y
            if abs(res) >= CATCH_EQ_TOL:
                raise TraceInvalidError(
                    f"catch equation residual {res} at meet {meet.point}"
                )
    makespan = max(tr1.final_time, tr2.final_time)
    return tr1, tr2, makespan


@dataclass
class AgreementReport:
    passed: bool
    issues: list[str] = field(default_factory=list)
    meets_checked: int = 0


def verify_agreement(scn: Scenario, tr1: Trajectory, tr2: Trajectory) -> AgreementReport:
    """Agreement, speed, exit-truth and message-causality checks."""
    issues: list[str] = []
    exits = (cartesian(scn.e1), cartesian(scn.e2))

    for name, tr in (("r1", tr1), ("r2", tr2)):
        finals = [ev for ev in tr.events if ev.kind == "exited"]
        if len(finals) != 1:
            issues.append(f"{name}: expected exactly one exited event")
            continue
        if min(point_distance(finals[0].pos, e) for e in exits) > 1e-7:
            issues.append(f"{name}: exited at {finals[0].pos}, not a true exit")
        for seg in tr.segments:
            dur = seg.t1 - seg.t0
            if seg.kind == "chord":
                length = point_distance(seg.p0, seg.p1)
            else:
                sweep = (seg.theta1 - seg.theta0) % (2.0 * math.pi) if seg.ccw \
                    else (seg.theta0 - seg.theta1) % (2.0 * math.pi)
                length = sweep
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
        if abs(m1.time - m2.time) > 5e-6:
            issues.append(f"meet times differ: {m1.time} vs {m2.time}")
        if point_distance(m1.pos, m2.pos) > MEET_POS_TOL:
            issues.append(f"meet positions differ: {m1.pos} vs {m2.pos}")

    sent = sorted((ev for ev in tr1.events + tr2.events
                   if ev.kind == "sent_message"), key=lambda ev: ev.time)
    received = sorted((ev for ev in tr1.events + tr2.events
                       if ev.kind == "received_message"), key=lambda ev: ev.time)
    for s, r in zip(sent, received):
        if r.time < s.time - 1e-12:
            issues.append("message received before it was sent")
        if abs(r.time - s.time) > 1e-9:
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
