"""Face-to-face evacuation policies: zeta = 0, zeta = d, and labeled exits.

Information travels only through co-location, so a finder either exits in
place or intercepts its partner: on the circle at the catch point M, on a
known chase chord at the equal-elapsed point N, or (after a miss at N) at
the recomputed on-circle point P.  The dispatcher always works from the
first finder's perspective; scenarios where R2 finds first are mirrored
across the x-axis and mapped back afterwards.

Realized times for the actual exit layout are returned, not per-case
worst-case expressions; worst cases emerge from the sweep module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import (
    ANGLE_TOL,
    TWO_PI,
    ArcPos,
    Direction,
    angle_close,
    arc_between,
    cartesian,
    chord_length,
    normalize_angle,
    point_distance,
)
from .meeting import catch_on_circle_arr, solve_meeting_xy as _solve_public
from .plans import ArcLeg, ChordLeg, MeetSpec, RobotPlan, mirror_meet, mirror_point
from .scenarios import (
    CommModel,
    EvacResult,
    Scenario,
    TraceInvalidError,
    WrongEvaluatorError,
)
from .wireless import _first_hits

SIM_TOL = 1e-12
_BTOL = 1e-9

# Internal residual gate, far below the default 1e-6.  The root itself is
# always within meeting.ROOT_TOL, whatever the gate.
_SOLVE_TOL = 1e-12


def solve_meeting_xy(x: float, offset: float) -> float:
    return _solve_public(x, offset, _SOLVE_TOL)

TAGS_SAME = ("F0-1", "F0-2a", "F0-2b", "F0-3a", "F0-3b", "F0-4a", "F0-4b", "F0-4c", "F0-sim")
TAGS_DIFF = ("Fd-1a", "Fd-1b", "Fd-1c", "Fd-2a", "Fd-2b", "Fd-2c", "Fd-sim")
TAGS_LABELED = ("FL-1", "FL-2", "FL-3", "FL-4")

DISCREPANCY_NOTES = (
    "the closed form sometimes quoted for Fd-2b is min(x, 2*pi - x - 2d); "
    "evacuation time is the last robot's exit, so the realized makespan is "
    "the max of the two separate exit times and that is what Fd-2b reports.",
)


@dataclass
class F2FOutcome:
    x: float
    case_tag: str
    simultaneous: bool
    r1_time: float
    r2_time: float
    r1_plan: RobotPlan
    r2_plan: RobotPlan
    meets: list[MeetSpec] = field(default_factory=list)


class Intent(Enum):
    CATCH_ON_CIRCLE = "catch-on-circle"
    MEET_ON_CHORD = "meet-on-chord"
    GO_TO_EXIT = "go-to-exit"
    EXIT_HERE = "exit-here"


@dataclass(frozen=True)
class PursuitWaypoint:
    point: tuple[float, float]
    planned_arrival: float
    intent: Intent


@dataclass
class PursuitPlan:
    """Planned-arrival view of one robot's itinerary.

    Arrival times strictly increase and consecutive waypoints are exactly
    one unit-speed hop apart; the replay oracle re-derives the same times
    independently from the raw legs.
    """

    waypoints: list[PursuitWaypoint]


def pursuit_plans(out: F2FOutcome) -> tuple[PursuitPlan, PursuitPlan]:
    on_circle = {id(m.point): m.catch_eq is not None for m in out.meets}

    def classify(point, is_last):
        if is_last:
            return Intent.EXIT_HERE
        for m in out.meets:
            if point_distance(point, m.point) <= 1e-9:
                if on_circle.get(id(m.point)) or abs(math.hypot(*point) - 1.0) <= 1e-9:
                    return Intent.CATCH_ON_CIRCLE
                return Intent.MEET_ON_CHORD
        return Intent.GO_TO_EXIT

    def build(plan: RobotPlan) -> PursuitPlan:
        waypoints = []
        t = 0.0
        for i, leg in enumerate(plan.legs):
            if isinstance(leg, ArcLeg):
                length = arc_between(leg.start, leg.end, leg.direction)
            else:
                length = point_distance(leg.p0, leg.p1)
            if length <= 1e-12:
                continue
            t += length
            end = leg.p1 if isinstance(leg, ChordLeg) else cartesian(leg.end)
            waypoints.append(PursuitWaypoint(
                end, t, classify(end, i == len(plan.legs) - 1)))
        if not waypoints and plan.exit_pos is not None:
            waypoints.append(PursuitWaypoint(cartesian(plan.exit_pos), 0.0,
                                             Intent.EXIT_HERE))
        return PursuitPlan(waypoints)

    return build(out.r1_plan), build(out.r2_plan)


# ---------------------------------------------------------------------------
# geometric sub-solvers
# ---------------------------------------------------------------------------

def intercept_moving_target(chaser_q, chaser_t0, target_p0, target_t0, target_p1,
                            slack: float = 0.0):
    """Equal-elapsed interception point of a unit-speed target on a segment.

    The target leaves target_p0 at target_t0 toward target_p1; the chaser
    leaves chaser_q at chaser_t0.  The gap |chaser - target(s)| - elapsed
    is monotone in s, so interception on the segment exists iff the
    chaser is not late at the far end; squaring the equal-time condition
    cancels the quadratic terms and leaves a linear root.  `slack` admits
    a tiny lateness for callers whose meeting is guaranteed analytically.
    Returns (point, time, s_along_segment) or None on a miss.
    """
    ux, uy = target_p1[0] - target_p0[0], target_p1[1] - target_p0[1]
    seg_len = math.hypot(ux, uy)
    delta = target_t0 - chaser_t0
    lateness = point_distance(chaser_q, target_p1) - (seg_len + delta)
    if lateness > slack:
        return None
    if seg_len <= _BTOL:
        return target_p1, target_t0 + seg_len, seg_len
    ux, uy = ux / seg_len, uy / seg_len
    wx, wy = chaser_q[0] - target_p0[0], chaser_q[1] - target_p0[1]
    denom = 2.0 * (wx * ux + wy * uy + delta)
    if abs(denom) <= 1e-14:
        s = seg_len
    else:
        s = (wx * wx + wy * wy - delta * delta) / denom
    s = min(max(s, 0.0, -delta), seg_len)
    point = (target_p0[0] + s * ux, target_p0[1] + s * uy)
    return point, target_t0 + s, s


def catch_on_circle_from(point, t0: float, b: float) -> float:
    """Re-aimed on-circle catch: smallest p with p - t0 = |point -> partner(p)|.

    One point through meeting.catch_on_circle_arr, the kernel the batch
    evaluators use, so scalar and batch catches agree by construction.
    """
    p = catch_on_circle_arr(np.array([point[0]]), np.array([point[1]]),
                            np.array([t0]), b)
    return float(p[0])


@dataclass
class _Case3:
    branch: str  # 'exit' | 'chase' | 'nmeet' | 'pmeet' | 'nn'
    y: float | None = None
    m: float | None = None
    n_point: tuple | None = None
    t_n: float | None = None
    p: float | None = None


def _case3_same(a: float, d: float, trailing_is_exit: bool) -> _Case3:
    """zeta = 0 case-3 machinery in the dancer's own frame (d/2 < a < d).

    The dancer found an exit at arc a.  Its trailing candidate sits at
    partner-arc d - a; had the partner found an exit there, it would now
    be chasing the dancer along the chord toward the on-circle point M'.
    The dancer aims for the equal-elapsed point N on that chord, then
    falls back to the on-circle catch P when nobody shows up.
    """
    phi = d - a
    t_a = TWO_PI - a - d
    m = solve_meeting_xy(phi, 0.0)
    if m >= TWO_PI - 2.0 * d + a:
        return _Case3("exit")
    q = cartesian(ArcPos(a))
    p0 = cartesian(ArcPos(-phi))
    p1 = cartesian(ArcPos(m))
    slack = 1e-7 if trailing_is_exit else 0.0
    hit = intercept_moving_target(q, a, p0, phi, p1, slack=slack)
    if hit is None:
        y = solve_meeting_xy(a, 0.0)
        if y < t_a:
            return _Case3("chase", y=y, m=m)
        return _Case3("exit")
    n_point, t_n, _ = hit
    if trailing_is_exit:
        return _Case3("nmeet", m=m, n_point=n_point, t_n=t_n)
    p = catch_on_circle_from(n_point, t_n, 0.0)
    if p < t_a:
        return _Case3("pmeet", m=m, n_point=n_point, t_n=t_n, p=p)
    return _Case3("nn", m=m, n_point=n_point, t_n=t_n, p=p)


def _second_finder_same(a: float, d: float):
    """Plan of a second finder (zeta = 0) in its own frame.

    Returns (exit_time, legs, reached_exit_arc, branch).  A second finder
    never meets anyone: its chase/P gates compare against the partner's
    arrival at the ahead candidate, which already happened.
    """
    legs: list = [ArcLeg(ArcPos(0.0), ArcPos(a), Direction.CCW)]
    x_pos = cartesian(ArcPos(a))
    if a >= d - _BTOL:
        return a, legs, ArcPos(a), "exit"
    if a > d / 2.0:
        res = _case3_same(a, d, trailing_is_exit=False)
        if res.branch == "exit":
            return a, legs, ArcPos(a), "exit"
        if res.branch == "nn":
            ca = ArcPos(a + d)
            ca_pos = cartesian(ca)
            w_own = point_distance(res.n_point, x_pos)
            w_ca = point_distance(res.n_point, ca_pos)
            target, hop = (ArcPos(a), w_own) if w_own <= w_ca else (ca, w_ca)
            legs.append(ChordLeg(x_pos, res.n_point))
            legs.append(ChordLeg(res.n_point, cartesian(target)))
            return res.t_n + hop, legs, target, "dance"
        raise TraceInvalidError(f"second finder reached branch {res.branch}")
    # a <= d/2 for a second finder only on degenerate boundaries
    return a, legs, ArcPos(a), "exit"


# ---------------------------------------------------------------------------
# frame helpers
# ---------------------------------------------------------------------------

def _frame_hits(scn: Scenario):
    (t1, f1, o1), (t2, f2, o2) = _first_hits(scn)
    if abs(t1 - t2) <= SIM_TOL:
        return None
    mirrored = t2 < t1
    if mirrored:
        return mirrored, t2, normalize_angle(-f2), normalize_angle(-o2)
    return mirrored, t1, f1, o1


def _assemble(mirrored, x, tag, finder_time, partner_time,
              finder_plan, partner_plan, meets) -> F2FOutcome:
    if mirrored:
        return F2FOutcome(
            x, tag, False,
            r1_time=partner_time, r2_time=finder_time,
            r1_plan=partner_plan.mirrored(), r2_plan=finder_plan.mirrored(),
            meets=[mirror_meet(m) for m in meets],
        )
    return F2FOutcome(x, tag, False, finder_time, partner_time,
                      finder_plan, partner_plan, meets)


def _joint_hop(meet_point, meet_time, targets):
    """Pick the nearest exit from a meeting point; ties go to the first."""
    best_pos, best_w = None, None
    for pos, w in targets:
        if best_w is None or w < best_w - _BTOL:
            best_pos, best_w = pos, w
    return best_pos, meet_time + best_w


def _other_side(found: float, other: float, d: float) -> str:
    """'ahead' when the other exit is d counterclockwise of the found one."""
    if angle_close(other, found + d):
        return "ahead"
    if angle_close(other, found - d):
        return "behind"
    raise TraceInvalidError("other exit is not at arc distance d from the find")


# ---------------------------------------------------------------------------
# zeta = 0, unlabeled
# ---------------------------------------------------------------------------

def _outcome_f2f_same(scn: Scenario) -> F2FOutcome:
    d = scn.d
    frame = _frame_hits(scn)
    if frame is None:
        return _sim_outcome(scn, "same")
    mirrored, x, found, other = frame
    side = _other_side(found, other, d)
    x_arc = ArcPos(found)
    x_pos = cartesian(x_arc)
    ca = ArcPos(found + d)
    ca_pos = cartesian(ca)
    cb = ArcPos(found - d)
    cb_pos = cartesian(cb)
    t_a = normalize_angle(-ca.theta)  # partner's arrival at the ahead candidate
    y = solve_meeting_xy(x, 0.0)

    finder_legs: list = [ArcLeg(ArcPos(0.0), x_arc, Direction.CCW)]
    partner_legs: list = []
    meets: list[MeetSpec] = []

    def meet_on_circle(t_meet: float):
        m_arc = ArcPos(-t_meet)
        m_pos = cartesian(m_arc)
        finder_legs.append(ChordLeg(x_pos, m_pos))
        partner_legs.append(ArcLeg(ArcPos(0.0), m_arc, Direction.CW))
        meets.append(MeetSpec(m_pos, t_meet, (x, 0.0, t_meet)))
        return m_arc, m_pos

    def finish_joint(point, target, time):
        tp = cartesian(target)
        finder_legs.append(ChordLeg(point, tp))
        partner_legs.append(ChordLeg(point, tp))
        f_plan = RobotPlan(finder_legs, target, x)
        p_plan = RobotPlan(partner_legs, target, None)
        return _assemble(mirrored, x, tag, time, time, f_plan, p_plan, meets)

    if x + y <= d:  # Case 1: catch before the trailing candidate
        tag = "F0-1"
        m_arc, m_pos = meet_on_circle(y)
        if angle_close(m_arc.theta, other):
            f_plan = RobotPlan(finder_legs, m_arc, x)
            p_plan = RobotPlan(partner_legs, m_arc, y)
            return _assemble(mirrored, x, tag, y, y, f_plan, p_plan, meets)
        w_x = chord_length(x + y)
        hop_cb = chord_length((d - x) - y)
        between = chord_length(min(2.0 * d, TWO_PI))
        if w_x <= hop_cb + between:
            return finish_joint(m_pos, x_arc, y + w_x)
        finder_legs.append(ChordLeg(m_pos, cb_pos))
        partner_legs.append(ChordLeg(m_pos, cb_pos))
        if side == "behind":
            f_plan = RobotPlan(finder_legs, cb, x)
            p_plan = RobotPlan(partner_legs, cb, None)
            t = y + hop_cb
            return _assemble(mirrored, x, tag, t, t, f_plan, p_plan, meets)
        finder_legs.append(ChordLeg(cb_pos, ca_pos))
        partner_legs.append(ChordLeg(cb_pos, ca_pos))
        t = y + hop_cb + between
        f_plan = RobotPlan(finder_legs, ca, x)
        p_plan = RobotPlan(partner_legs, ca, None)
        return _assemble(mirrored, x, tag, t, t, f_plan, p_plan, meets)

    if x <= d / 2.0:  # Case 2
        if y <= t_a:  # 2a: the chase is viable
            if side == "ahead":
                tag = "F0-2a"
                _, m_pos = meet_on_circle(y)
                target, time = _joint_hop(
                    m_pos, y,
                    [(x_arc, chord_length(x + y)), (ca, chord_length(t_a - y))],
                )
                return finish_joint(m_pos, target, time)
            # exit at the trailing candidate: the partner finds it first and
            # intercepts this chase at N (its own case 3a)
            tag = "F0-3a"
            res = _case3_same(d - x, d, trailing_is_exit=True)
            if res.branch != "nmeet":
                raise TraceInvalidError("partner failed to intercept a live chase")
            n_f = mirror_point(res.n_point)
            t_n = res.t_n
            m_pos = cartesian(ArcPos(-y))
            finder_legs.append(ChordLeg(x_pos, n_f))
            partner_legs.append(ArcLeg(ArcPos(0.0), cb, Direction.CW))
            partner_legs.append(ChordLeg(cb_pos, n_f))
            meets.append(MeetSpec(n_f, t_n, None))
            target, time = _joint_hop(
                n_f, t_n,
                [(x_arc, point_distance(n_f, x_pos)),
                 (cb, point_distance(n_f, cb_pos))],
            )
            tp = cartesian(target)
            finder_legs.append(ChordLeg(n_f, tp))
            partner_legs.append(ChordLeg(n_f, tp))
            f_plan = RobotPlan(finder_legs, target, x)
            p_plan = RobotPlan(partner_legs, target, d - x)
            return _assemble(mirrored, x, tag, time, time, f_plan, p_plan, meets)
        # 2b: no viable chase, both evacuate separately
        tag = "F0-2b"
        s_arc = d - x if side == "behind" else t_a
        return _separate_exit_same(mirrored, x, tag, s_arc, d,
                                   finder_legs, x_arc, meets)

    if x < d:  # Case 3: the trailing candidate may already be explored
        if side != "ahead":
            raise TraceInvalidError("first finder in case 3 with a trailing exit")
        res = _case3_same(x, d, trailing_is_exit=False)
        if res.branch == "exit":
            tag = "F0-3b"
            return _separate_exit_same(mirrored, x, tag, t_a, d,
                                       finder_legs, x_arc, meets)
        if res.branch == "chase":
            tag = "F0-3a"
            _, m_pos = meet_on_circle(res.y)
            target, time = _joint_hop(
                m_pos, res.y,
                [(x_arc, chord_length(x + res.y)),
                 (ca, chord_length(t_a - res.y))],
            )
            return finish_joint(m_pos, target, time)
        if res.branch == "pmeet":
            tag = "F0-3a"
            p_arc = ArcPos(-res.p)
            p_pos = cartesian(p_arc)
            finder_legs.append(ChordLeg(x_pos, res.n_point))
            finder_legs.append(ChordLeg(res.n_point, p_pos))
            partner_legs.append(ArcLeg(ArcPos(0.0), p_arc, Direction.CW))
            meets.append(MeetSpec(p_pos, res.p, None))
            target, time = _joint_hop(
                p_pos, res.p,
                [(x_arc, point_distance(p_pos, x_pos)),
                 (ca, point_distance(p_pos, ca_pos))],
            )
            return finish_joint(p_pos, target, time)
        # 'nn': nobody at N and P is out of reach; head for the closest exit
        tag = "F0-3a"
        finder_legs.append(ChordLeg(x_pos, res.n_point))
        target, f_time = _joint_hop(
            res.n_point, res.t_n,
            [(x_arc, point_distance(res.n_point, x_pos)),
             (ca, point_distance(res.n_point, ca_pos))],
        )
        finder_legs.append(ChordLeg(res.n_point, cartesian(target)))
        f_plan = RobotPlan(finder_legs, target, x)
        s_time, s_legs, s_exit, _ = _second_finder_same(t_a, d)
        p_plan = RobotPlan(s_legs, s_exit, t_a).mirrored()
        return _assemble(mirrored, x, tag, f_time, s_time, f_plan, p_plan, meets)

    # Case 4: the trailing candidate is in the finder's own swept arc
    if side != "ahead":
        raise TraceInvalidError("first finder in case 4 with a trailing exit")
    if y < t_a:
        tag = "F0-4a"
        _, m_pos = meet_on_circle(y)
        target, time = _joint_hop(
            m_pos, y,
            [(x_arc, chord_length(x + y)), (ca, chord_length(t_a - y))],
        )
        return finish_joint(m_pos, target, time)
    tag = "F0-4c" if t_a >= d - _BTOL else "F0-4b"
    return _separate_exit_same(mirrored, x, tag, t_a, d, finder_legs, x_arc, meets)


def _separate_exit_same(mirrored, x, tag, s_arc, d, finder_legs, x_arc, meets):
    """Both robots evacuate without meeting (zeta = 0)."""
    f_plan = RobotPlan(finder_legs, x_arc, x)
    s_time, s_legs, s_exit, _ = _second_finder_same(s_arc, d)
    p_plan = RobotPlan(s_legs, s_exit, s_arc).mirrored()
    return _assemble(mirrored, x, tag, x, s_time, f_plan, p_plan, meets)


# ---------------------------------------------------------------------------
# zeta = d, unlabeled
# ---------------------------------------------------------------------------

def _outcome_f2f_diff(scn: Scenario) -> F2FOutcome:
    d = scn.d
    b = d / 2.0
    frame = _frame_hits(scn)
    if frame is None:
        return _sim_outcome(scn, "diff")
    mirrored, x, found, other = frame
    side = _other_side(found, other, d)
    x_arc = ArcPos(found)
    x_pos = cartesian(x_arc)
    ca = ArcPos(found + d)
    ca_pos = cartesian(ca)
    cb = ArcPos(found - d)
    cb_pos = cartesian(cb)

    def partner_arc(theta: float) -> float:
        return normalize_angle(-b - theta)

    t_a = partner_arc(ca.theta)
    t_x = partner_arc(x_arc.theta)
    y = solve_meeting_xy(x, d)

    finder_legs: list = [ArcLeg(ArcPos(b), x_arc, Direction.CCW)]
    partner_legs: list = []
    meets: list[MeetSpec] = []

    def meet_on_circle(t_meet: float):
        m_arc = ArcPos(-b - t_meet)
        m_pos = cartesian(m_arc)
        finder_legs.append(ChordLeg(x_pos, m_pos))
        partner_legs.append(ArcLeg(ArcPos(-b), m_arc, Direction.CW))
        meets.append(MeetSpec(m_pos, t_meet, (x, d, t_meet)))
        return m_arc, m_pos

    def finish_joint(point, target, time, partner_found=None):
        tp = cartesian(target)
        finder_legs.append(ChordLeg(point, tp))
        partner_legs.append(ChordLeg(point, tp))
        f_plan = RobotPlan(finder_legs, target, x)
        p_plan = RobotPlan(partner_legs, target, partner_found)
        return _assemble(mirrored, x, tag, time, time, f_plan, p_plan, meets)

    if x >= d:  # Case 2: own sweep rules the trailing candidate out
        if side != "ahead":
            raise TraceInvalidError("case 2 with an exit at the ruled-out candidate")
        t_stop = min(t_a, t_x)
        if y < t_stop:  # 2c: catch the partner before it reaches any exit
            tag = "Fd-2c"
            _, m_pos = meet_on_circle(y)
            target, time = _joint_hop(
                m_pos, y,
                [(x_arc, point_distance(m_pos, x_pos)),
                 (ca, point_distance(m_pos, ca_pos))],
            )
            return finish_joint(m_pos, target, time)
        # 2b: the partner will deduce the layout on its own; exit separately
        tag = "Fd-2b"
        s_target = ca if t_a <= t_x else x_arc
        partner_legs.append(ArcLeg(ArcPos(-b), ArcPos(-b - t_stop), Direction.CW))
        f_plan = RobotPlan(finder_legs, x_arc, x)
        p_plan = RobotPlan(partner_legs, s_target, t_stop)
        return _assemble(mirrored, x, tag, x, t_stop, f_plan, p_plan, meets)

    # Case 1: x < d, the trailing candidate hides in the never-swept gap
    if t_a > y:  # 1a: E2' is not inside arc CM; catch and return to X
        tag = "Fd-1a"
        _, m_pos = meet_on_circle(y)
        return finish_joint(m_pos, x_arc, y + chord_length(d + x + y))
    # 1b / 1c: E2' lies within the partner's pre-catch sweep
    seg = chord_length(d)
    s = min(max((t_a + seg - x) / 2.0, 0.0), seg)
    if side == "ahead":  # 1b: both converge on the chord X-E2'
        tag = "Fd-2a" if t_a >= d - _BTOL else "Fd-1b"
        ux, uy = (ca_pos[0] - x_pos[0]) / seg, (ca_pos[1] - x_pos[1]) / seg
        n_point = (x_pos[0] + s * ux, x_pos[1] + s * uy)
        t_n = x + s
        finder_legs.append(ChordLeg(x_pos, n_point))
        partner_legs.append(ArcLeg(ArcPos(-b), ca, Direction.CW))
        partner_legs.append(ChordLeg(ca_pos, n_point))
        meets.append(MeetSpec(n_point, t_n, None))
        target, time = _joint_hop(n_point, t_n, [(x_arc, s), (ca, seg - s)])
        return finish_joint(n_point, target, time, partner_found=t_a)
    # other exit is the gap candidate; E2' will turn out empty
    tag = "Fd-1c"
    if s <= _BTOL:
        # the partner swept past E2' long ago; fall back to the plain catch
        if y >= t_x - _BTOL:
            raise TraceInvalidError("catch point behind the partner's own find")
        _, m_pos = meet_on_circle(y)
        target, time = _joint_hop(
            m_pos, y,
            [(x_arc, point_distance(m_pos, x_pos)),
             (cb, point_distance(m_pos, cb_pos))],
        )
        return finish_joint(m_pos, target, time)
    ux, uy = (ca_pos[0] - x_pos[0]) / seg, (ca_pos[1] - x_pos[1]) / seg
    n_point = (x_pos[0] + s * ux, x_pos[1] + s * uy)
    t_n = x + s
    finder_legs.append(ChordLeg(x_pos, n_point))
    p = catch_on_circle_from(n_point, t_n, b)
    if p <= t_x:
        p_arc = ArcPos(-b - p)
        p_pos = cartesian(p_arc)
        finder_legs.append(ChordLeg(n_point, p_pos))
        partner_legs.append(ArcLeg(ArcPos(-b), p_arc, Direction.CW))
        meets.append(MeetSpec(p_pos, p, None))
        target, time = _joint_hop(
            p_pos, p,
            [(x_arc, point_distance(p_pos, x_pos)),
             (cb, point_distance(p_pos, cb_pos))],
        )
        return finish_joint(p_pos, target, time)
    # Defensive corner: the partner reaches X (a real exit) before P and
    # leaves; the finder carries on alone from P to the closest exit.
    p_arc = ArcPos(-b - p)
    p_pos = cartesian(p_arc)
    finder_legs.append(ChordLeg(n_point, p_pos))
    target, f_time = _joint_hop(
        p_pos, p,
        [(x_arc, point_distance(p_pos, x_pos)),
         (cb, point_distance(p_pos, cb_pos))],
    )
    finder_legs.append(ChordLeg(p_pos, cartesian(target)))
    partner_legs.append(ArcLeg(ArcPos(-b), x_arc, Direction.CW))
    f_plan = RobotPlan(finder_legs, target, x)
    p_plan = RobotPlan(partner_legs, x_arc, t_x)
    return _assemble(mirrored, x, tag, f_time, t_x, f_plan, p_plan, meets)


# ---------------------------------------------------------------------------
# labeled exits, generic zeta
# ---------------------------------------------------------------------------

def _outcome_f2f_labeled(scn: Scenario) -> F2FOutcome:
    d, zeta = scn.d, scn.zeta
    b = zeta / 2.0
    frame = _frame_hits(scn)
    if frame is None:
        return _sim_outcome(scn, "labeled")
    mirrored, x, found, other = frame
    side = _other_side(found, other, d)
    x_arc = ArcPos(found)
    x_pos = cartesian(x_arc)
    other_arc = ArcPos(other)
    other_pos = cartesian(other_arc)
    t_o = normalize_angle(-b - other)
    y = solve_meeting_xy(x, zeta)
    if t_o < x - _BTOL:
        raise TraceInvalidError("labeled partner should have found the exit first")

    finder_legs: list = [ArcLeg(ArcPos(b), x_arc, Direction.CCW)]
    meets: list[MeetSpec] = []

    if t_o <= y:
        # The partner reaches the other exit before any catch completes;
        # chasing is hopeless, so both exit where they are headed.
        tag = "FL-2" if side == "behind" else "FL-4"
        partner_legs = [ArcLeg(ArcPos(-b), other_arc, Direction.CW)]
        f_plan = RobotPlan(finder_legs, x_arc, x)
        p_plan = RobotPlan(partner_legs, other_arc, t_o)
        return _assemble(mirrored, x, tag, x, t_o, f_plan, p_plan, meets)

    tag = "FL-1" if side == "behind" else "FL-3"
    m_arc = ArcPos(-b - y)
    m_pos = cartesian(m_arc)
    finder_legs.append(ChordLeg(x_pos, m_pos))
    partner_legs = [ArcLeg(ArcPos(-b), m_arc, Direction.CW)]
    meets.append(MeetSpec(m_pos, y, (x, zeta, y)))
    target, time = _joint_hop(
        m_pos, y,
        [(x_arc, chord_length(x + y + zeta)),
         (other_arc, point_distance(m_pos, other_pos))],
    )
    tp = cartesian(target)
    finder_legs.append(ChordLeg(m_pos, tp))
    partner_legs.append(ChordLeg(m_pos, tp))
    f_plan = RobotPlan(finder_legs, target, x)
    p_plan = RobotPlan(partner_legs, target, None)
    return _assemble(mirrored, x, tag, time, time, f_plan, p_plan, meets)


# ---------------------------------------------------------------------------
# simultaneous discovery (mirror-symmetric layouts)
# ---------------------------------------------------------------------------

def _sim_outcome(scn: Scenario, kind: str) -> F2FOutcome:
    b = scn.zeta / 2.0
    (t1, f1, o1), (t2, f2, _) = _first_hits(scn)
    x = t1
    r1_exit = ArcPos(f1)
    r2_exit = ArcPos(f2)
    leg1 = [ArcLeg(ArcPos(b), r1_exit, Direction.CCW)]
    leg2 = [ArcLeg(ArcPos(-b), r2_exit, Direction.CW)]

    if kind == "labeled":
        tag = "FL-4" if angle_close(o1, normalize_angle(f1 + scn.d)) else "FL-2"
        return F2FOutcome(x, tag, True, x, x,
                          RobotPlan(leg1, r1_exit, x), RobotPlan(leg2, r2_exit, x))

    tag = "F0-sim" if kind == "same" else "Fd-sim"
    if x <= ANGLE_TOL or angle_close(f1, f2):
        # Zero travel, or both robots stepped onto the same exit together.
        return F2FOutcome(x, tag, True, x, x,
                          RobotPlan(leg1, r1_exit, x), RobotPlan(leg2, r2_exit, x))

    moving = _sim_first_action(scn, kind, x, f1, o1)
    if moving is None:
        return F2FOutcome(x, tag, True, x, x,
                          RobotPlan(leg1, r1_exit, x), RobotPlan(leg2, r2_exit, x))
    # Both robots run the mirror-image maneuver and collide on the x-axis.
    t_leg = x
    for leg in moving:
        y0, y1 = leg.p0[1], leg.p1[1]
        seg = point_distance(leg.p0, leg.p1)
        if seg <= _BTOL or y0 * y1 > 0.0:
            t_leg += seg
            leg1.append(leg)
            continue
        u = abs(y0) / (abs(y0) + abs(y1)) if (abs(y0) + abs(y1)) > 0 else 0.0
        cross = (leg.p0[0] + u * (leg.p1[0] - leg.p0[0]), 0.0)
        tau = t_leg + u * seg
        leg1.append(ChordLeg(leg.p0, cross))
        e_a, e_b = cartesian(r1_exit), cartesian(r2_exit)
        w_a, w_b = point_distance(cross, e_a), point_distance(cross, e_b)
        target = r1_exit if w_a <= w_b else r2_exit
        leg1.append(ChordLeg(cross, cartesian(target)))
        time = tau + min(w_a, w_b)
        plan1 = RobotPlan(leg1, target, x)
        plan2 = plan1.mirrored()
        plan2.found_exit_at = x
        meet = MeetSpec(cross, tau, None)
        # the meeting point lies on the symmetry axis, its own mirror image
        return F2FOutcome(x, tag, True, time, time, plan1, plan2, [meet])
    raise TraceInvalidError("symmetric maneuvers never crossed the axis")


def _sim_first_action(scn: Scenario, kind: str, x: float, found: float, other: float):
    """Moving legs (if any) of R1's dispatch for a simultaneous find."""
    d = scn.d
    x_pos = cartesian(ArcPos(found))
    if kind == "same":
        y = solve_meeting_xy(x, 0.0)
        t_a = normalize_angle(-(found + d))
        if x + y <= d or (x <= d / 2.0 and y <= t_a) or (x >= d and y < t_a):
            return [ChordLeg(x_pos, cartesian(ArcPos(-y)))]
        if d / 2.0 < x < d:
            res = _case3_same(x, d, trailing_is_exit=False)
            if res.branch == "chase":
                return [ChordLeg(x_pos, cartesian(ArcPos(-res.y)))]
            if res.branch in ("pmeet", "nn", "nmeet"):
                legs = [ChordLeg(x_pos, res.n_point)]
                if res.p is not None:
                    legs.append(ChordLeg(res.n_point, cartesian(ArcPos(-res.p))))
                return legs
        return None
    # kind == "diff"
    b = d / 2.0
    y = solve_meeting_xy(x, d)
    t_a = normalize_angle(-b - (found + d))
    t_x = normalize_angle(-b - found)
    if x >= d:
        return [ChordLeg(x_pos, cartesian(ArcPos(-b - y)))] if y < min(t_a, t_x) else None
    if t_a > y:
        return [ChordLeg(x_pos, cartesian(ArcPos(-b - y)))]
    seg = chord_length(d)
    s = min(max((t_a + seg - x) / 2.0, 0.0), seg)
    ca_pos = cartesian(ArcPos(found + d))
    ux, uy = (ca_pos[0] - x_pos[0]) / seg, (ca_pos[1] - x_pos[1]) / seg
    n_point = (x_pos[0] + s * ux, x_pos[1] + s * uy)
    return [ChordLeg(x_pos, n_point)]


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------

def _check(scn: Scenario):
    if scn.model is not CommModel.FACE_TO_FACE:
        raise WrongEvaluatorError("scenario is not a face-to-face instance")


def _to_result(out: F2FOutcome) -> EvacResult:
    return EvacResult(
        time_from_perimeter=max(out.r1_time, out.r2_time),
        r1_exit_time=out.r1_time,
        r2_exit_time=out.r2_time,
        discovery_arc_x=out.x,
        case_tag=out.case_tag,
        simultaneous=out.simultaneous,
    )


def eval_f2f_same(scn: Scenario) -> EvacResult:
    _check(scn)
    if scn.labeled or abs(scn.zeta) > _BTOL:
        raise WrongEvaluatorError("eval_f2f_same handles unlabeled zeta = 0 only")
    return _to_result(_outcome_f2f_same(scn))


def eval_f2f_diff(scn: Scenario) -> EvacResult:
    _check(scn)
    if scn.labeled or abs(scn.zeta - scn.d) > _BTOL:
        raise WrongEvaluatorError("eval_f2f_diff handles unlabeled zeta = d only")
    return _to_result(_outcome_f2f_diff(scn))


def eval_f2f_labeled(scn: Scenario) -> EvacResult:
    _check(scn)
    if not scn.labeled:
        raise WrongEvaluatorError("eval_f2f_labeled needs a labeled scenario")
    return _to_result(_outcome_f2f_labeled(scn))


def plan_f2f(scn: Scenario) -> F2FOutcome:
    """Full outcome (plans included) for the replay oracle."""
    _check(scn)
    if scn.labeled:
        return _outcome_f2f_labeled(scn)
    if abs(scn.zeta) <= _BTOL:
        return _outcome_f2f_same(scn)
    if abs(scn.zeta - scn.d) <= _BTOL:
        return _outcome_f2f_diff(scn)
    raise WrongEvaluatorError("unlabeled face-to-face needs zeta in {0, d}")


def worst_f2f(d: float, variant: str, exit_step: float, zeta_policy="0"):
    """Worst realized time over the exit grid: (time, argmax_e1, case_tag)."""
    from . import _batch
    from .wireless import resolve_zeta

    if exit_step <= 0.0:
        raise ValueError("exit_step must be positive")
    grid = _batch.exit_grid(exit_step)
    if variant == "same":
        times, codes = _batch.batch_f2f_same(d, grid)
    elif variant == "diff":
        times, codes = _batch.batch_f2f_diff(d, grid)
    elif variant == "labeled":
        times, codes = _batch.batch_f2f_labeled(d, resolve_zeta(zeta_policy, d), grid)
    else:
        raise ValueError(f"unknown face-to-face variant {variant!r}")
    i = int(times.argmax())
    return float(times[i]), ArcPos(i * exit_step), _batch.decode_tag(codes[i])
