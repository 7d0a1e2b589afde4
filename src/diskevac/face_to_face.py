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
from dataclasses import dataclass

import numpy as np

from .geometry import (
    ANGLE_TOL,
    TWO_PI,
    ArcPos,
    Direction,
    angle_close,
    cartesian,
    chord_length,
    normalize_angle,
    point_distance,
)
from .meeting import catch_on_circle_arr, solve_meeting_xy
from .plans import ArcLeg, ChordLeg, Outcome, Point, mirror_plan, mirror_point
from .scenarios import (
    SIM_TOL,
    Regime,
    Scenario,
    TraceInvalidError,
    WrongEvaluatorError,
    first_hits,
    resolve_zeta,
)

DISCREPANCY_NOTES = (
    "the closed form sometimes quoted for Fd-2b is min(x, 2*pi - x - 2d); "
    "evacuation time is the last robot's exit, so the realized makespan is "
    "the max of the two separate exit times and that is what Fd-2b reports.",
)


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
    if seg_len <= ANGLE_TOL:
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
    """Exit time and legs of a second finder (zeta = 0) in its own frame.

    A second finder never meets anyone: its chase/P gates compare against
    the partner's arrival at the ahead candidate, which already happened.
    Only the case-3 dance with its guaranteed miss at N moves it off its
    find; a <= d/2 happens for a second finder on degenerate boundaries
    only, and it exits in place there.
    """
    legs: list = [ArcLeg(ArcPos(0.0), ArcPos(a), Direction.CCW)]
    if d / 2.0 < a < d - ANGLE_TOL:
        res = _case3_same(a, d, trailing_is_exit=False)
        if res.branch == "nn":
            (own, w_own), (ca, w_ca) = _by_distance(res.n_point, ArcPos(a), ArcPos(a + d))
            target, hop = (own, w_own) if w_own <= w_ca else (ca, w_ca)
            legs += [ChordLeg(cartesian(own), res.n_point),
                     ChordLeg(res.n_point, cartesian(target))]
            return res.t_n + hop, legs
        if res.branch != "exit":
            raise TraceInvalidError(f"second finder reached branch {res.branch}")
    return a, legs


# ---------------------------------------------------------------------------
# the first finder's frame and plan assembly
# ---------------------------------------------------------------------------

class _Frame:
    """A face-to-face scenario seen by its first finder, plans under way.

    The finder starts at +b and sweeps counterclockwise to its find X,
    reached at time x; the partner starts at -b and sweeps clockwise, so
    at time t it stands at -b - t.  `done` maps a mirrored frame back.
    """

    def __init__(self, d: float, b: float, mirrored: bool, x: float,
                 found: float, other: float):
        self.b, self.mirrored, self.x, self.other = b, mirrored, x, other
        self.side = _other_side(found, other, d)
        self.x_arc = ArcPos(found)
        self.x_pos = cartesian(self.x_arc)
        self.ca = ArcPos(found + d)  # candidate counterclockwise of X
        self.ca_pos = cartesian(self.ca)
        self.cb = ArcPos(found - d)  # candidate clockwise of X
        self.cb_pos = cartesian(self.cb)
        self.start = ArcPos(0.0 - b)  # the partner's; no negative zero at b = 0
        self.finder_legs: list = [ArcLeg(ArcPos(b), self.x_arc, Direction.CCW)]
        self.partner_legs: list = []
        self.meets: list[Point] = []

    def partner_time(self, theta: float) -> float:
        """When the partner's clockwise sweep reaches angle theta."""
        return normalize_angle(-self.b - theta)

    def meet_on_circle(self, t_meet: float):
        """The finder cuts straight to the partner's spot at t_meet (catch M)."""
        m_arc = ArcPos(-self.b - t_meet)
        m_pos = cartesian(m_arc)
        self.finder_legs.append(ChordLeg(self.x_pos, m_pos))
        self.partner_legs.append(ArcLeg(self.start, m_arc, Direction.CW))
        self.meets.append(m_pos)
        return m_arc, m_pos

    def meet_at_n(self, n_point, t_n: float, via: ArcPos) -> None:
        """The finder runs X -> N; the partner sweeps to `via`, then cuts to N."""
        self.finder_legs.append(ChordLeg(self.x_pos, n_point))
        self.partner_legs += [ArcLeg(self.start, via, Direction.CW),
                              ChordLeg(cartesian(via), n_point)]
        self.meets.append(n_point)

    def meet_at_p(self, n_point, p: float):
        """The finder runs X -> N -> P; the partner sweeps on to P."""
        p_arc = ArcPos(-self.b - p)
        p_pos = cartesian(p_arc)
        self.finder_legs += [ChordLeg(self.x_pos, n_point), ChordLeg(n_point, p_pos)]
        self.partner_legs.append(ArcLeg(self.start, p_arc, Direction.CW))
        self.meets.append(p_pos)
        return p_pos

    def done(self, tag: str, f_time: float, p_time: float) -> Outcome:
        f_legs, p_legs = self.finder_legs, self.partner_legs
        if self.mirrored:
            return Outcome(self.x, tag, False, p_time, f_time, mirror_plan(p_legs),
                           mirror_plan(f_legs), [mirror_point(m) for m in self.meets])
        return Outcome(self.x, tag, False, f_time, p_time, f_legs, p_legs, self.meets)

    def joint(self, tag, point, target: ArcPos, time: float):
        """Both robots walk together from the meeting point to target."""
        tp = cartesian(target)
        self.finder_legs.append(ChordLeg(point, tp))
        self.partner_legs.append(ChordLeg(point, tp))
        return self.done(tag, time, time)

    def joint_hop(self, tag, point, t_meet: float, targets):
        """Together from the meeting point to the nearest of (exit, distance)."""
        target, time = _joint_hop(point, t_meet, targets)
        return self.joint(tag, point, target, time)


def _frame(scn: Scenario, b: float) -> _Frame | None:
    """First-finder frame of scn, or None when both robots find at once."""
    (t1, f1, o1), (t2, f2, o2) = first_hits(scn)
    if abs(t1 - t2) <= SIM_TOL:
        return None
    if t2 < t1:
        return _Frame(scn.d, b, True, t2, normalize_angle(-f2), normalize_angle(-o2))
    return _Frame(scn.d, b, False, t1, f1, o1)


def _joint_hop(meet_point, meet_time, targets):
    """Pick the nearest exit from a meeting point; ties go to the first."""
    best_pos, best_w = None, None
    for pos, w in targets:
        if best_w is None or w < best_w - ANGLE_TOL:
            best_pos, best_w = pos, w
    return best_pos, meet_time + best_w


def _by_distance(point, *targets: ArcPos):
    """(target, straight-line distance from point) for each target."""
    return [(t, point_distance(point, cartesian(t))) for t in targets]


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

def _outcome_f2f_same(scn: Scenario) -> Outcome:
    d = scn.d
    f = _frame(scn, 0.0)
    if f is None:
        return _sim_outcome(scn, "same")
    x = f.x
    t_a = f.partner_time(f.ca.theta)  # partner's arrival at the ahead candidate
    y = solve_meeting_xy(x, 0.0)

    def catch(tag: str, t: float) -> Outcome:
        """Catch the partner on the circle at t, then the nearer of X and E2'."""
        _, m_pos = f.meet_on_circle(t)
        return f.joint_hop(tag, m_pos, t, [(f.x_arc, chord_length(x + t)),
                                           (f.ca, chord_length(t_a - t))])

    def separately(tag: str, f_time: float, s_arc: float) -> Outcome:
        """The partner evacuates alone as a second finder at its arc s_arc."""
        s_time, s_legs = _second_finder_same(s_arc, d)
        f.partner_legs = mirror_plan(s_legs)
        return f.done(tag, f_time, s_time)

    if x + y <= d:  # Case 1: catch before the trailing candidate
        m_arc, m_pos = f.meet_on_circle(y)
        if angle_close(m_arc.theta, f.other):
            return f.done("F0-1", y, y)
        w_x = chord_length(x + y)
        hop_cb = chord_length((d - x) - y)
        between = chord_length(min(2.0 * d, TWO_PI))
        if w_x <= hop_cb + between:
            return f.joint("F0-1", m_pos, f.x_arc, y + w_x)
        if f.side == "behind":
            return f.joint("F0-1", m_pos, f.cb, y + hop_cb)
        f.finder_legs.append(ChordLeg(m_pos, f.cb_pos))
        f.partner_legs.append(ChordLeg(m_pos, f.cb_pos))
        return f.joint("F0-1", f.cb_pos, f.ca, y + hop_cb + between)

    if x <= d / 2.0:  # Case 2
        if y <= t_a:  # 2a: the chase is viable
            if f.side == "ahead":
                return catch("F0-2a", y)
            # exit at the trailing candidate: the partner finds it first and
            # intercepts this chase at N (its own case 3a)
            res = _case3_same(d - x, d, trailing_is_exit=True)
            if res.branch != "nmeet":
                raise TraceInvalidError("partner failed to intercept a live chase")
            n_f = mirror_point(res.n_point)
            f.meet_at_n(n_f, res.t_n, f.cb)
            return f.joint_hop("F0-3a", n_f, res.t_n, _by_distance(n_f, f.x_arc, f.cb))
        # 2b: no viable chase, both evacuate separately
        return separately("F0-2b", x, d - x if f.side == "behind" else t_a)

    if x < d:  # Case 3: the trailing candidate may already be explored
        if f.side != "ahead":
            raise TraceInvalidError("first finder in case 3 with a trailing exit")
        res = _case3_same(x, d, trailing_is_exit=False)
        if res.branch == "exit":
            return separately("F0-3b", x, t_a)
        if res.branch == "chase":
            return catch("F0-3a", res.y)
        if res.branch == "pmeet":
            p_pos = f.meet_at_p(res.n_point, res.p)
            return f.joint_hop("F0-3a", p_pos, res.p, _by_distance(p_pos, f.x_arc, f.ca))
        # 'nn': nobody at N and P is out of reach; head for the closest exit
        f.finder_legs.append(ChordLeg(f.x_pos, res.n_point))
        target, f_time = _joint_hop(res.n_point, res.t_n,
                                    _by_distance(res.n_point, f.x_arc, f.ca))
        f.finder_legs.append(ChordLeg(res.n_point, cartesian(target)))
        return separately("F0-3a", f_time, t_a)

    # Case 4: the trailing candidate is in the finder's own swept arc
    if f.side != "ahead":
        raise TraceInvalidError("first finder in case 4 with a trailing exit")
    if y < t_a:
        return catch("F0-4a", y)
    return separately("F0-4c" if t_a >= d - ANGLE_TOL else "F0-4b", x, t_a)


# ---------------------------------------------------------------------------
# zeta = d, unlabeled
# ---------------------------------------------------------------------------

def _outcome_f2f_diff(scn: Scenario) -> Outcome:
    d = scn.d
    b = d / 2.0
    f = _frame(scn, b)
    if f is None:
        return _sim_outcome(scn, "diff")
    x = f.x
    t_a = f.partner_time(f.ca.theta)
    t_x = f.partner_time(f.x_arc.theta)
    y = solve_meeting_xy(x, d)

    if x >= d:  # Case 2: own sweep rules the trailing candidate out
        if f.side != "ahead":
            raise TraceInvalidError("case 2 with an exit at the ruled-out candidate")
        t_stop = min(t_a, t_x)
        if y < t_stop:  # 2c: catch the partner before it reaches any exit
            _, m_pos = f.meet_on_circle(y)
            return f.joint_hop("Fd-2c", m_pos, y, _by_distance(m_pos, f.x_arc, f.ca))
        # 2b: the partner will deduce the layout on its own; exit separately
        f.partner_legs.append(ArcLeg(f.start, ArcPos(-b - t_stop), Direction.CW))
        return f.done("Fd-2b", x, t_stop)

    # Case 1: x < d, the trailing candidate hides in the never-swept gap
    if t_a > y:  # 1a: E2' is not inside arc CM; catch and return to X
        _, m_pos = f.meet_on_circle(y)
        return f.joint("Fd-1a", m_pos, f.x_arc, y + chord_length(d + x + y))
    # 1b / 1c: E2' lies within the partner's pre-catch sweep; N sits on the
    # chord X-E2' where the partner, coming back from E2', meets the finder
    seg = chord_length(d)
    s = min(max((t_a + seg - x) / 2.0, 0.0), seg)
    ux, uy = (f.ca_pos[0] - f.x_pos[0]) / seg, (f.ca_pos[1] - f.x_pos[1]) / seg
    n_point = (f.x_pos[0] + s * ux, f.x_pos[1] + s * uy)
    t_n = x + s
    if f.side == "ahead":  # 1b: both converge on the chord X-E2'
        f.meet_at_n(n_point, t_n, f.ca)
        return f.joint_hop("Fd-2a" if t_a >= d - ANGLE_TOL else "Fd-1b", n_point, t_n,
                           [(f.x_arc, s), (f.ca, seg - s)])
    # other exit is the gap candidate; E2' will turn out empty
    if s <= ANGLE_TOL:
        # the partner swept past E2' long ago; fall back to the plain catch
        if y >= t_x - ANGLE_TOL:
            raise TraceInvalidError("catch point behind the partner's own find")
        _, m_pos = f.meet_on_circle(y)
        return f.joint_hop("Fd-1c", m_pos, y, _by_distance(m_pos, f.x_arc, f.cb))
    p = catch_on_circle_from(n_point, t_n, b)
    if p <= t_x:
        p_pos = f.meet_at_p(n_point, p)
        return f.joint_hop("Fd-1c", p_pos, p, _by_distance(p_pos, f.x_arc, f.cb))
    # Defensive corner: the partner reaches X (a real exit) before P and
    # leaves; the finder carries on alone from P to the closest exit.
    p_pos = cartesian(ArcPos(-b - p))
    f.finder_legs += [ChordLeg(f.x_pos, n_point), ChordLeg(n_point, p_pos)]
    target, f_time = _joint_hop(p_pos, p, _by_distance(p_pos, f.x_arc, f.cb))
    f.finder_legs.append(ChordLeg(p_pos, cartesian(target)))
    f.partner_legs.append(ArcLeg(f.start, f.x_arc, Direction.CW))
    return f.done("Fd-1c", f_time, t_x)


# ---------------------------------------------------------------------------
# labeled exits, generic zeta
# ---------------------------------------------------------------------------

def _outcome_f2f_labeled(scn: Scenario) -> Outcome:
    zeta = scn.zeta
    f = _frame(scn, zeta / 2.0)
    if f is None:
        return _sim_outcome(scn, "labeled")
    x = f.x
    other_arc = ArcPos(f.other)
    t_o = f.partner_time(f.other)
    y = solve_meeting_xy(x, zeta)
    if t_o < x - ANGLE_TOL:
        raise TraceInvalidError("labeled partner should have found the exit first")

    if t_o <= y:
        # The partner reaches the other exit before any catch completes;
        # chasing is hopeless, so both exit where they are headed.
        f.partner_legs.append(ArcLeg(f.start, other_arc, Direction.CW))
        return f.done("FL-2" if f.side == "behind" else "FL-4", x, t_o)
    _, m_pos = f.meet_on_circle(y)
    return f.joint_hop("FL-1" if f.side == "behind" else "FL-3", m_pos, y,
                       [(f.x_arc, chord_length(x + y + zeta)),
                        (other_arc, point_distance(m_pos, cartesian(other_arc)))])


# ---------------------------------------------------------------------------
# simultaneous discovery (mirror-symmetric layouts)
# ---------------------------------------------------------------------------

def _sim_outcome(scn: Scenario, kind: str) -> Outcome:
    b = scn.zeta / 2.0
    (t1, f1, o1), (t2, f2, _) = first_hits(scn)
    x = t1
    r1_exit = ArcPos(f1)
    r2_exit = ArcPos(f2)
    leg1 = [ArcLeg(ArcPos(b), r1_exit, Direction.CCW)]
    leg2 = [ArcLeg(ArcPos(-b), r2_exit, Direction.CW)]

    moving = None
    if kind == "labeled":
        tag = "FL-4" if angle_close(o1, normalize_angle(f1 + scn.d)) else "FL-2"
    else:
        tag = "F0-sim" if kind == "same" else "Fd-sim"
        # Zero travel, or both robots stepped onto the same exit together:
        # both exit in place.
        if not (x <= ANGLE_TOL or angle_close(f1, f2)):
            moving = _sim_first_action(scn, kind, x, f1, o1)
    if moving is None:
        return Outcome(x, tag, True, x, x, leg1, leg2)
    # Both robots run the mirror-image maneuver and collide on the x-axis.
    t_leg = x
    for leg in moving:
        y0, y1 = leg.p0[1], leg.p1[1]
        seg = point_distance(leg.p0, leg.p1)
        if seg <= ANGLE_TOL or y0 * y1 > 0.0:
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
        # the meeting point lies on the symmetry axis, its own mirror image
        return Outcome(x, tag, True, time, time, leg1, mirror_plan(leg1), [cross])
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

_BY_REGIME = {
    Regime.F2F_SAME: _outcome_f2f_same,
    Regime.F2F_DIFF: _outcome_f2f_diff,
    Regime.F2F_LABELED: _outcome_f2f_labeled,
}


def _outcome(scn: Scenario, *accepted: Regime) -> Outcome:
    regime = scn.regime
    if regime not in accepted:
        wanted = " or ".join(r.value for r in accepted)
        raise WrongEvaluatorError(
            f"a {regime.value} scenario sent to the face-to-face {wanted} evaluator")
    return _BY_REGIME[regime](scn)


def eval_f2f_same(scn: Scenario) -> Outcome:
    return _outcome(scn, Regime.F2F_SAME)


def eval_f2f_diff(scn: Scenario) -> Outcome:
    return _outcome(scn, Regime.F2F_DIFF)


def eval_f2f_labeled(scn: Scenario) -> Outcome:
    return _outcome(scn, Regime.F2F_LABELED)


def plan_f2f(scn: Scenario) -> Outcome:
    """Outcome of any face-to-face scenario, for the replay oracle."""
    return _outcome(scn, *_BY_REGIME)


def worst_f2f(d: float, variant: str, exit_step: float, zeta_policy="0"):
    """Worst realized time over the exit grid: (time, argmax_e1, case_tag)."""
    from . import _batch

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
