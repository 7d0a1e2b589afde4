"""Face-to-face evacuation policies: zeta = 0, zeta = d, and labeled exits.

Information travels only through co-location, so a finder either exits in
place or intercepts its partner: on the circle at the catch point M, on a
known chase chord at the equal-elapsed point N, or (after a miss at N) at
the recomputed on-circle point P.  The dispatcher always works in the
first finder's frame (scenarios.Frame, shared with the wireless model):
scenarios where R2 finds first are mirrored across the x-axis and mapped
back afterwards.

Until it first meets its partner, an unlabeled first finder knows only x,
d, zeta, its find X and the two candidates d either side of X.  One
function of exactly that, `_finder_plan`, decides its moves; the two
dispatchers and the simultaneous-find outcome all draw from it, and only
the partner's moves and what both do after meeting read the true layout.

Realized times for the actual exit layout are returned, not per-case
worst-case expressions; worst cases emerge from the sweep module.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import meeting
from .geometry import (
    ANGLE_TOL,
    TWO_PI,
    ArcPos,
    Direction,
    angle_close,
    cartesian,
    chord_length,
    point_distance,
)
from .plans import ArcLeg, ChordLeg, Outcome, mirror_plan, mirror_point
from .scenarios import (
    Frame,
    Regime,
    Scenario,
    TraceInvalidError,
    evaluate,
    resolve_zeta,
    routed,
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
    Returns (point, time, s_along_segment) or None on a miss.  Lengths are
    np.hypot's, as in _batch._intercept_arr, so the twins round alike.
    """
    ux, uy = target_p1[0] - target_p0[0], target_p1[1] - target_p0[1]
    seg_len = float(np.hypot(ux, uy))
    delta = target_t0 - chaser_t0
    lateness = float(np.hypot(chaser_q[0] - target_p1[0],
                              chaser_q[1] - target_p1[1])) - (seg_len + delta)
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


def _case3_same(a: float, d: float, m: float | None = None, slack: float = 0.0):
    """zeta = 0 case 3 in the dancer's own frame (d/2 < a < d): go, hit.

    The dancer found an exit at arc a.  Its trailing candidate sits at
    partner-arc d - a; had the partner found an exit there, it would now
    be chasing the dancer along the chord toward the on-circle point M'
    (catch-up root m, solved for unless the caller already holds it).
    go is False when M' comes too late for that chase; then hit is None.
    Otherwise hit is the dancer's interception (N, t_N, s) of that chase,
    or None on a miss.  Twin of _batch._case3_arr.
    """
    phi = d - a
    if m is None:
        m = meeting.solve_meeting(phi, 0.0)
    if m >= TWO_PI - 2.0 * d + a:
        return False, None
    start = (math.cos(-phi), math.sin(-phi))  # unwrapped, as the kernel's _point(-phi)
    return True, intercept_moving_target(cartesian(ArcPos(a)), a, start, phi,
                                         cartesian(ArcPos(m)), slack)


def _second_finder_same(a: float, d: float):
    """Exit time and legs of a second finder (zeta = 0) in its own frame.

    Twin of _batch._second_exit_arr.  A second finder never meets anyone:
    in its case-3 dance it finds nobody at N and heads for the nearer of
    its own exit and the candidate ahead of it; otherwise it exits in
    place.  Its chase and P gates, which compare against the partner's
    arrival at the candidate ahead, never open: that arrival already
    happened (a test checks this on the 0.001 exit grid).
    """
    legs: list = [ArcLeg(ArcPos(0.0), ArcPos(a), Direction.CCW)]
    if d / 2.0 < a < d - ANGLE_TOL:
        _, hit = _case3_same(a, d)
        if hit:
            n_point, t_n, _ = hit
            (own, w_own), (ca, w_ca) = _by_distance(n_point, ArcPos(a), ArcPos(a + d))
            target, hop = (own, w_own) if w_own <= w_ca else (ca, w_ca)
            legs += [ChordLeg(cartesian(own), n_point), ChordLeg(n_point, cartesian(target))]
            return t_n + hop, legs
    return a, legs


# ---------------------------------------------------------------------------
# the first finder's plan, from what it knows
# ---------------------------------------------------------------------------

class _Plan(NamedTuple):
    """A first finder's moves after its find X, up to its first meeting.

    It walks X -> stops[0] -> stops[1] ..., each stop a (point, arrival
    time).  With `meet` set the partner is due on the circle at the last
    stop; otherwise the last stop is an exit, and no stops means it exits
    in place.  `tag` names the policy case the walk follows.
    """

    tag: str
    stops: tuple = ()
    meet: bool = False


class _Frame(Frame):
    """The shared first-finder frame plus the face-to-face meeting moves."""

    def walk(self, stops):
        """The finder walks X -> each stop; returns the last (point, time)."""
        at = self.x_pos
        for point, _ in stops:
            self.finder_legs.append(ChordLeg(at, point))
            at = point
        return stops[-1]

    def meet(self, stops):
        """The finder walks the stops; the partner sweeps on to the last, where both meet."""
        point, t = self.walk(stops)
        self.sweep_partner(self.partner_at(t))
        self.meets.append(point)
        return point, t

    def meet_at_n(self, n_point, via: ArcPos) -> None:
        """The finder runs X -> N; the partner sweeps to `via`, then cuts to N."""
        self.finder_legs.append(ChordLeg(self.x_pos, n_point))
        self.sweep_partner(via)
        self.partner_legs.append(ChordLeg(cartesian(via), n_point))
        self.meets.append(n_point)

    def n_on_chord(self, t_a: float):
        """(N, s, chord): N sits s along chord X-E2', where a partner that
        reached E2' at t_a and came back meets the finder (zeta = d)."""
        seg = chord_length(self.d)
        s = min(max((t_a + seg - self.x) / 2.0, 0.0), seg)
        x_pos, ca_pos = self.x_pos, cartesian(self.ca)
        ux, uy = (ca_pos[0] - x_pos[0]) / seg, (ca_pos[1] - x_pos[1]) / seg
        return (x_pos[0] + s * ux, x_pos[1] + s * uy), s, seg

    def joint(self, tag, point, target: ArcPos, time: float):
        """Both robots walk together from the meeting point to target."""
        tp = cartesian(target)
        self.finder_legs.append(ChordLeg(point, tp))
        self.partner_legs.append(ChordLeg(point, tp))
        return self.outcome(tag, time, time)

    def joint_hop(self, tag, point, t_meet: float, targets):
        """Together from the meeting point to the nearest of (exit, distance)."""
        target, time = _joint_hop(t_meet, targets)
        return self.joint(tag, point, target, time)


def _joint_hop(meet_time, targets):
    """Nearest of the (exit, distance) targets; an exact tie goes to the first."""
    best_pos, best_w = min(targets, key=lambda target: target[1])
    return best_pos, meet_time + best_w


def _by_distance(point, *targets: ArcPos):
    """(target, straight-line distance from point) for each target."""
    return [(t, point_distance(point, cartesian(t))) for t in targets]


def _finder_plan(f: _Frame, same: bool) -> _Plan:
    """The unlabeled first finder's moves (zeta = 0 if same, else zeta = d).

    Decided from x, d, zeta, X and the candidates `ca`, `cb` alone: the
    other exit, and so `f.other` and `f.ahead`, stay unread.  A layout with
    the other exit at the other candidate gets the same moves; there a
    partner who knows more may only meet the finder sooner, on its way.
    """
    d, x = f.d, f.x
    t_a = f.partner_time(f.ca.theta)  # partner's arrival at the ahead candidate
    y = meeting.solve_meeting(x, 0.0 if same else d)

    def catch(tag: str) -> _Plan:
        """Cut straight to the partner's spot at y (catch M)."""
        return _Plan(tag, ((cartesian(f.partner_at(y)), y),), True)

    if not same:
        t_x = f.partner_time(f.x_arc.theta)
        if x >= d:  # Case 2: own sweep rules the trailing candidate out
            # 2c: catch the partner before it reaches any exit; 2b: exit
            return catch("Fd-2c") if y < min(t_a, t_x) else _Plan("Fd-2b")
        # Case 1: x < d, the trailing candidate hides in the never-swept gap
        if y < t_a:  # 1a: E2' is not inside arc CM; catch and return to X
            return catch("Fd-1a")
        # 1b / 1c: E2' lies within the partner's pre-catch sweep; N sits on
        # the chord X-E2' where the partner, back from E2', would meet the
        # finder.  Nobody there: the exit is the gap candidate; catch at P.
        n_point, s, _ = f.n_on_chord(t_a)
        if s <= ANGLE_TOL:  # the partner swept past E2' long ago: plain catch
            return catch("Fd-1c")
        t_n = x + s
        # P comes no later than X: the P-catch residual at the partner's
        # time to X is t_x - t_n - s >= d - 2*sin(d/2) >= 0
        p = meeting.catch_on_circle(*n_point, t_n, f.b)
        return _Plan("Fd-1c", ((n_point, t_n), (cartesian(f.partner_at(p)), p)), True)

    if x + y <= d:  # Case 1: catch before the trailing candidate
        return catch("F0-1")
    if x <= d / 2.0:  # Case 2: chase if it is viable (2a), else exit (2b)
        return catch("F0-2a") if y <= t_a else _Plan("F0-2b")
    if x < d:  # Case 3: the trailing candidate may already be explored
        go, hit = _case3_same(x, d)
        if not go:
            return _Plan("F0-3b")
        if hit:  # nobody at N: catch the partner at P, else the nearer exit
            n_point, t_n, _ = hit
            p = meeting.catch_on_circle(*n_point, t_n, 0.0)
            if p < t_a:
                return _Plan("F0-3a", ((n_point, t_n), (cartesian(f.partner_at(p)), p)), True)
            target, time = _joint_hop(t_n, _by_distance(n_point, f.x_arc, f.ca))
            return _Plan("F0-3a", ((n_point, t_n), (cartesian(target), time)))
        tags = ("F0-3a", "F0-3b")  # missed N: chase on the circle, or exit
    else:  # Case 4: X - d is in the finder's own sweep, so the exit is ahead: t_a >= x >= d
        tags = ("F0-4a", "F0-4c")
    return catch(tags[0]) if y < t_a else _Plan(tags[1])


# ---------------------------------------------------------------------------
# zeta = 0, unlabeled
# ---------------------------------------------------------------------------

def _outcome_f2f_same(scn: Scenario) -> Outcome:
    d = scn.d
    f = _Frame(scn)
    if f.sim:
        return _sim_outcome(f, True)
    x = f.x
    t_a = f.partner_time(f.ca.theta)
    plan = _finder_plan(f, True)
    behind = not f.ahead

    def separately(f_time: float, s_arc: float) -> Outcome:
        """The partner evacuates alone as a second finder at its arc s_arc."""
        s_time, s_legs = _second_finder_same(s_arc, d)
        f.partner_legs = mirror_plan(s_legs)
        return f.outcome(plan.tag, f_time, s_time)

    if not plan.stops:  # exit in place
        # behind (2b): the partner at d - x never dances, as its go needs this
        # chase's root y < 2*pi - 2d + (d - x) = t_a, which 2b denies
        return separately(x, d - x if behind else t_a)
    if not plan.meet:  # nobody at N and P out of reach: the nearer exit
        return separately(f.walk(plan.stops)[1], t_a)
    if behind and plan.tag == "F0-2a":
        # exit at the trailing candidate: the partner finds it first and
        # intercepts this chase at N (its own case 3, with this chase's root)
        _, hit = _case3_same(d - x, d, m=plan.stops[0][1], slack=1e-7)
        if hit is None:
            raise TraceInvalidError("partner failed to intercept a live chase")
        n_f = mirror_point(hit[0])
        f.meet_at_n(n_f, f.cb)
        return f.joint_hop("F0-3a", n_f, hit[1], _by_distance(n_f, f.x_arc, f.cb))
    point, t = f.meet(plan.stops)
    if len(plan.stops) > 1:  # met at P: the nearer of X and E2'
        return f.joint_hop(plan.tag, point, t, _by_distance(point, f.x_arc, f.ca))
    if plan.tag != "F0-1":  # met at M: the nearer of X and E2'
        return f.joint_hop(plan.tag, point, t, [(f.x_arc, chord_length(x + t)),
                                                (f.ca, chord_length(t_a - t))])
    # Case 1: met before the trailing candidate; X or the candidate tour
    if angle_close(f.partner_at(t).theta, f.other):
        return f.outcome("F0-1", t, t)
    w_x = chord_length(x + t)
    hop_cb = chord_length((d - x) - t)
    between = chord_length(min(2.0 * d, TWO_PI))
    if w_x <= hop_cb + between:
        return f.joint("F0-1", point, f.x_arc, t + w_x)
    if behind:
        return f.joint("F0-1", point, f.cb, t + hop_cb)
    cb_pos = cartesian(f.cb)
    f.finder_legs.append(ChordLeg(point, cb_pos))
    f.partner_legs.append(ChordLeg(point, cb_pos))
    return f.joint("F0-1", cb_pos, f.ca, t + hop_cb + between)


# ---------------------------------------------------------------------------
# zeta = d, unlabeled
# ---------------------------------------------------------------------------

def _outcome_f2f_diff(scn: Scenario) -> Outcome:
    d = scn.d
    f = _Frame(scn)
    if f.sim:
        return _sim_outcome(f, False)
    x = f.x
    t_a = f.partner_time(f.ca.theta)
    t_x = f.partner_time(f.x_arc.theta)
    plan = _finder_plan(f, False)

    if not plan.stops:  # 2b: the partner will deduce the layout on its own
        t_stop = min(t_a, t_x)
        f.sweep_partner(f.partner_at(t_stop))
        return f.outcome("Fd-2b", x, t_stop)
    if plan.tag == "Fd-1c" and f.ahead:
        # 1b: the partner found E2' and, coming back, meets the finder at N
        n_point, s, seg = f.n_on_chord(t_a)
        f.meet_at_n(n_point, f.ca)
        return f.joint_hop("Fd-2a" if t_a >= d - ANGLE_TOL else "Fd-1b", n_point, x + s,
                           [(f.x_arc, s), (f.ca, seg - s)])
    point, t = f.meet(plan.stops)
    if plan.tag == "Fd-1a":  # E2' may still be ahead of the partner: back to X
        return f.joint("Fd-1a", point, f.x_arc, t + chord_length(d + x + t))
    other = f.ca if plan.tag == "Fd-2c" else f.cb
    return f.joint_hop(plan.tag, point, t, _by_distance(point, f.x_arc, other))


# ---------------------------------------------------------------------------
# labeled exits, generic zeta
# ---------------------------------------------------------------------------

def _outcome_f2f_labeled(scn: Scenario) -> Outcome:
    zeta = scn.zeta
    f = _Frame(scn)
    if f.sim:
        return f.in_place("FL-4" if f.ahead else "FL-2")
    x = f.x
    other_arc = ArcPos(f.other)
    t_o = f.partner_time(f.other)
    y = meeting.solve_meeting(x, zeta)
    if t_o < x - ANGLE_TOL:
        raise TraceInvalidError("labeled partner should have found the exit first")

    if t_o <= y:
        # The partner reaches the other exit before any catch completes;
        # chasing is hopeless, so both exit where they are headed.
        f.sweep_partner(other_arc)
        return f.outcome("FL-4" if f.ahead else "FL-2", x, t_o)
    m_pos, _ = f.meet(((cartesian(f.partner_at(y)), y),))
    return f.joint_hop("FL-3" if f.ahead else "FL-1", m_pos, y,
                       [(f.x_arc, chord_length(x + y + zeta)),
                        (other_arc, point_distance(m_pos, cartesian(other_arc)))])


# ---------------------------------------------------------------------------
# simultaneous discovery (mirror-symmetric layouts)
# ---------------------------------------------------------------------------

def _sim_outcome(f: _Frame, same: bool) -> Outcome:
    tag = "F0-sim" if same else "Fd-sim"
    # Zero travel, or both robots stepped onto the same exit together:
    # both exit in place.
    if f.x <= ANGLE_TOL or angle_close(f.found, f.r2_find):
        return f.in_place(tag)
    plan = _finder_plan(f, same)
    if not plan.stops:
        return f.in_place(tag)
    # Each robot follows its own plan, the mirror image of the other's, so
    # they meet where the plan first crosses the x-axis; a leg ending on the
    # axis (rounding may leave it a hair short) meets there.
    leg1, at, t_leg = f.finder_legs, f.x_pos, f.x
    for point, _ in plan.stops:
        y0, y1 = at[1], point[1]
        seg = point_distance(at, point)
        if seg <= ANGLE_TOL or (y0 * y1 > 0.0 and abs(y1) > ANGLE_TOL):
            t_leg += seg
            leg1.append(ChordLeg(at, point))
            at = point
            continue
        u = abs(y0) / (abs(y0) + abs(y1)) if (abs(y0) + abs(y1)) > 0 else 0.0
        cross = (at[0] + u * (point[0] - at[0]), 0.0)
        tau = t_leg + u * seg
        leg1.append(ChordLeg(at, cross))
        r2_exit = ArcPos(f.r2_find)
        w_a, w_b = point_distance(cross, f.x_pos), point_distance(cross, cartesian(r2_exit))
        target = f.x_arc if w_a <= w_b else r2_exit
        leg1.append(ChordLeg(cross, cartesian(target)))
        time = tau + min(w_a, w_b)
        # the meeting point lies on the symmetry axis, its own mirror image
        return Outcome(f.x, tag, True, time, time, leg1, mirror_plan(leg1), [cross])
    if plan.meet:
        raise TraceInvalidError("symmetric maneuvers never crossed the axis")
    # the plan ends on an exit on the finder's side: each leaves there alone
    time = plan.stops[-1][1]
    return Outcome(f.x, tag, True, time, time, leg1, mirror_plan(leg1))


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------

def eval_f2f_same(scn: Scenario) -> Outcome:
    routed(scn, Regime.F2F_SAME)
    return _outcome_f2f_same(scn)


def eval_f2f_diff(scn: Scenario) -> Outcome:
    routed(scn, Regime.F2F_DIFF)
    return _outcome_f2f_diff(scn)


def eval_f2f_labeled(scn: Scenario) -> Outcome:
    routed(scn, Regime.F2F_LABELED)
    return _outcome_f2f_labeled(scn)


def plan_f2f(scn: Scenario) -> Outcome:
    """The outcome `evaluate` routes scn to, under its former name."""
    return evaluate(scn)


def worst_f2f(d: float, variant: str, exit_step: float, zeta_policy="0"):
    """Worst realized time over the exit grid: (time, argmax_e1, case_tag)."""
    from . import _batch

    if variant not in ("same", "diff", "labeled"):
        raise ValueError(f"unknown face-to-face variant {variant!r}")
    return _batch.worst_cells([(d, resolve_zeta(zeta_policy, d), Regime(variant))], exit_step)[0]
