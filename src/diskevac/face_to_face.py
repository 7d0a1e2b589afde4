"""Face-to-face evacuation policies: zeta = 0, zeta = d, and labeled exits.

Information travels only through co-location, so a finder either exits in
place or intercepts its partner: on the circle at the catch point M, on a
known chase chord at the equal-elapsed point N, or (after a miss at N) at
the recomputed on-circle point P.  The dispatcher always works in the
first finder's frame (scenarios.Frame, shared with the wireless model):
scenarios where R2 finds first are mirrored across the x-axis and mapped
back afterwards.

Realized times for the actual exit layout are returned, not per-case
worst-case expressions; worst cases emerge from the sweep module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    WrongEvaluatorError,
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
    p = meeting.catch_on_circle_arr(np.array([point[0]]), np.array([point[1]]),
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
    m = meeting.solve_meeting(phi, 0.0)
    if m >= TWO_PI - 2.0 * d + a:
        return _Case3("exit")
    q = cartesian(ArcPos(a))
    p0 = cartesian(ArcPos(-phi))
    p1 = cartesian(ArcPos(m))
    slack = 1e-7 if trailing_is_exit else 0.0
    hit = intercept_moving_target(q, a, p0, phi, p1, slack=slack)
    if hit is None:
        y = meeting.solve_meeting(a, 0.0)
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
# face-to-face meetings in the first finder's frame
# ---------------------------------------------------------------------------

class _Frame(Frame):
    """The shared first-finder frame plus the face-to-face meeting moves."""

    def meet_on_circle(self, t_meet: float):
        """The finder cuts straight to the partner's spot at t_meet (catch M)."""
        m_arc = self.partner_at(t_meet)
        m_pos = cartesian(m_arc)
        self.finder_legs.append(ChordLeg(self.x_pos, m_pos))
        self.sweep_partner(m_arc)
        self.meets.append(m_pos)
        return m_arc, m_pos

    def meet_at_n(self, n_point, via: ArcPos) -> None:
        """The finder runs X -> N; the partner sweeps to `via`, then cuts to N."""
        self.finder_legs.append(ChordLeg(self.x_pos, n_point))
        self.sweep_partner(via)
        self.partner_legs.append(ChordLeg(cartesian(via), n_point))
        self.meets.append(n_point)

    def meet_at_p(self, n_point, p: float):
        """The finder runs X -> N -> P; the partner sweeps on to P."""
        p_arc = self.partner_at(p)
        p_pos = cartesian(p_arc)
        self.finder_legs += [ChordLeg(self.x_pos, n_point), ChordLeg(n_point, p_pos)]
        self.sweep_partner(p_arc)
        self.meets.append(p_pos)
        return p_pos

    def n_on_chord(self, t_a: float):
        """(N, s, chord): N sits s along chord X-E2', where a partner that
        reached E2' at t_a and came back meets the finder (zeta = d)."""
        seg = chord_length(self.d)
        s = min(max((t_a + seg - self.x) / 2.0, 0.0), seg)
        x_pos, ca_pos = self.x_pos, self.ca_pos
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
        target, time = _joint_hop(point, t_meet, targets)
        return self.joint(tag, point, target, time)


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


# ---------------------------------------------------------------------------
# zeta = 0, unlabeled
# ---------------------------------------------------------------------------

def _outcome_f2f_same(scn: Scenario) -> Outcome:
    d = scn.d
    f = _Frame(scn)
    if f.sim:
        return _sim_outcome(f, "same")
    x = f.x
    t_a = f.partner_time(f.ca.theta)  # partner's arrival at the ahead candidate
    y = meeting.solve_meeting(x, 0.0)

    def catch(tag: str, t: float) -> Outcome:
        """Catch the partner on the circle at t, then the nearer of X and E2'."""
        _, m_pos = f.meet_on_circle(t)
        return f.joint_hop(tag, m_pos, t, [(f.x_arc, chord_length(x + t)),
                                           (f.ca, chord_length(t_a - t))])

    def separately(tag: str, f_time: float, s_arc: float) -> Outcome:
        """The partner evacuates alone as a second finder at its arc s_arc."""
        s_time, s_legs = _second_finder_same(s_arc, d)
        f.partner_legs = mirror_plan(s_legs)
        return f.outcome(tag, f_time, s_time)

    if x + y <= d:  # Case 1: catch before the trailing candidate
        m_arc, m_pos = f.meet_on_circle(y)
        if angle_close(m_arc.theta, f.other):
            return f.outcome("F0-1", y, y)
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
            f.meet_at_n(n_f, f.cb)
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
    f = _Frame(scn)
    if f.sim:
        return _sim_outcome(f, "diff")
    x = f.x
    t_a = f.partner_time(f.ca.theta)
    t_x = f.partner_time(f.x_arc.theta)
    y = meeting.solve_meeting(x, d)

    if x >= d:  # Case 2: own sweep rules the trailing candidate out
        if f.side != "ahead":
            raise TraceInvalidError("case 2 with an exit at the ruled-out candidate")
        t_stop = min(t_a, t_x)
        if y < t_stop:  # 2c: catch the partner before it reaches any exit
            _, m_pos = f.meet_on_circle(y)
            return f.joint_hop("Fd-2c", m_pos, y, _by_distance(m_pos, f.x_arc, f.ca))
        # 2b: the partner will deduce the layout on its own; exit separately
        f.sweep_partner(f.partner_at(t_stop))
        return f.outcome("Fd-2b", x, t_stop)

    # Case 1: x < d, the trailing candidate hides in the never-swept gap
    if t_a > y:  # 1a: E2' is not inside arc CM; catch and return to X
        _, m_pos = f.meet_on_circle(y)
        return f.joint("Fd-1a", m_pos, f.x_arc, y + chord_length(d + x + y))
    # 1b / 1c: E2' lies within the partner's pre-catch sweep; N sits on the
    # chord X-E2' where the partner, coming back from E2', meets the finder
    n_point, s, seg = f.n_on_chord(t_a)
    t_n = x + s
    if f.side == "ahead":  # 1b: both converge on the chord X-E2'
        f.meet_at_n(n_point, f.ca)
        return f.joint_hop("Fd-2a" if t_a >= d - ANGLE_TOL else "Fd-1b", n_point, t_n,
                           [(f.x_arc, s), (f.ca, seg - s)])
    # other exit is the gap candidate; E2' will turn out empty
    if s <= ANGLE_TOL:
        # the partner swept past E2' long ago; fall back to the plain catch
        if y >= t_x - ANGLE_TOL:
            raise TraceInvalidError("catch point behind the partner's own find")
        _, m_pos = f.meet_on_circle(y)
        return f.joint_hop("Fd-1c", m_pos, y, _by_distance(m_pos, f.x_arc, f.cb))
    p = catch_on_circle_from(n_point, t_n, f.b)
    if p <= t_x:
        p_pos = f.meet_at_p(n_point, p)
        return f.joint_hop("Fd-1c", p_pos, p, _by_distance(p_pos, f.x_arc, f.cb))
    # Defensive corner: the partner reaches X (a real exit) before P and
    # leaves; the finder carries on alone from P to the closest exit.
    p_pos = cartesian(f.partner_at(p))
    f.finder_legs += [ChordLeg(f.x_pos, n_point), ChordLeg(n_point, p_pos)]
    target, f_time = _joint_hop(p_pos, p, _by_distance(p_pos, f.x_arc, f.cb))
    f.finder_legs.append(ChordLeg(p_pos, cartesian(target)))
    f.sweep_partner(f.x_arc)
    return f.outcome("Fd-1c", f_time, t_x)


# ---------------------------------------------------------------------------
# labeled exits, generic zeta
# ---------------------------------------------------------------------------

def _outcome_f2f_labeled(scn: Scenario) -> Outcome:
    zeta = scn.zeta
    f = _Frame(scn)
    if f.sim:
        return f.in_place("FL-2" if f.side == "behind" else "FL-4")
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
        return f.outcome("FL-2" if f.side == "behind" else "FL-4", x, t_o)
    _, m_pos = f.meet_on_circle(y)
    return f.joint_hop("FL-1" if f.side == "behind" else "FL-3", m_pos, y,
                       [(f.x_arc, chord_length(x + y + zeta)),
                        (other_arc, point_distance(m_pos, cartesian(other_arc)))])


# ---------------------------------------------------------------------------
# simultaneous discovery (mirror-symmetric layouts)
# ---------------------------------------------------------------------------

def _sim_outcome(f: _Frame, kind: str) -> Outcome:
    tag = "F0-sim" if kind == "same" else "Fd-sim"
    # Zero travel, or both robots stepped onto the same exit together:
    # both exit in place.
    if f.x <= ANGLE_TOL or angle_close(f.found, f.r2_find):
        return f.in_place(tag)
    moving = _sim_first_action(f, kind)
    if moving is None:
        return f.in_place(tag)
    # Both robots run the mirror-image maneuver and collide on the x-axis;
    # a leg ending on the axis (rounding may leave it a hair short) meets there.
    leg1 = f.finder_legs
    t_leg = f.x
    for leg in moving:
        y0, y1 = leg.p0[1], leg.p1[1]
        seg = point_distance(leg.p0, leg.p1)
        if seg <= ANGLE_TOL or (y0 * y1 > 0.0 and abs(y1) > ANGLE_TOL):
            t_leg += seg
            leg1.append(leg)
            continue
        u = abs(y0) / (abs(y0) + abs(y1)) if (abs(y0) + abs(y1)) > 0 else 0.0
        cross = (leg.p0[0] + u * (leg.p1[0] - leg.p0[0]), 0.0)
        tau = t_leg + u * seg
        leg1.append(ChordLeg(leg.p0, cross))
        r2_exit = ArcPos(f.r2_find)
        w_a, w_b = point_distance(cross, f.x_pos), point_distance(cross, cartesian(r2_exit))
        target = f.x_arc if w_a <= w_b else r2_exit
        leg1.append(ChordLeg(cross, cartesian(target)))
        time = tau + min(w_a, w_b)
        # the meeting point lies on the symmetry axis, its own mirror image
        return Outcome(f.x, tag, True, time, time, leg1, mirror_plan(leg1), [cross])
    raise TraceInvalidError("symmetric maneuvers never crossed the axis")


def _sim_first_action(f: _Frame, kind: str):
    """Moving legs (if any) of R1's dispatch for a simultaneous find."""
    d, x, x_pos = f.d, f.x, f.x_pos
    t_a = f.partner_time(f.found + d)
    if kind == "same":
        y = meeting.solve_meeting(x, 0.0)
        if x + y <= d or (x <= d / 2.0 and y <= t_a) or (x >= d and y < t_a):
            return [ChordLeg(x_pos, cartesian(f.partner_at(y)))]
        if d / 2.0 < x < d:
            res = _case3_same(x, d, trailing_is_exit=False)
            if res.branch == "chase":
                return [ChordLeg(x_pos, cartesian(f.partner_at(res.y)))]
            if res.branch in ("pmeet", "nn", "nmeet"):
                legs = [ChordLeg(x_pos, res.n_point)]
                if res.p is not None:
                    legs.append(ChordLeg(res.n_point, cartesian(f.partner_at(res.p))))
                return legs
        return None
    # kind == "diff"
    y = meeting.solve_meeting(x, d)
    if x >= d:
        t_x = f.partner_time(f.found)
        return [ChordLeg(x_pos, cartesian(f.partner_at(y)))] if y < min(t_a, t_x) else None
    if t_a > y:
        return [ChordLeg(x_pos, cartesian(f.partner_at(y)))]
    return [ChordLeg(x_pos, f.n_on_chord(t_a)[0])]


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
