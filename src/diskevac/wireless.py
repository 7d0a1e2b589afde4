"""Wireless-model evacuation: broadcast-on-find dispatch, labeled variant too.

Both robots sweep the perimeter in opposite directions from their start
points.  The first robot to step on an exit broadcasts; the receiver
reconstructs the finder's position from speed symmetry, classifies the
two probable exit positions against the already-swept arcs, and walks the
shortest guaranteed chord route.  Messages are instantaneous and
reliable.
"""

from __future__ import annotations

from .geometry import (
    ANGLE_TOL,
    TWO_PI,
    ArcPos,
    Direction,
    angle_close,
    cartesian,
    chord_length,
    normalize_angle,
)
from .plans import ArcLeg, ChordLeg, Outcome, mirror_plan
from .scenarios import (
    SIM_TOL,
    Regime,
    Scenario,
    TraceInvalidError,
    WrongEvaluatorError,
    first_hits,
    resolve_zeta,
)

TAG_SIM = "W-sim"
TAG_W1A, TAG_W1B, TAG_W1C = "W1a", "W1b", "W1c"
TAG_W2, TAG_W3A, TAG_W3B = "W2", "W3a", "W3b"
TAG_L1, TAG_L2 = "WL-L1", "WL-L2"


def _wireless_outcome(scn: Scenario) -> Outcome:
    b = scn.zeta / 2.0
    (t1, found1, other1), (t2, found2, other2) = first_hits(scn)

    if abs(t1 - t2) <= SIM_TOL:
        return Outcome(t1, TAG_SIM, True, t1, t1,
                       [ArcLeg(ArcPos(b), ArcPos(found1), Direction.CCW)],
                       [ArcLeg(ArcPos(-b), ArcPos(found2), Direction.CW)])

    mirrored = t2 < t1
    if mirrored:
        x, found, other = t2, normalize_angle(-found2), normalize_angle(-other2)
    else:
        x, found, other = t1, found1, other1

    # Frame: finder starts at +b and sweeps CCW; receiver starts at -b,
    # sweeps CW, and sits at D when the message arrives.
    X = found
    D = normalize_angle(-b - x)

    def chord_from_d(theta: float) -> float:
        return chord_length(normalize_angle(theta - D))

    def swept_by_finder(c: float) -> bool:
        return normalize_angle(c - b) <= x + ANGLE_TOL

    def swept_by_receiver(c: float) -> bool:
        return normalize_angle(-b - c) <= x + ANGLE_TOL

    def in_gap(c: float) -> bool:
        u = normalize_angle(c + b)
        return ANGLE_TOL < u < scn.zeta - ANGLE_TOL

    finder_legs = [ArcLeg(ArcPos(b), ArcPos(X), Direction.CCW)]
    receiver_legs: list = [ArcLeg(ArcPos(-b), ArcPos(D), Direction.CW)]

    if scn.labeled:
        w_x = chord_from_d(X)
        w_o = chord_from_d(other)
        if swept_by_finder(other) and not angle_close(other, X):
            raise TraceInvalidError("labeled other exit inside a swept arc")
        if w_x <= w_o:
            target, length = X, w_x
        else:
            target, length = other, w_o
        receiver_legs.append(ChordLeg(cartesian(ArcPos(D)), cartesian(ArcPos(target))))
        receiver_time = x + length
        tag = TAG_L2 if in_gap(other) else TAG_L1
    else:
        receiver_time, tag = _unlabeled_route(
            scn, x, X, D, other, chord_from_d, swept_by_finder,
            swept_by_receiver, in_gap, receiver_legs,
        )

    if mirrored:
        return Outcome(x, tag, False, receiver_time, x,
                       mirror_plan(receiver_legs), mirror_plan(finder_legs))
    return Outcome(x, tag, False, x, receiver_time, finder_legs, receiver_legs)


def _unlabeled_route(scn, x, X, D, other, chord_from_d, swept_by_finder,
                     swept_by_receiver, in_gap, receiver_legs):
    """Receiver route choice, appended to receiver_legs: (exit time, tag)."""
    d = scn.d
    d_pos = cartesian(ArcPos(D))

    if d < ANGLE_TOL:
        # Coincident exits: both candidates equal X, which is certain.
        receiver_legs.append(ChordLeg(d_pos, cartesian(ArcPos(X))))
        return x + chord_from_d(X), TAG_W3B

    cb = normalize_angle(X - d)  # clockwise-side candidate
    ca = normalize_angle(X + d)  # counterclockwise-side candidate

    def ruled_out(c: float) -> bool:
        if angle_close(c, X):
            return False
        return swept_by_finder(c) or swept_by_receiver(c)

    ruled_b, ruled_a = ruled_out(cb), ruled_out(ca)
    if ruled_b and ruled_a:
        raise TraceInvalidError("both probable exits ruled out; no layout does this")

    w_x = chord_from_d(X)
    between = chord_length(min(2.0 * d, TWO_PI))  # chord E1'E2', 2*sin(d)

    if not ruled_b and not ruled_a:
        w_b = chord_from_d(cb) + between
        w_a = chord_from_d(ca) + between
        best = min(w_x, w_b, w_a)
        if best == w_x:
            receiver_legs.append(ChordLeg(d_pos, cartesian(ArcPos(X))))
            time = x + w_x
        else:
            first, second = (cb, ca) if w_b <= w_a else (ca, cb)
            receiver_legs.append(ChordLeg(d_pos, cartesian(ArcPos(first))))
            if angle_close(other, first):
                time = x + chord_from_d(first)
            else:
                receiver_legs.append(
                    ChordLeg(cartesian(ArcPos(first)), cartesian(ArcPos(second)))
                )
                time = x + chord_from_d(first) + between
        gap_b, gap_a = in_gap(cb), in_gap(ca)
        if not gap_b and not gap_a:
            tag = TAG_W1A
        elif gap_b and gap_a:
            tag = TAG_W1C
        else:
            tag = TAG_W1B
        return time, tag

    certain = cb if ruled_a else ca
    if not angle_close(other, certain):
        raise TraceInvalidError("ruled-out candidate still holds the exit")
    w_c = chord_from_d(certain)
    target = X if w_x <= w_c else certain
    receiver_legs.append(ChordLeg(d_pos, cartesian(ArcPos(target))))
    time = x + min(w_x, w_c)
    if ruled_a:
        tag = TAG_W2
    else:
        tag = TAG_W3A if swept_by_receiver(cb) else TAG_W3B
    return time, tag


def _check(scn: Scenario, labeled: bool):
    if scn.regime is not Regime.WIRELESS:
        raise WrongEvaluatorError("scenario is not a wireless instance")
    if scn.labeled != labeled:
        raise WrongEvaluatorError("labeled flag does not match the evaluator")


def eval_wireless_unlabeled(scn: Scenario) -> Outcome:
    _check(scn, labeled=False)
    return _wireless_outcome(scn)


def eval_wireless_labeled(scn: Scenario) -> Outcome:
    _check(scn, labeled=True)
    return _wireless_outcome(scn)


def plan_wireless(scn: Scenario) -> Outcome:
    """Outcome of any wireless scenario, for the replay oracle."""
    _check(scn, labeled=scn.labeled)
    return _wireless_outcome(scn)


def worst_wireless(d: float, zeta_policy, labeled: bool, exit_step: float):
    """Worst realized time over the exit-position grid for one d.

    Returns (time, argmax_e1, case_tag); ties resolve to the smallest e1.
    """
    from . import _batch

    if exit_step <= 0.0:
        raise ValueError("exit_step must be positive")
    zeta = resolve_zeta(zeta_policy, d)
    times, codes = _batch.batch_wireless(d, zeta, labeled, _batch.exit_grid(exit_step))
    i = int(times.argmax())
    return float(times[i]), ArcPos(i * exit_step), _batch.decode_tag(codes[i])
