"""Wireless-model evacuation: broadcast-on-find dispatch, labeled variant too.

Both robots sweep the perimeter in opposite directions from their start
points.  The first robot to step on an exit broadcasts; the receiver
reconstructs the finder's position from speed symmetry, classifies the
two probable exit positions against the already-swept arcs, and walks the
shortest guaranteed chord route.  Messages are instantaneous and
reliable.  The route is planned in the first finder's frame
(scenarios.Frame, shared with the face-to-face model).
"""

from __future__ import annotations

from .geometry import (
    ANGLE_TOL,
    COINCIDENT_D,
    SNAP_TOL,
    TWO_PI,
    ArcPos,
    cartesian,
    chord_length,
    normalize_angle,
)
from .plans import ChordLeg, Outcome
from .scenarios import (
    Frame,
    Regime,
    Scenario,
    TraceInvalidError,
    candidates_coincide,
    evaluate,
    resolve_zeta,
    routed,
)

TAG_SIM = "W-sim"
TAG_W1A, TAG_W1B, TAG_W1C = "W1a", "W1b", "W1c"
TAG_W2, TAG_W3A, TAG_W3B = "W2", "W3a", "W3b"
TAG_L1, TAG_L2 = "WL-L1", "WL-L2"


def _wireless_outcome(scn: Scenario) -> Outcome:
    f = Frame(scn)
    if f.sim:
        return f.in_place(TAG_SIM)
    # The receiver sits at D when the message arrives, at the finder's time x.
    b, x, X, other, d = f.b, f.x, f.found, f.other, scn.d
    D = f.partner_at(x)
    f.sweep_partner(D)

    def chord_from_d(theta: float) -> float:
        return chord_length(normalize_angle(theta - D.theta))

    def swept_by_finder(c: float) -> bool:
        return normalize_angle(c - b) <= x + SNAP_TOL

    def swept_by_receiver(c: float) -> bool:
        return normalize_angle(-b - c) <= x + SNAP_TOL

    def in_gap(c: float) -> bool:
        u = normalize_angle(c + b)
        return ANGLE_TOL < u < scn.zeta - ANGLE_TOL

    def walk(*stops: float) -> None:
        """The receiver's chords from D through the stops, in order."""
        at = cartesian(D)
        for theta in stops:
            nxt = cartesian(ArcPos(theta))
            f.partner_legs.append(ChordLeg(at, nxt))
            at = nxt

    if scn.labeled:
        if d >= COINCIDENT_D and swept_by_finder(other):
            raise TraceInvalidError("labeled other exit inside a swept arc")
        w_x, w_o = chord_from_d(X), chord_from_d(other)
        target, length = (X, w_x) if w_x <= w_o else (other, w_o)
        walk(target)
        return f.outcome(TAG_L2 if in_gap(other) else TAG_L1, x, x + length)

    if d < COINCIDENT_D:
        # Coincident exits: both candidates equal X, which is certain.
        walk(X)
        return f.outcome(TAG_W3B, x, x + chord_from_d(X))

    cb, ca = f.cb.theta, f.ca.theta

    ruled_b = swept_by_finder(cb) or swept_by_receiver(cb)
    ruled_a = swept_by_finder(ca) or swept_by_receiver(ca)
    if ruled_b and ruled_a:
        raise TraceInvalidError("both probable exits ruled out; no layout does this")
    w_x = chord_from_d(X)

    if not ruled_b and not ruled_a:
        between = chord_length(min(2.0 * d, TWO_PI))  # chord E1'E2', 2*sin(d)
        w_b = chord_from_d(cb) + between
        w_a = chord_from_d(ca) + between
        if min(w_x, w_b, w_a) == w_x:
            walk(X)
            time = x + w_x
        else:
            first, second = (cb, ca) if w_b <= w_a else (ca, cb)
            if (w_b > w_a) == f.ahead or candidates_coincide(d):  # exit at first, or at both
                walk(first)
                time = x + chord_from_d(first)
            else:
                walk(first, second)
                time = x + chord_from_d(first) + between
        gap_b, gap_a = in_gap(cb), in_gap(ca)
        if not gap_b and not gap_a:
            return f.outcome(TAG_W1A, x, time)
        return f.outcome(TAG_W1C if gap_b and gap_a else TAG_W1B, x, time)

    certain = cb if ruled_a else ca
    w_c = chord_from_d(certain)
    walk(X if w_x <= w_c else certain)
    if ruled_a:
        tag = TAG_W2
    else:
        tag = TAG_W3A if swept_by_receiver(cb) else TAG_W3B
    return f.outcome(tag, x, x + min(w_x, w_c))


def eval_wireless_unlabeled(scn: Scenario) -> Outcome:
    routed(scn, Regime.WIRELESS)
    return _wireless_outcome(scn)


def eval_wireless_labeled(scn: Scenario) -> Outcome:
    routed(scn, Regime.WIRELESS_LABELED)
    return _wireless_outcome(scn)


def plan_wireless(scn: Scenario) -> Outcome:
    """The outcome `evaluate` routes scn to, under its former name."""
    return evaluate(scn)


def worst_wireless(d: float, zeta_policy, labeled: bool, exit_step: float):
    """Worst realized time over the exit grid for one d: (time, argmax_e1, case_tag)."""
    from . import _batch

    regime = Regime.WIRELESS_LABELED if labeled else Regime.WIRELESS
    return _batch.worst_cells([(d, resolve_zeta(zeta_policy, d), regime)], exit_step)[0]
