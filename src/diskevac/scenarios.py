"""Problem instances, their regime, the dispatch to the policy modules and
the first-finder frame both communication models build their plans in."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .geometry import (
    ANGLE_TOL,
    DOMAIN_SLACK,
    SNAP_TOL,
    TWO_PI,
    ArcPos,
    Direction,
    cartesian,
    normalize_angle,
)
from .plans import ArcLeg, Outcome, mirror_plan, mirror_point


class CommModel(Enum):
    WIRELESS = "wireless"
    FACE_TO_FACE = "f2f"


class ScenarioError(ValueError):
    """Invalid problem instance."""


class UnsupportedRegimeError(ScenarioError):
    """zeta > d: no evacuation strategy here, see bounds.wireless_gap_bound."""


class WrongEvaluatorError(ScenarioError):
    """Scenario routed to an evaluator for a different regime, or to none."""


class TraceInvalidError(RuntimeError):
    """A robot plan referenced a meeting that cannot occur (policy bug)."""


@dataclass(frozen=True)
class Scenario:
    """Full problem instance.

    e1 is the position of exit E1; E2 sits at arc distance d counter-
    clockwise of E1 (the labeled convention; for unlabeled evaluation the
    identity of the two exits is irrelevant).  e2 and the regime are
    derived when the scenario is built, as every evaluation reads both;
    a scenario that classify routes to no algorithm is refused there.
    """

    model: CommModel
    labeled: bool
    d: float
    zeta: float
    e1: ArcPos
    e2: ArcPos = field(init=False, repr=False, compare=False)
    regime: Regime = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in (("d", self.d), ("zeta", self.zeta), ("e1", self.e1.theta)):
            if not math.isfinite(value):
                raise ScenarioError(f"{name} = {value} is not finite")
        if not (0.0 <= self.d <= math.pi + DOMAIN_SLACK):
            raise ScenarioError(f"d = {self.d} outside [0, pi]")
        check_zeta(self.d, self.zeta)
        object.__setattr__(self, "e2", self.e1.offset(self.d))
        object.__setattr__(self, "regime", classify(self.model, self.labeled, self.d, self.zeta))


def check_zeta(d: float, zeta: float) -> None:
    """Refuse a start separation zeta that is nan or outside [0, d]."""
    if math.isnan(zeta):
        raise ScenarioError(f"zeta = {zeta} is not finite")
    if zeta < 0.0:
        raise ScenarioError(f"zeta = {zeta} negative")
    if zeta > d + DOMAIN_SLACK:
        raise UnsupportedRegimeError(
            f"zeta = {zeta} exceeds d = {d}; only the "
            "bounds module covers this regime (wireless_gap_bound)"
        )


class Regime(Enum):
    """The paper's five algorithms, one evaluator and one kernel each; values
    name the f2f variants."""

    WIRELESS = "wireless"
    WIRELESS_LABELED = "wireless-labeled"
    F2F_SAME = "same"
    F2F_DIFF = "diff"
    F2F_LABELED = "labeled"


def classify(model: CommModel, labeled: bool, d: float, zeta: float) -> Regime:
    """The algorithm that handles (model, labeled, d, zeta).

    Wireless policies take any zeta, labeled face-to-face too.  Unlabeled
    face-to-face has policies for zeta = 0 and zeta = d only, each within
    ANGLE_TOL; zeta = 0 is tested first, so d = zeta = 0 is F2F_SAME.
    """
    if model is CommModel.WIRELESS:
        return Regime.WIRELESS_LABELED if labeled else Regime.WIRELESS
    if labeled:
        return Regime.F2F_LABELED
    if abs(zeta) <= ANGLE_TOL:
        return Regime.F2F_SAME
    if abs(zeta - d) <= ANGLE_TOL:
        return Regime.F2F_DIFF
    raise WrongEvaluatorError(
        f"unlabeled face-to-face needs zeta in {{0, d}} within {ANGLE_TOL:g}; "
        f"got zeta = {zeta}, d = {d}"
    )


# regime -> (module, evaluator name); looked up by name per call
_EVALUATORS: dict = {}


def evaluate(scn: Scenario) -> Outcome:
    """Realized evacuation of scn by the evaluator of its regime."""
    if not _EVALUATORS:
        from . import face_to_face, wireless

        _EVALUATORS.update({
            Regime.WIRELESS: (wireless, "eval_wireless_unlabeled"),
            Regime.WIRELESS_LABELED: (wireless, "eval_wireless_labeled"),
            Regime.F2F_SAME: (face_to_face, "eval_f2f_same"),
            Regime.F2F_DIFF: (face_to_face, "eval_f2f_diff"),
            Regime.F2F_LABELED: (face_to_face, "eval_f2f_labeled"),
        })
    module, name = _EVALUATORS[scn.regime]
    return getattr(module, name)(scn)


def routed(scn: Scenario, regime: Regime) -> None:
    """The guard of every evaluator: refuse scn unless `evaluate` routes it to `regime`."""
    if scn.regime is not regime:
        raise WrongEvaluatorError(f"a {scn.regime.value} scenario sent to the "
                                  f"{regime.value} evaluator")


def resolve_zeta(policy, d: float) -> float:
    """Map a zeta policy ('0', 'd', 'd/2' or a number) to a value for d."""
    if isinstance(policy, (int, float)):
        return float(policy)
    text = str(policy).strip().lower()
    if text == "d":
        return d
    if text == "d/2":
        return d / 2.0
    return float(text)


def _first_hit(start: float, ccw: bool, e1: float, e2: float):
    """(t, found, other, at_e1): a robot sweeping from start meets its first exit.

    An exit within SNAP_TOL behind the start counts as sitting on it, not
    a full lap away; an exit found at time 0 is found on the start point
    itself, so the sweep leg to it is empty, not a rounded full lap.  A
    tie goes to E1.
    """
    t1 = normalize_angle(e1 - start if ccw else start - e1)
    t2 = normalize_angle(e2 - start if ccw else start - e2)
    if t1 >= TWO_PI - SNAP_TOL:
        t1 = 0.0
    if t2 >= TWO_PI - SNAP_TOL:
        t2 = 0.0
    if t2 < t1:
        return t2, start if t2 == 0.0 else e2, e1, False
    return t1, start if t1 == 0.0 else e1, e2, True


def candidates_coincide(d: float) -> bool:
    """The candidates d either side of a find are one point: 2d = 0 mod 2*pi within ANGLE_TOL."""
    return min(2.0 * d, TWO_PI - 2.0 * d) <= ANGLE_TOL  # d in [0, pi + DOMAIN_SLACK]


class Frame:
    """A scenario seen by its first finder, with both robots' plans under way.

    Both robots leave +-b (b = zeta/2) at time 0, R1 sweeping counter-
    clockwise and R2 clockwise; the first to step on an exit is the finder.
    When R2 finds first the frame is mirrored across the x-axis, so the
    finder always starts at +b and sweeps counterclockwise to its find X,
    reached at time x, while the partner starts at -b and stands at -b - t
    at time t.  Finds within ANGLE_TOL of each other are one simultaneous
    find (`sim`), which no first finder breaks: the frame is then R1's and
    `r2_time`, `r2_find` hold R2's own find.  `ahead`: the other exit is
    the candidate d counterclockwise of X, as the exit found and the mirror
    tell, or the candidates coincide.  The candidates (`ca`, `cb`) exist for
    unlabeled exits only.  Unlabeled face-to-face robots start at the zeta
    classify routed them to, 0 or d.  `outcome` maps the plans back.
    """

    def __init__(self, scn: Scenario):
        self.d = d = scn.d
        regime = scn.regime
        zeta = 0.0 if regime is Regime.F2F_SAME else d if regime is Regime.F2F_DIFF else scn.zeta
        self.b = b = zeta / 2.0
        e1, e2 = scn.e1.theta, scn.e2.theta
        t1, f1, o1, r1_e1 = _first_hit(b, True, e1, e2)
        t2, f2, o2, r2_e1 = _first_hit(0.0 - b, False, e1, e2)  # no negative zero at b = 0
        self.sim = abs(t1 - t2) <= ANGLE_TOL
        self.mirrored = not self.sim and t2 < t1
        self.ahead = (not r2_e1 if self.mirrored else r1_e1) or candidates_coincide(d)
        if self.mirrored:
            self.x, self.found, self.other = t2, normalize_angle(-f2), normalize_angle(-o2)
        else:
            self.x, self.found, self.other = t1, f1, o1
        self.r2_time, self.r2_find = t2, f2
        self.start = ArcPos(0.0 - b)  # the partner's
        self.x_arc = ArcPos(self.found)
        self.x_pos = cartesian(self.x_arc)
        if not scn.labeled:  # labeled policies never weigh the candidates
            self.ca = ArcPos(self.found + d)  # candidate counterclockwise of X
            self.cb = ArcPos(self.found - d)  # candidate clockwise of X
        self.finder_legs: list = [ArcLeg(ArcPos(b), self.x_arc, Direction.CCW)]
        self.partner_legs: list = []
        self.meets: list = []

    def partner_at(self, t: float) -> ArcPos:
        """Where the partner's clockwise sweep stands at time t."""
        return ArcPos(-self.b - t)

    def partner_time(self, theta: float) -> float:
        """When the partner's clockwise sweep reaches angle theta."""
        return normalize_angle(-self.b - theta)

    def sweep_partner(self, end: ArcPos) -> None:
        """The partner sweeps clockwise from its start to end."""
        self.partner_legs.append(ArcLeg(self.start, end, Direction.CW))

    def outcome(self, tag: str, f_time: float, p_time: float) -> Outcome:
        """Outcome of the plans so far, with R1 and R2 back in place."""
        f_legs, p_legs = self.finder_legs, self.partner_legs
        if self.mirrored:
            return Outcome(self.x, tag, False, p_time, f_time, mirror_plan(p_legs),
                           mirror_plan(f_legs), [mirror_point(m) for m in self.meets])
        return Outcome(self.x, tag, False, f_time, p_time, f_legs, p_legs, self.meets)

    def in_place(self, tag: str) -> Outcome:
        """Simultaneous find: each robot exits where its sweep ends."""
        r2_sweep = ArcLeg(self.start, ArcPos(self.r2_find), Direction.CW)
        return Outcome(self.x, tag, True, self.x, self.r2_time,
                       self.finder_legs, [r2_sweep])
