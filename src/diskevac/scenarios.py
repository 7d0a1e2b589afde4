"""Problem instances and evaluation results shared by the policy modules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .geometry import ANGLE_TOL, TWO_PI, ArcPos, normalize_angle

_EPS = 1e-12
SIM_TOL = 1e-12  # first-hit times this close make one simultaneous find


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
    identity of the two exits is irrelevant).
    """

    model: CommModel
    labeled: bool
    d: float
    zeta: float
    e1: ArcPos

    def __post_init__(self):
        for name, value in (("d", self.d), ("zeta", self.zeta), ("e1", self.e1.theta)):
            if not math.isfinite(value):
                raise ScenarioError(f"{name} = {value} is not finite")
        if not (0.0 <= self.d <= math.pi + _EPS):
            raise ScenarioError(f"d = {self.d} outside [0, pi]")
        if self.zeta < 0.0:
            raise ScenarioError(f"zeta = {self.zeta} negative")
        if self.zeta > self.d + _EPS:
            raise UnsupportedRegimeError(
                f"zeta = {self.zeta} exceeds d = {self.d}; only the "
                "bounds module covers this regime (wireless_gap_bound)"
            )

    @property
    def regime(self) -> "Regime":
        return classify(self.model, self.labeled, self.d, self.zeta)

    @property
    def e2(self) -> ArcPos:
        return self.e1.offset(self.d)

    @property
    def r1_start(self) -> ArcPos:
        """R1 starts at B, zeta/2 counterclockwise of A, and travels CCW."""
        return ArcPos(self.zeta / 2.0)

    @property
    def r2_start(self) -> ArcPos:
        """R2 starts at C, zeta/2 clockwise of A, and travels CW."""
        return ArcPos(-self.zeta / 2.0)


@dataclass(frozen=True)
class EvacResult:
    """Evacuation outcome, times measured from perimeter arrival.

    Reported totals add 1 (the center-to-perimeter leg) on top of
    time_from_perimeter; total_time() applies it.
    """

    time_from_perimeter: float
    r1_exit_time: float
    r2_exit_time: float
    discovery_arc_x: float
    case_tag: str
    simultaneous: bool = False

    def total_time(self) -> float:
        return self.time_from_perimeter + 1.0


class Regime(Enum):
    """The paper's four policy families; values name the f2f variants."""

    WIRELESS = "wireless"
    F2F_SAME = "same"
    F2F_DIFF = "diff"
    F2F_LABELED = "labeled"


def classify(model: CommModel, labeled: bool, d: float, zeta: float) -> Regime:
    """The policy family that handles (model, labeled, d, zeta).

    Wireless policies take any zeta, labeled face-to-face too.  Unlabeled
    face-to-face has policies for zeta = 0 and zeta = d only, each within
    ANGLE_TOL; zeta = 0 is tested first, so d = zeta = 0 is F2F_SAME.
    """
    if model is CommModel.WIRELESS:
        return Regime.WIRELESS
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


def evaluate(scn: Scenario) -> EvacResult:
    """Realized evacuation of scn by the evaluator of its regime."""
    from . import face_to_face, wireless

    regime = scn.regime
    if regime is Regime.WIRELESS:
        lab = "labeled" if scn.labeled else "unlabeled"
        return getattr(wireless, f"eval_wireless_{lab}")(scn)
    return getattr(face_to_face, f"eval_f2f_{regime.value}")(scn)


def plan(scn: Scenario):
    """Full outcome of scn, plans included, for the replay oracle."""
    from . import face_to_face, wireless

    if scn.regime is Regime.WIRELESS:
        return wireless.plan_wireless(scn)
    return face_to_face.plan_f2f(scn)


def resolve_zeta(policy, d: float) -> float:
    """Map a zeta policy ('0', 'd', 'd/2' or a number) to a value for d."""
    if isinstance(policy, (int, float)):
        return float(policy)
    text = str(policy).strip().lower()
    if text in ("0", "zero"):
        return 0.0
    if text == "d":
        return d
    if text == "d/2":
        return d / 2.0
    return float(text)


def _hit_ccw(start: float, exit_theta: float) -> float:
    t = normalize_angle(exit_theta - start)
    # an exit within angular tolerance behind the start point counts as
    # sitting on it, not a full lap away
    return 0.0 if t >= TWO_PI - ANGLE_TOL else t


def _hit_cw(start: float, exit_theta: float) -> float:
    t = normalize_angle(start - exit_theta)
    return 0.0 if t >= TWO_PI - ANGLE_TOL else t


def first_hits(scn: Scenario):
    """Per-robot first exit hit: (t, found_theta, other_theta) twice."""
    b = scn.zeta / 2.0
    exits = (scn.e1.theta, scn.e2.theta)
    t1_per = [_hit_ccw(b, e) for e in exits]
    t2_per = [_hit_cw(-b, e) for e in exits]
    i1 = 0 if t1_per[0] <= t1_per[1] else 1
    i2 = 0 if t2_per[0] <= t2_per[1] else 1
    return (
        (t1_per[i1], exits[i1], exits[1 - i1]),
        (t2_per[i2], exits[i2], exits[1 - i2]),
    )
