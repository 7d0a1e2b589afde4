"""Problem instances and evaluation results shared by the policy modules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .geometry import ArcPos

_EPS = 1e-12


class CommModel(Enum):
    WIRELESS = "wireless"
    FACE_TO_FACE = "f2f"


class ScenarioError(ValueError):
    """Invalid problem instance."""


class UnsupportedRegimeError(ScenarioError):
    """zeta > d: no evacuation strategy here, see bounds.wireless_gap_bound."""


class WrongEvaluatorError(ScenarioError):
    """Scenario routed to an evaluator for a different zeta regime."""


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
