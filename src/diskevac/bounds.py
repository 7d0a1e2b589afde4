"""Closed-form lower bounds for face-to-face evacuation and the wireless
zeta > d bound.

Values reproduce the piecewise bound exactly as stated,
including the genuine discontinuity at d = 2*pi/3 (1 + sin(d) just above
2*pi/3 is about 1.866, below the 1 + sqrt(3) of the middle branch).
Known print-level discrepancies are surfaced in DISCREPANCY_NOTES rather
than silently corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .geometry import DOMAIN_SLACK, DomainError

DISCREPANCY_NOTES = (
    "the large-d branch is quoted as 'at least sin(d)' although the "
    "two-start construction behind it yields the chord 2*sin(d); the "
    "bound 1 + sin(d) is reproduced verbatim.",
    "the wireless zeta > d bound writes the chord of arc pi - zeta/2 as "
    "2*sin(pi - zeta/2), which conflicts with the general chord rule "
    "2*sin(arc/2); reproduced verbatim.",
)


class BoundRegime(Enum):
    SIN_REGIME = "sin-regime"                 # 2*pi/3 < d <= pi
    TRIANGLE = "triangle-polygon"             # pi/2 < d <= 2*pi/3
    SMALL_POLYGON = "square-pentagon-hexagon"  # 0 < d <= pi/2
    WIRELESS_GAP = "wireless-gap"


@dataclass(frozen=True)
class BoundResult:
    value: float
    regime: BoundRegime
    formula_text: str


def f2f_lower_bound(d: float) -> BoundResult:
    """Face-to-face worst-case lower bound, center leg included."""
    if not (0.0 < d <= math.pi + DOMAIN_SLACK):
        raise DomainError(f"d = {d} outside (0, pi]")
    if d > 2.0 * math.pi / 3.0:
        return BoundResult(1.0 + math.sin(d), BoundRegime.SIN_REGIME,
                           "1 + sin(d) for pi >= d > 2*pi/3")
    if d > math.pi / 2.0:
        return BoundResult(1.0 + math.sqrt(3.0), BoundRegime.TRIANGLE,
                           "1 + sqrt(3) for 2*pi/3 >= d > pi/2")
    return BoundResult(3.0, BoundRegime.SMALL_POLYGON,
                       "3 for 0 < d <= pi/2")


def wireless_gap_bound(zeta: float) -> BoundResult:
    """Wireless time bound when the robots start more than d apart.

    Printed form: always greater than arc(DB) + line DB, i.e.
    pi - zeta/2 + 2*sin(pi - zeta/2).
    """
    if not (0.0 < zeta <= math.pi + DOMAIN_SLACK):
        raise DomainError(f"zeta = {zeta} outside (0, pi]")
    value = math.pi - zeta / 2.0 + 2.0 * math.sin(math.pi - zeta / 2.0)
    return BoundResult(value, BoundRegime.WIRELESS_GAP,
                       "pi - zeta/2 + 2*sin(pi - zeta/2)")
