"""Arc and chord primitives on the unit circle.

Angles are radians, counterclockwise positive, with the reference point A
at theta = 0 and the disk center at the origin. Every public helper
normalizes angles into [0, 2*pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

TWO_PI = 2.0 * math.pi

# Point-identity tolerance: far below the sweep grids (1e-3), far above
# double-precision noise.
ANGLE_TOL = 1e-9


class DomainError(ValueError):
    """Argument outside the geometric domain of an operation."""


class Direction(Enum):
    CW = "cw"
    CCW = "ccw"


def normalize_angle(theta: float) -> float:
    """Map any finite angle into [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:  # fmod rounding can land exactly on 2*pi
        t -= TWO_PI
    return t


@dataclass(frozen=True)
class ArcPos:
    """A perimeter point as an arc coordinate, counterclockwise from A."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", normalize_angle(float(self.theta)))

    def offset(self, delta: float) -> "ArcPos":
        return ArcPos(self.theta + delta)

    def almost_equal(self, other: "ArcPos", tol: float = ANGLE_TOL) -> bool:
        return angle_close(self.theta, other.theta, tol)


def angle_close(a: float, b: float, tol: float = ANGLE_TOL) -> bool:
    """True when two angles denote the same circle point within tol."""
    diff = abs(normalize_angle(a) - normalize_angle(b))
    return min(diff, TWO_PI - diff) <= tol


def chord_length(arc: float) -> float:
    """Chord subtending an arc of the given length: 2*sin(arc/2)."""
    if arc < -ANGLE_TOL or arc > TWO_PI + ANGLE_TOL:
        raise DomainError(f"arc {arc} outside [0, 2*pi]")
    arc = min(max(arc, 0.0), TWO_PI)
    return 2.0 * math.sin(arc / 2.0)


def arc_between(a: ArcPos, b: ArcPos, direction: Direction) -> float:
    """Arc length traveled from a to b in the stated direction, in [0, 2*pi)."""
    if direction is Direction.CCW:
        return normalize_angle(b.theta - a.theta)
    return normalize_angle(a.theta - b.theta)


def cartesian(p: ArcPos) -> tuple[float, float]:
    return (math.cos(p.theta), math.sin(p.theta))


def point_distance(p: tuple[float, float], q: tuple[float, float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])

