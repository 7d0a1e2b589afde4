"""Arc and chord primitives on the unit circle.

Angles are radians, counterclockwise positive, with the reference point A
at theta = 0 and the disk center at the origin. Every public helper
normalizes angles into [0, 2*pi).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

TWO_PI = 2.0 * math.pi

# Tolerance bands, one per meaning, read by the scalar evaluators and the
# batch kernels alike.  They nest, so rounding at the edge of one band never
# puts a placement on the edge of another.
ANGLE_TOL = 1e-9  # two points, or two find times, are one; far below the grids' 1e-3
# A merging band lies strictly inside ANGLE_TOL: an exit this close behind a
# start sits on it, and a point this far past a sweep's end is swept, so a
# find more than ANGLE_TOL after the message is never swept by its robot.
SNAP_TOL = ANGLE_TOL / 2.0
# Exits closer than this are one exit; from it up, a candidate d either side
# of a find is more than ANGLE_TOL from the find.
COINCIDENT_D = 2.0 * ANGLE_TOL
DOMAIN_SLACK = 1e-12  # rounding slack at the domain edges d = pi and zeta = d


class DomainError(ValueError):
    """Argument outside the geometric domain of an operation."""


class Direction(Enum):
    CW = "cw"
    CCW = "ccw"


def normalize_angle(theta: float) -> float:
    """Map any finite angle into [0, 2*pi); nan passes through, +-inf raises."""
    if 0.0 < theta < TWO_PI:  # math.fmod would return theta unchanged
        return theta
    if -TWO_PI < theta < 0.0:  # fmod is exact and returns theta here too
        t = theta + TWO_PI
        return t if t < TWO_PI else 0.0
    try:
        t = math.fmod(theta, TWO_PI)
    except ValueError:  # fmod refuses only +-inf
        raise DomainError(f"angle {theta} is not finite") from None
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:  # fmod rounding can land exactly on 2*pi
        t -= TWO_PI
    return t


class _ArcPosFields(NamedTuple):
    theta: float


class ArcPos(_ArcPosFields):
    """A perimeter point as an arc coordinate, counterclockwise from A.

    An immutable one-field tuple; theta is normalized into [0, 2*pi) when
    the point is built.
    """

    __slots__ = ()

    def __new__(cls, theta: float) -> "ArcPos":
        if 0.0 < theta < TWO_PI:  # in range: normalize_angle would keep it
            return tuple.__new__(cls, (float(theta),))
        return tuple.__new__(cls, (normalize_angle(float(theta)),))

    def offset(self, delta: float) -> "ArcPos":
        return ArcPos(self.theta + delta)


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


def arc_length(theta0: float, theta1: float, ccw: bool) -> float:
    """Arc length traveled from angle theta0 to theta1, in [0, 2*pi)."""
    return normalize_angle(theta1 - theta0 if ccw else theta0 - theta1)


def cartesian(p: ArcPos) -> tuple[float, float]:
    theta = p.theta
    return (math.cos(theta), math.sin(theta))


# Distance between two points: hypot of their coordinate differences, in C.
point_distance = math.dist

