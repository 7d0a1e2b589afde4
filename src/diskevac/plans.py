"""Geometric motion plans handed from the policy dispatchers to the replay.

A plan is one robot's list of legs (arcs and straight segments); a meet
is the point where both robots must stand together.  Plans carry no
times: the policy evaluators price their decisions with the closed-form
trig expressions and report those times in `Outcome`, while the replay
prices the plans by integrating segment lengths and derives every meet
and message time from them, which keeps the two computations independent.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .geometry import ArcPos, Direction

Point = tuple[float, float]


class ArcLeg(NamedTuple):
    """Perimeter sweep from start to end in the given direction."""

    start: ArcPos
    end: ArcPos
    direction: Direction


class ChordLeg(NamedTuple):
    """Straight move between two points (perimeter or interior)."""

    p0: Point
    p1: Point


Leg = ArcLeg | ChordLeg


def mirror_point(p: Point) -> Point:
    return (p[0], -p[1])


def mirror_plan(legs: list[Leg]) -> list[Leg]:
    """The plan reflected across the x-axis."""
    out: list[Leg] = []
    for leg in legs:
        if isinstance(leg, ArcLeg):
            start, end, direction = leg
            flip = Direction.CW if direction is Direction.CCW else Direction.CCW
            out.append(ArcLeg(ArcPos(-start.theta), ArcPos(-end.theta), flip))
        else:
            (x0, y0), (x1, y1) = leg
            out.append(ChordLeg((x0, -y0), (x1, -y1)))
    return out


class Outcome(NamedTuple):
    """A policy's realized evacuation: closed-form times, case tag, plans.

    Times are measured from perimeter arrival.  The plans end at each
    robot's exit; `meets` lists the points where the robots exchange
    information face to face (wireless policies have none).
    """

    discovery_arc_x: float
    case_tag: str
    simultaneous: bool
    r1_exit_time: float
    r2_exit_time: float
    r1_plan: list[Leg]
    r2_plan: list[Leg]
    meets: Sequence[Point] = ()

    @property
    def time_from_perimeter(self) -> float:
        return max(self.r1_exit_time, self.r2_exit_time)
