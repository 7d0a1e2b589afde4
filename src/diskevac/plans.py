"""Geometric motion plans handed from the policy dispatchers to the replay.

A plan is pure geometry (arcs and straight segments) plus meet/message
annotations; it carries no durations.  The policy evaluators price the
same decisions with the closed-form trig expressions, the replay prices
them by integrating segment lengths, which keeps the two time
computations independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import ArcPos, Direction, cartesian
from .scenarios import EvacResult


@dataclass(frozen=True)
class ArcLeg:
    """Perimeter sweep from start to end in the given direction."""

    start: ArcPos
    end: ArcPos
    direction: Direction

    @property
    def p0(self) -> tuple[float, float]:
        return cartesian(self.start)

    @property
    def p1(self) -> tuple[float, float]:
        return cartesian(self.end)


@dataclass(frozen=True)
class ChordLeg:
    """Straight move between two points (perimeter or interior)."""

    p0: tuple[float, float]
    p1: tuple[float, float]


Leg = ArcLeg | ChordLeg


@dataclass(frozen=True)
class MeetSpec:
    """A planned meeting: both robots co-located at `point`.

    policy_time is the closed-form arrival time; catch_eq carries
    (x, offset, y) when the meet came from an on-circle catch equation so
    the replay can check the equation residual.
    """

    point: tuple[float, float]
    policy_time: float
    catch_eq: tuple[float, float, float] | None = None


@dataclass
class RobotPlan:
    """One robot's full itinerary; the final leg endpoint is its exit."""

    legs: list[Leg] = field(default_factory=list)
    exit_pos: ArcPos | None = None
    found_exit_at: float | None = None  # policy time of own discovery, if any

    def mirrored(self) -> "RobotPlan":
        return RobotPlan(
            legs=[_mirror_leg(leg) for leg in self.legs],
            exit_pos=ArcPos(-self.exit_pos.theta) if self.exit_pos else None,
            found_exit_at=self.found_exit_at,
        )


def _mirror_leg(leg: Leg) -> Leg:
    if isinstance(leg, ArcLeg):
        flip = Direction.CW if leg.direction is Direction.CCW else Direction.CCW
        return ArcLeg(ArcPos(-leg.start.theta), ArcPos(-leg.end.theta), flip)
    return ChordLeg((leg.p0[0], -leg.p0[1]), (leg.p1[0], -leg.p1[1]))


def mirror_point(p: tuple[float, float]) -> tuple[float, float]:
    return (p[0], -p[1])


def mirror_meet(m: MeetSpec) -> MeetSpec:
    return MeetSpec(mirror_point(m.point), m.policy_time, m.catch_eq)


@dataclass
class Outcome:
    """A policy's realized evacuation: times, case tag and both plans.

    Face-to-face policies fill `meets`; wireless ones set `message_time`,
    the instant of the finder's broadcast.
    """

    x: float
    case_tag: str
    simultaneous: bool
    r1_time: float
    r2_time: float
    r1_plan: RobotPlan
    r2_plan: RobotPlan
    meets: list[MeetSpec] = field(default_factory=list)
    message_time: float | None = None

    def to_result(self) -> EvacResult:
        return EvacResult(
            time_from_perimeter=max(self.r1_time, self.r2_time),
            r1_exit_time=self.r1_time,
            r2_exit_time=self.r2_time,
            discovery_arc_x=self.x,
            case_tag=self.case_tag,
            simultaneous=self.simultaneous,
        )
