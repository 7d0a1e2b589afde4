import math

import pytest
from hypothesis import given, strategies as st

from diskevac.geometry import (
    TWO_PI,
    ArcPos,
    Direction,
    DomainError,
    arc_between,
    cartesian,
    chord_length,
    normalize_angle,
    point_distance,
)

finite_angles = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def test_chord_trivial_values():
    assert chord_length(0.0) == 0.0
    assert chord_length(math.pi) == pytest.approx(2.0)
    # hexagon side: d = pi/3 gives a unit chord
    assert chord_length(math.pi / 3.0) == pytest.approx(1.0)


def test_chord_domain_error():
    with pytest.raises(DomainError):
        chord_length(-0.5)
    with pytest.raises(DomainError):
        chord_length(TWO_PI + 0.1)


def test_arc_between_examples():
    assert arc_between(ArcPos(0.0), ArcPos(math.pi / 2), Direction.CCW) == \
        pytest.approx(math.pi / 2)
    assert arc_between(ArcPos(math.pi / 2), ArcPos(0.0), Direction.CW) == \
        pytest.approx(math.pi / 2)
    assert arc_between(ArcPos(0.1), ArcPos(6.2), Direction.CCW) == \
        pytest.approx(6.1)


def test_cartesian_examples():
    assert cartesian(ArcPos(0.0)) == pytest.approx((1.0, 0.0))
    assert cartesian(ArcPos(math.pi / 2)) == pytest.approx((0.0, 1.0))
    dist = point_distance(cartesian(ArcPos(0.0)), cartesian(ArcPos(math.pi)))
    assert dist == pytest.approx(chord_length(math.pi))


def test_chord_never_longer_than_arc():
    for k in range(0, 2001):
        t = TWO_PI * k / 2000.0
        assert chord_length(t) <= t + 1e-12


def test_supplementary_sine_identity():
    # the candidate-to-candidate chord written as 2*sin(pi - d) must equal
    # the plain chord value 2*sin(d)
    for k in range(0, 1001):
        d = math.pi * k / 1000.0
        assert 2.0 * math.sin(math.pi - d) == pytest.approx(
            2.0 * math.sin(d), abs=1e-12)


@given(finite_angles)
def test_normalization_total(theta):
    t = normalize_angle(theta)
    assert 0.0 <= t < TWO_PI
    assert ArcPos(theta).theta == t


@given(finite_angles, finite_angles)
def test_arc_antisymmetry(a, b):
    pa, pb = ArcPos(a), ArcPos(b)
    assert arc_between(pa, pb, Direction.CW) == pytest.approx(
        arc_between(pb, pa, Direction.CCW), abs=1e-12)


@given(finite_angles, finite_angles)
def test_arc_directions_complement(a, b):
    pa, pb = ArcPos(a), ArcPos(b)
    ccw = arc_between(pa, pb, Direction.CCW)
    cw = arc_between(pa, pb, Direction.CW)
    if pa.almost_equal(pb, tol=1e-12):
        # identical points up to float resolution: both arcs collapse
        assert min(ccw, cw) <= 1e-12
    else:
        assert ccw + cw == pytest.approx(TWO_PI, abs=1e-9)

