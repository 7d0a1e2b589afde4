import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diskevac.geometry import (
    TWO_PI,
    ArcPos,
    DomainError,
    arc_length,
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
    assert arc_length(0.0, math.pi / 2, ccw=True) == pytest.approx(math.pi / 2)
    assert arc_length(math.pi / 2, 0.0, ccw=False) == pytest.approx(math.pi / 2)
    assert arc_length(0.1, 6.2, ccw=True) == pytest.approx(6.1)


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
    pa, pb = ArcPos(a).theta, ArcPos(b).theta
    assert arc_length(pa, pb, ccw=False) == pytest.approx(
        arc_length(pb, pa, ccw=True), abs=1e-12)


@given(finite_angles, finite_angles)
def test_arc_directions_complement(a, b):
    pa, pb = ArcPos(a).theta, ArcPos(b).theta
    ccw = arc_length(pa, pb, ccw=True)
    cw = arc_length(pa, pb, ccw=False)
    if abs(math.remainder(pa - pb, TWO_PI)) <= 1e-12:
        # identical points up to float resolution: both arcs collapse
        assert min(ccw, cw) <= 1e-12
    else:
        assert ccw + cw == pytest.approx(TWO_PI, abs=1e-9)



def _fmod_reference(theta):
    """normalize_angle as the plain fmod formula, with no shortcut."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:
        t -= TWO_PI
    return t


def test_normalize_angle_is_the_fmod_formula_bit_for_bit():
    special = [0.0, -0.0, TWO_PI, math.nextafter(TWO_PI, 0.0), -TWO_PI,
               math.nextafter(-TWO_PI, 0.0), -5e-324, -1e-17, 1e300, -1e300, math.nan]
    angles = np.random.RandomState(3).uniform(-20.0, 20.0, 10**5).tolist() + special
    bits = struct.Struct("<d").pack
    assert [bits(normalize_angle(t)) for t in angles] == \
        [bits(_fmod_reference(t)) for t in angles]
    assert math.copysign(1.0, normalize_angle(-0.0)) == -1.0


def test_arc_pos_theta_is_normalize_angle_bit_for_bit():
    # in-range angles skip normalize_angle; the result must not differ
    special = [0.0, -0.0, TWO_PI, math.nextafter(TWO_PI, 0.0), 5e-324, 1, 3, np.float64(2.5)]
    angles = np.random.RandomState(5).uniform(-20.0, 20.0, 10**4).tolist() + special
    bits = struct.Struct("<d").pack
    assert [bits(ArcPos(t).theta) for t in angles] == \
        [bits(normalize_angle(float(t))) for t in angles]
    assert all(type(ArcPos(t).theta) is float for t in special)


@pytest.mark.parametrize("theta", [math.inf, -math.inf])
def test_infinite_angle_is_refused_by_name(theta):
    with pytest.raises(DomainError, match=f"^angle {theta} is not finite$"):
        normalize_angle(theta)
    with pytest.raises(DomainError):
        ArcPos(theta)


def test_arc_pos_normalizes_keeps_its_repr_and_pickles():
    p = ArcPos(-math.pi / 2)
    assert p.theta == 1.5 * math.pi
    assert ArcPos(TWO_PI).theta == 0.0
    assert ArcPos(7).theta == 7.0 - TWO_PI and type(ArcPos(7).theta) is float
    assert repr(p) == f"ArcPos(theta={1.5 * math.pi!r})"
    assert p.offset(math.pi) == ArcPos(math.pi / 2)
    back = pickle.loads(pickle.dumps(p))
    assert type(back) is ArcPos and back == p
    with pytest.raises(AttributeError):
        p.theta = 0.0
