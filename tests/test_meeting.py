import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diskevac.meeting import RegimeError, solve_meeting, solve_meeting_arr


def fixed_point_oracle(x, offset, tol=1e-8, max_iter=100000):
    """Independent root finder: damped fixed-point iteration.

    Averaging the plain iteration y <- x + 2*sin((x+y+offset)/2) keeps the
    map contractive even where |cos| approaches 1.
    """
    y = x + 1.0
    for _ in range(max_iter):
        g = x + 2.0 * math.sin((x + y + offset) / 2.0)
        nxt = 0.5 * (y + g)
        if abs(nxt - y) < tol:
            return nxt
        y = nxt
    raise AssertionError("fixed point iteration did not settle")


def test_trivial_root_at_origin():
    assert solve_meeting(0.0, 0.0) == 0.0


def test_derived_examples():
    # frozen values recomputed with the independent fixed-point oracle
    assert solve_meeting(1.0, 0.0) == pytest.approx(2.8692, abs=5e-4)
    assert solve_meeting(0.5, 1.0) == pytest.approx(2.3691, abs=5e-4)
    assert solve_meeting(1.0, 0.0) == pytest.approx(
        fixed_point_oracle(1.0, 0.0), abs=1e-5)
    assert solve_meeting(0.5, 1.0) == pytest.approx(
        fixed_point_oracle(0.5, 1.0), abs=1e-5)


def test_agrees_with_fixed_point_on_random_queries():
    rng = np.random.RandomState(11)
    for _ in range(100):
        offset = rng.uniform(0.0, math.pi)
        x = rng.uniform(0.0, (2.0 * math.pi - offset) / 2.0)
        y = solve_meeting(x, offset)
        assert y == pytest.approx(fixed_point_oracle(x, offset), abs=1e-5)


@given(st.floats(min_value=0.0, max_value=math.pi),
       st.floats(min_value=0.0, max_value=math.pi))
def test_residual_below_tolerance(offset, frac):
    x = frac * (2.0 * math.pi - offset) / 2.0 / math.pi
    y = solve_meeting(x, offset)
    assert abs(x + 2.0 * math.sin((x + y + offset) / 2.0) - y) < 1e-12
    assert y >= x


def test_monotone_in_x():
    for offset in (0.0, 0.7, 1.5):
        prev = -1.0
        for k in range(0, 200):
            x = k * (2.0 * math.pi - offset) / 2.0 / 200.0
            y = solve_meeting(x, offset)
            assert y >= prev - 1e-9
            prev = y


def test_regime_error_outside_bracket():
    # 2x + offset beyond 2*pi puts the root below x
    with pytest.raises(RegimeError):
        solve_meeting(3.2, 0.1)
    with pytest.raises(RegimeError):
        solve_meeting(-0.1, 0.0)
    with pytest.raises(RegimeError):
        solve_meeting(1.0, -0.2)
    with pytest.raises(RegimeError):
        solve_meeting(6.0, 1.0)


def test_vector_matches_scalar():
    rng = np.random.RandomState(4)
    for offset in (0.0, 0.3, 1.1, math.pi / 2):
        xs = rng.uniform(0.0, (2.0 * math.pi - offset) / 2.0, size=300)
        ys = solve_meeting_arr(xs, offset)
        for x, y in zip(xs, ys):
            assert y == solve_meeting(float(x), offset)


def test_vector_flags_invalid_regime():
    ys = solve_meeting_arr(np.array([0.5, 3.2]), 0.1)
    assert not math.isnan(ys[0])
    assert math.isnan(ys[1])
    # NaN exactly where c = x + offset/2 leaves [0, pi] by more than 5e-13,
    # also on (2*pi, 3*pi), where sin c, the sign of f(x), is positive again
    x = np.array([0.5, -0.1, 0.0, 0.0, 3.2, 6.0, 6.5, 8.0, math.pi, 1e-20, 3.0, math.pi / 2])
    offset = np.array([0.1, 0.0, -2e-12, 0.0, 0.1, 0.5, 0.0, 1.0, 0.0, 0.0, 0.2, math.pi])
    off_domain = np.array([0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 0], dtype=bool)
    ys = solve_meeting_arr(x, offset)
    assert np.array_equal(np.isnan(ys), off_domain)
    on = ~off_domain
    assert np.array_equal(ys[on], solve_meeting_arr(x[on], offset[on]))
    assert ys[on].tolist() == [solve_meeting(*q) for q in zip(x[on].tolist(), offset[on].tolist())]


@pytest.mark.parametrize("x", [[[0.1, 0.2]], [0.1, 0.2]], ids=["row", "1-d"])
def test_vector_broadcasts_x_against_a_larger_offset(x):
    # the result takes the broadcast shape of x and a column of offsets
    offset = np.array([[0.5], [0.7]])
    ys = solve_meeting_arr(np.array(x), offset)
    assert ys.shape == (2, 2)
    for i, j in np.ndindex(2, 2):
        want = solve_meeting(np.ravel(x)[j], float(offset[i, 0]))
        assert np.float64(want).tobytes() == ys[i, j].tobytes(), (i, j)


def test_vector_refuses_exactly_what_the_scalar_twin_refuses():
    # x < 0 and an offset outside [0, pi] are refused even where c = x +
    # offset/2 lies in [0, pi]: NaN where solve_meeting raises, its bits elsewhere
    x = np.array([-1e-13, 1.0, 0.5, 0.5, 0.5, -0.0, 1e-20, 0.3, math.nan, 0.2, 0.1, -0.2])
    offset = np.array([0.0, -0.2, 3.2, math.pi + 1e-12, math.pi + 2e-12, 0.0, -1e-300,
                       0.0, 0.0, math.nan, math.pi, 1.0])
    ys = solve_meeting_arr(x, offset)
    refused = []
    for i, query in enumerate(zip(x.tolist(), offset.tolist())):
        try:
            want = solve_meeting(*query)
        except RegimeError:
            refused.append(i)
            assert math.isnan(ys[i]), query
        else:
            assert np.float64(want).tobytes() == ys[i].tobytes(), query
    assert refused == [0, 1, 2, 4, 6, 8, 9, 11]
