"""Root accuracy of the two catch kernels against 60-digit mpmath roots,
and their scalar twins' bit-for-bit agreement with them."""

import math

import mpmath
import numpy as np
import pytest

from diskevac import _batch, meeting
from diskevac.cli import random_scenarios
from diskevac.face_to_face import catch_on_circle_from
from diskevac.meeting import (
    ROOT_TOL,
    SolverError,
    catch_on_circle,
    catch_on_circle_arr,
    residual,
    solve_meeting,
    solve_meeting_arr,
)
from diskevac.scenarios import evaluate

mpmath.mp.dps = 60

OFFSETS = (0.0, 0.5, 1.5, math.pi)
SMALL_X = (0.0, 1e-13, 1e-9, 1e-6, 1e-3, 0.1, 1.0)


def _mp_bisect(g, lo, hi, steps=240):
    """Root of a nondecreasing g on [lo, hi] by plain mpmath bisection."""
    for _ in range(steps):
        mid = (lo + hi) / 2
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def catch_up_reference(x, offset):
    x, offset = mpmath.mpf(x), mpmath.mpf(offset)
    f = lambda y: x + 2 * mpmath.sin((x + y + offset) / 2) - y
    if f(x) <= 0:
        return x
    return _mp_bisect(lambda y: -f(y), x, x + 2)


def p_catch_reference(nx, ny, t0, b):
    nx, ny, t0, b = (mpmath.mpf(v) for v in (nx, ny, t0, b))
    g = lambda p: p - t0 - mpmath.hypot(nx - mpmath.cos(-b - p),
                                        ny - mpmath.sin(-b - p))
    return _mp_bisect(g, t0, t0 + 2 + mpmath.mpf("1e-9"))


def _grid(offset):
    return SMALL_X + ((2.0 * math.pi - offset) / 2.0,)


@pytest.mark.parametrize("offset", OFFSETS)
def test_catch_up_root_within_root_tol(offset):
    xs = _grid(offset)
    ys = solve_meeting_arr(np.array(xs), offset)
    for x, y_arr in zip(xs, ys):
        y = solve_meeting(x, offset)
        assert y == y_arr
        # the enforced bound: the residual changes sign within ROOT_TOL
        assert residual(x, offset, y - ROOT_TOL) >= 0.0
        assert residual(x, offset, y + ROOT_TOL) <= 0.0
        # and it holds for the true root too; at x = 1e-13, offset 0 a
        # residual-only stop at 1e-12 returns y = x, 1.7e-4 from the root
        assert abs(y - catch_up_reference(x, offset)) <= ROOT_TOL, (x, offset)


@pytest.mark.parametrize("x", [1e-16, 1e-14, 1e-12])
def test_catch_up_flat_root_error_is_rounding_over_slope(x):
    # offset 0, x -> 0: f'(root) = -2 sin^2(root/4) -> 0, so the computed
    # residual's rounding noise (a few ulp of y) over |f'| bounds the error,
    # not ROOT_TOL.  Measured: 5.8e-11, 9.0e-12, 1.1e-12; a residual-only
    # stop at 1e-12 lands 1.7e-5, 7.8e-5 and 2.8e-6 away.
    y = solve_meeting(x, 0.0)
    ref = catch_up_reference(x, 0.0)
    slope = 2.0 * math.sin(float(ref) / 4.0) ** 2
    bound = ROOT_TOL + 4.0 * np.finfo(float).eps * float(ref) / slope
    assert abs(y - ref) <= bound
    assert bound < float(ref) / 100.0


def test_catch_up_early_return_needs_a_sign_change():
    # |f(x)| = 2e-13 is below the 1e-12 residual gate at x = 1e-13, but the
    # root is 1.7e-4 away
    y = solve_meeting(1e-13, 0.0)
    assert abs(y - catch_up_reference(1e-13, 0.0)) <= ROOT_TOL


def test_catch_up_unsettled_newton_falls_back_to_bisection():
    # at x = 4.7e-24, offset 0 the computed residual is rounding noise
    # within 1e-8 of the root, so the closed-form root fails the ROOT_TOL
    # sign check and both solvers bisect
    x = 4.695471382493421e-24
    y = solve_meeting(x, 0.0)
    assert y == solve_meeting_arr(np.array([x]), 0.0)[0]
    assert residual(x, 0.0, y - ROOT_TOL) >= 0.0
    assert residual(x, 0.0, y + ROOT_TOL) <= 0.0
    assert abs(y - catch_up_reference(x, 0.0)) < 1e-7


def _catch_up_twin_mismatches(xs, offset, ys):
    """x values where the scalar twin's root is not the kernel's bit for bit."""
    return [x for x, y in zip(xs.tolist(), ys.tolist()) if solve_meeting(x, offset) != y]


@pytest.mark.parametrize("offset", OFFSETS)
def test_catch_up_twin_matches_kernel_on_random_x(offset):
    hi = (2.0 * math.pi - offset) / 2.0
    xs = np.concatenate([np.random.RandomState(int(10 * offset)).uniform(0.0, hi, 10**5),
                         [0.0, hi, 1e-300, 1e-24, 1e-13]])
    assert not _catch_up_twin_mismatches(xs, offset, solve_meeting_arr(xs, offset))


@pytest.mark.parametrize("offset", OFFSETS)
def test_catch_up_twin_matches_kernel_in_the_bisect_fallback(monkeypatch, offset):
    # a closed form 1e-9 off fails the ROOT_TOL sign check, so both solvers
    # bisect on [x, min(x + 2, 2*pi - x - offset)].  The bisected root is
    # within ROOT_TOL of the root, so where |f'| > 1 its residual can miss
    # the GATE_TOL gate: then both raise SolverError.
    bisects = []
    real = meeting._bisect
    monkeypatch.setattr(meeting, "_bisect",
                        lambda *args: bisects.append(args[1].size) or real(*args))
    for name in ("_kepler", "_kepler_arr"):
        closed_form = getattr(meeting, name)
        monkeypatch.setattr(meeting, name, lambda c, f=closed_form: f(c) + 1e-9)
    roots = 0
    for x in np.linspace(0.01, (2.0 * math.pi - offset) / 2.0 - 0.01, 40).tolist():
        outcomes = []
        for solve in (lambda: solve_meeting_arr(np.array([x]), offset)[0],
                      lambda: solve_meeting(x, offset)):
            try:
                outcomes.append(solve())
            except SolverError:
                outcomes.append("gate")
        assert outcomes[0] == outcomes[1], (x, offset)
        if outcomes[0] != "gate":
            roots += 1
            y = outcomes[0]
            assert residual(x, offset, y - ROOT_TOL) >= 0.0
            assert residual(x, offset, y + ROOT_TOL) <= 0.0
    assert bisects == [1] * 80
    assert roots >= 20


def _p_residual(nx, ny, t0, b, p):
    return p - t0 - math.hypot(nx - math.cos(-b - p), ny - math.sin(-b - p))


def _random_p_queries(n, seed):
    """n points N uniform in the unit disk, with departure times t0."""
    rng = np.random.RandomState(seed)
    r = np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return r * np.cos(theta), r * np.sin(theta), rng.uniform(0.0, 2.0 * math.pi, n)


@pytest.mark.parametrize("b", [0.0, 0.4, 1.3])
def test_p_catch_root_within_root_tol(b):
    nx, ny, t0 = _random_p_queries(10, int(10 * b))
    ps = catch_on_circle_arr(nx, ny, t0, b)
    for x, y, t, p in zip(nx, ny, t0, ps):
        assert _p_residual(x, y, t, b, p - ROOT_TOL) <= 0.0
        assert _p_residual(x, y, t, b, p + ROOT_TOL) >= 0.0
        assert abs(p - p_catch_reference(x, y, t, b)) <= ROOT_TOL, (x, y, t)
        assert catch_on_circle_from((x, y), t, b) == p


def _twin_mismatches(nx, ny, t0, b, ps):
    """Queries where the scalar twin's catch is not the kernel's bit for bit."""
    return [(x, y, t) for x, y, t, p in zip(nx.tolist(), ny.tolist(), t0.tolist(),
                                            ps.tolist())
            if catch_on_circle(x, y, t, b) != p]


@pytest.mark.parametrize("b", [0.0, 0.4, 1.3])
def test_p_catch_twin_matches_kernel_on_random_queries(b):
    nx, ny, t0 = _random_p_queries(20000, 100 + int(10 * b))
    assert not _twin_mismatches(nx, ny, t0, b, catch_on_circle_arr(nx, ny, t0, b))


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_p_catch_twin_matches_kernel_on_verify_scenarios(monkeypatch, seed):
    # every P catch the scalar evaluators solve in a 5,000-scenario verify
    calls = []
    real = meeting.catch_on_circle

    def spy(*args):
        p = real(*args)
        calls.append((args, p))
        return p

    monkeypatch.setattr(meeting, "catch_on_circle", spy)
    for scn in random_scenarios(seed, 5000):
        evaluate(scn)
    assert len(calls) > 300
    for (nx, ny, t0, b), p in calls:
        kernel = catch_on_circle_arr(np.array([nx]), np.array([ny]), np.array([t0]), b)
        assert p == kernel[0], (nx, ny, t0, b)


def test_p_catch_flat_root_at_the_partner():
    # N on the circle at the partner's position: g(p) ~ (p - t0)**3 / 24,
    # so double precision fixes the root at t0 only to about 3e-5
    t0 = np.array([0.7, 2.0, 4.1])
    nx, ny = np.cos(-0.3 - t0), np.sin(-0.3 - t0)
    p = catch_on_circle_arr(nx, ny, t0, 0.3)
    assert np.all((p >= t0) & (p - t0 < 1e-4))
    assert not _twin_mismatches(nx, ny, t0, 0.3, p)


def test_p_catch_twin_matches_kernel_in_the_bisect_fallback(monkeypatch):
    # one Newton step settles none of these points, so both fall back to
    # bisection on [t0, t0 + 2 + 1e-9]
    bisects = []
    real = meeting._bisect
    monkeypatch.setattr(meeting, "MAX_ITER", 1)
    monkeypatch.setattr(meeting, "_bisect",
                        lambda *args: bisects.append(args) or real(*args))
    nx, ny, t0 = _random_p_queries(50, 3)
    ps = catch_on_circle_arr(nx, ny, t0, 0.4)
    assert len(bisects) == 1 and bisects[0][1].size == 50
    assert not _twin_mismatches(nx, ny, t0, 0.4, ps)
    assert len(bisects) == 51
    for x, y, t, p in zip(nx, ny, t0, ps):
        assert _p_residual(x, y, t, 0.4, p - ROOT_TOL) <= 0.0
        assert _p_residual(x, y, t, 0.4, p + ROOT_TOL) >= 0.0


def test_p_catch_batch_name_is_the_shared_kernel():
    assert _batch._catch_p_arr is catch_on_circle_arr


def test_p_catch_non_finite_input_gives_nan():
    p = catch_on_circle_arr(np.array([0.1, np.nan]), np.array([0.2, 0.0]),
                            np.array([1.0, 1.0]), 0.0)
    assert math.isfinite(p[0])
    assert math.isnan(p[1])
    assert catch_on_circle(0.1, 0.2, 1.0, 0.0) == p[0]
    for query in ((math.nan, 0.0, 1.0), (0.1, math.inf, 1.0), (0.1, 0.2, -math.inf)):
        assert math.isnan(catch_on_circle(*query, 0.0))
