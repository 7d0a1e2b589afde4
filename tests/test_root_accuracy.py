"""Root accuracy of the two catch kernels against 60-digit mpmath roots,
and their scalar twins' bit-for-bit agreement with them."""

import math

import mpmath
import numpy as np
import pytest

from diskevac import _batch, meeting
from diskevac.cli import random_scenarios
from diskevac.meeting import (
    ROOT_TOL,
    catch_on_circle,
    catch_on_circle_arr,
    solve_meeting,
    solve_meeting_arr,
)
from diskevac.scenarios import CommModel, evaluate
from diskevac.sweep import SeriesSpec, SweepConfig, run_sweep

mpmath.mp.dps = 60

OFFSETS = (0.0, 0.5, 1.5, math.pi)
SMALL_X = (0.0, 1e-13, 1e-9, 1e-6, 1e-3, 0.1, 1.0)


def residual(x, offset, y):
    """Catch-up residual f(y) = x + 2 sin((x + y + offset)/2) - y in floats."""
    return x + 2.0 * math.sin((x + y + offset) / 2.0) - y


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


@pytest.mark.parametrize("x", [1e-36, 1e-30, 3.2975858968125234e-24, 4.695471382493421e-24,
                               1e-20, 1e-16, 1e-14, 1e-13, 1e-12])
def test_catch_up_flat_root_within_root_tol(x):
    # offset 0, x -> 0: f'(root) = -2 sin^2(root/4) -> 0, so the computed
    # residual is rounding noise near the root and says nothing of its error;
    # a residual-based stop or sign check lands up to 2.4e-8 away here
    y = solve_meeting(x, 0.0)
    assert y == solve_meeting_arr(np.array([x]), 0.0)[0]
    assert abs(y - catch_up_reference(x, 0.0)) <= ROOT_TOL


def _catch_up_twin_mismatches(xs, offset, ys):
    """x values where the scalar twin's root is not the kernel's bit for bit."""
    return [x for x, y in zip(xs.tolist(), ys.tolist()) if solve_meeting(x, offset) != y]


@pytest.mark.parametrize("offset", OFFSETS)
def test_catch_up_twin_matches_kernel_on_random_x(offset):
    hi = (2.0 * math.pi - offset) / 2.0
    xs = np.concatenate([np.random.RandomState(int(10 * offset)).uniform(0.0, hi, 10**5),
                         [0.0, hi, 1e-300, 1e-24, 1e-13]])
    assert not _catch_up_twin_mismatches(xs, offset, solve_meeting_arr(xs, offset))


def kepler_reference(c):
    """u with u - sin u = c by mpmath Newton from (6c)**(1/3), which lies
    left of the root; the sign of u - sin u - c at u -/+ 1e-30 certifies it."""
    c = mpmath.mpf(c)
    u = mpmath.cbrt(6 * c)
    for _ in range(60):
        step = (u - mpmath.sin(u) - c) / (1 - mpmath.cos(u))
        u -= step
        if abs(step) <= u * mpmath.mpf("1e-50"):
            break
    delta = mpmath.mpf("1e-30")
    assert u - delta - mpmath.sin(u - delta) < c < u + delta - mpmath.sin(u + delta)
    return u


def test_kepler_closed_form_over_its_domain():
    # The catch-up checks no residual, so its closed form must hold on all
    # of (_FLAT_C, pi + _C_SLACK].  A stratified sample of 4,004 c, not an
    # interval proof: the flat end, the whole range, the steep end at pi
    # and both sides of the series switch.  Measured: at most 4.6e-16 in u.
    rng = np.random.RandomState(22)
    near_switch = meeting._SERIES_BELOW + rng.uniform(-1e-3, 1e-3, 1000)
    c = np.concatenate([
        10.0 ** rng.uniform(math.log10(meeting._FLAT_C), -3.0, 1000),
        rng.uniform(0.0, math.pi, 1000),
        math.pi - 10.0 ** rng.uniform(-16.0, -1.0, 1000),
        near_switch - np.sin(near_switch),
        [np.nextafter(meeting._FLAT_C, 1.0), 1e-3, math.pi, math.pi + meeting._C_SLACK]])
    u = meeting._kepler_arr(c)
    assert [meeting._kepler(v) for v in c.tolist()] == u.tolist()
    error = max(abs(mpmath.mpf(v) - kepler_reference(w)) for v, w in zip(u.tolist(), c.tolist()))
    print(f"closed form: max |u - u*| = {float(error):.2e} over {c.size} c")
    assert 2 * error <= ROOT_TOL / 100


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
        assert catch_on_circle(x, y, t, b) == p


def _twin_mismatches(nx, ny, t0, b, ps):
    """Queries where the scalar twin's catch is not the kernel's bit for bit."""
    return [(x, y, t) for x, y, t, p in zip(nx.tolist(), ny.tolist(), t0.tolist(),
                                            ps.tolist())
            if catch_on_circle(x, y, t, b) != p]


def _hard_p_queries(n, seed, b):
    """n queries where a P catch converges slowest: N next to the circle
    (1 - |N| from 1e-12 to 0.1, a tenth of them on it), and a fifth of them
    also next to the partner's start (theta = 1e-12 to 0.1 either side of 0)."""
    rng = np.random.RandomState(seed)
    r = 1.0 - 10.0 ** rng.uniform(-12.0, -1.0, n)
    r[: n // 10] = 1.0
    t0 = rng.uniform(0.0, 2.0 * math.pi, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    near = slice(n - n // 5, n)
    phi[near] = (-b - t0[near]
                 + rng.choice([-1.0, 1.0], n // 5) * 10.0 ** rng.uniform(-12.0, -1.0, n // 5))
    return r * np.cos(phi), r * np.sin(phi), t0


@pytest.mark.parametrize("b", [0.0, 0.4, 1.3])
def test_p_catch_twin_matches_kernel_on_random_queries(b):
    # 34,000 queries a b, 102,000 in all: uniform in the disk, then the
    # slow region, where g' at the root is small
    seed = 100 + int(10 * b)
    queries = zip(_random_p_queries(20000, seed), _hard_p_queries(14000, seed, b))
    nx, ny, t0 = (np.concatenate(pair) for pair in queries)
    assert nx.size == 34000
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
    # with no Halley step the start, the root for N on the circle, settles
    # none of these points inside it, so both fall back to bisection on
    # [t0, t0 + 2 + 1e-9]; the twin bisects on floats, not through _bisect
    bisects = []
    real = meeting._bisect
    monkeypatch.setattr(meeting, "_HALLEY_STEPS", 0)
    monkeypatch.setattr(meeting, "_bisect",
                        lambda *args: bisects.append(args) or real(*args))
    nx, ny, t0 = _random_p_queries(50, 3)
    ps = catch_on_circle_arr(nx, ny, t0, 0.4)
    assert len(bisects) == 1 and bisects[0][1].size == 50
    assert not _twin_mismatches(nx, ny, t0, 0.4, ps)
    assert len(bisects) == 1
    for x, y, t, p in zip(nx, ny, t0, ps):
        assert _p_residual(x, y, t, 0.4, p - ROOT_TOL) <= 0.0
        assert _p_residual(x, y, t, 0.4, p + ROOT_TOL) >= 0.0


def test_p_catch_twin_bisects_flat_roots_on_floats(monkeypatch):
    # N on or next to the circle within 0.1 of the partner's start: the sign
    # check cannot pass at these flat roots, so many of them bisect; the twin
    # does it on floats, never through the array _bisect, bit for bit
    bisects = []
    real = meeting._bisect
    monkeypatch.setattr(meeting, "_bisect",
                        lambda *args: bisects.append(args[1].size) or real(*args))
    for b in (0.0, 0.4, 1.3):
        nx, ny, t0 = (v[-2000:] for v in _hard_p_queries(10000, 200 + int(10 * b), b))
        ps = catch_on_circle_arr(nx, ny, t0, b)
        assert sum(bisects) > 100, b
        bisects.clear()
        assert not _twin_mismatches(nx, ny, t0, b, ps)
        assert bisects == []


def test_p_catch_never_bisects_on_the_paper_grid(monkeypatch):
    # every P catch of both unlabeled face-to-face sweeps on the paper grid
    # settles inside its fixed Halley steps, with the residual changing sign
    # within ROOT_TOL of it
    catches, bisects, fallbacks = [], [], []
    real_catch, real_bisect = _batch._catch_p_arr, meeting._bisect

    def spy(nx, ny, t0, b):
        before = len(bisects)
        p = real_catch(nx, ny, t0, b)
        catches.append((nx, ny, t0, np.broadcast_to(b, p.shape), p))
        fallbacks.append(len(bisects) - before)
        return p

    monkeypatch.setattr(_batch, "_catch_p_arr", spy)
    monkeypatch.setattr(meeting, "_bisect",
                        lambda *args: bisects.append(args[1].size) or real_bisect(*args))
    for zeta in ("0", "d"):
        run_sweep(SweepConfig(), SeriesSpec(CommModel.FACE_TO_FACE, False, zeta))
    nx, ny, t0, b, p = (np.concatenate(column) for column in zip(*catches))
    g_pm = meeting._catch_g_arr(nx, ny, t0, b, p + meeting._PLUS_MINUS)[0]
    unsettled = np.count_nonzero(~((g_pm[0] <= 0.0) & (g_pm[1] >= 0.0)))
    print(f"P catches: {p.size} points in {len(catches)} calls, "
          f"{sum(fallbacks)} bisection fallbacks, {unsettled} without a sign change")
    assert p.size > 600000
    assert sum(fallbacks) == 0
    assert unsettled == 0


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
