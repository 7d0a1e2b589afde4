"""The sweep kernels' angle wraps, input domain and signed zeros."""

import math

import numpy as np
import pytest

from diskevac import _batch
from diskevac.geometry import TWO_PI

FOUR_PI = 2.0 * TWO_PI


def _draws(lo, hi):
    """10**6 uniform draws in [lo, hi) plus the edge cases that lie in it.

    The edge cases: lo, both ends' inner nextafter neighbours, +-2*pi,
    -4*pi and its upper neighbour, +-0.0 and the smallest values either
    side of 0, whose + 2*pi rounds to 2*pi.
    """
    up, down = np.inf, -np.inf
    edges = np.array([lo, np.nextafter(lo, up), np.nextafter(hi, down),
                      TWO_PI, -TWO_PI, np.nextafter(TWO_PI, down), np.nextafter(TWO_PI, up),
                      np.nextafter(-TWO_PI, down), np.nextafter(-TWO_PI, up),
                      -FOUR_PI, np.nextafter(-FOUR_PI, up), 0.0, -0.0,
                      np.nextafter(0.0, up), np.nextafter(-0.0, down)])
    edges = edges[(edges >= lo) & (edges < hi)]
    rand = np.random.default_rng(0).uniform(lo, hi, 10**6)
    return np.concatenate([edges, rand[rand < hi]])


@pytest.mark.parametrize("wrap, lo, hi", [
    (_batch._up, -TWO_PI, TWO_PI),
    (_batch._up2, -FOUR_PI, TWO_PI),
    (_batch._down, 0.0, FOUR_PI),
    (lambda a: _batch._up(_batch._down(a)), -TWO_PI, FOUR_PI),  # _close's wrap
])
def test_wrap_is_np_mod_bit_for_bit(wrap, lo, hi):
    a = _draws(lo, hi)
    zeros = np.signbit(a[a == 0.0])
    assert zeros.any() and not zeros.all()  # -0.0 and +0.0 both drawn
    got, want = wrap(a), np.mod(a, TWO_PI)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


KERNELS = {  # (d, zeta, e1s) -> (times, codes); same and diff ignore zeta
    "wireless": lambda d, zeta, e1s: _batch.batch_wireless(d, zeta, False, e1s),
    "wireless-labeled": lambda d, zeta, e1s: _batch.batch_wireless(d, zeta, True, e1s),
    "f2f-labeled": _batch.batch_f2f_labeled,
    "f2f-same": lambda d, zeta, e1s: _batch.batch_f2f_same(d, e1s),
    "f2f-diff": lambda d, zeta, e1s: _batch.batch_f2f_diff(d, e1s),
}


@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("e1", [-0.1, 7.0, TWO_PI, math.nan, math.inf, -math.inf])
def test_kernels_refuse_exits_outside_domain(name, e1):
    with pytest.raises(ValueError):
        KERNELS[name](1.0, 1.0, np.array([0.5, e1]))


@pytest.mark.parametrize("name", ["wireless", "wireless-labeled", "f2f-labeled"])
@pytest.mark.parametrize("d, zeta", [(3.2, 0.0), (-0.1, 0.0), (-1e-13, 0.0), (1.0, 1.1),
                                     (1.0, -0.1), (math.nan, 0.0), (1.0, math.nan)])
def test_kernels_refuse_d_zeta_outside_domain(name, d, zeta):
    with pytest.raises(ValueError):
        KERNELS[name](d, zeta, np.array([0.5]))


def test_kernels_take_the_slack_scenarios_allow():
    grid = _batch.exit_grid(0.5)
    d = math.pi + 1e-12
    for name, kernel in KERNELS.items():
        times, _ = kernel(d, 0.0 if name == "f2f-same" else d, grid)
        assert np.all(np.isfinite(times)), name
    assert np.all(np.isfinite(_batch.batch_wireless(1.0, 1.0 + 1e-12, False, grid)[0]))


def test_no_kernel_returns_negative_zero():
    # at zeta = 0 and e1 = 0 the mirrored sweep's arc -b - e1 is -0.0, and
    # np.mod makes it +0.0; so must the wraps that replace it
    grid = _batch.exit_grid(0.01)
    checked = 0
    for d in (0.0, 0.01, 0.5, 1.0, 2.0, 2.5, math.pi):
        for name, kernel in KERNELS.items():
            for zeta in (0.0, d):
                if (name == "f2f-same" and zeta != 0.0) or (name == "f2f-diff" and zeta != d):
                    continue
                times, _ = kernel(d, zeta, grid)
                assert not np.any(np.signbit(times)), (name, d, zeta)
                checked += times.size
    assert checked >= 50 * grid.size


def test_f2f_same_solves_only_what_its_cases_read(monkeypatch):
    # the second-finder dance runs only where t_apart is read (2b with the
    # exit ahead, 3, 4 without a catch), the P catch only on case-3 points
    # that reach N in time
    sizes = {"_second_exit_arr": [], "_catch_p_arr": []}
    for name, calls in sizes.items():
        real = getattr(_batch, name)
        monkeypatch.setattr(_batch, name, lambda a, *rest, real=real, calls=calls:
                            calls.append(a.size) or real(a, *rest))
    grid = _batch.exit_grid(0.001)
    for d in (0.8, 1.6, 2.4, 3.1):
        for calls in sizes.values():
            calls.clear()
        _batch.batch_f2f_same(d, grid)
        x, found, sim, ahead, _ = _batch._f2f_frame(d, 0.0, grid)
        y = _batch.solve_meeting_arr(x, 0.0)
        t_a = _batch._up2(-(found + d))
        c1 = x + y <= d
        c2 = ~c1 & (x <= d / 2.0)
        c3 = ~c1 & ~c2 & (x < d)
        c4 = ~c1 & ~c2 & ~c3
        read = ~sim & ((c2 & (y > t_a) & ahead) | c3 | (c4 & (y >= t_a)))
        go, hit, *_ = _batch._case3_arr(x[c3], d)
        assert sizes["_second_exit_arr"] == [np.count_nonzero(read)], d
        assert sum(sizes["_catch_p_arr"]) == np.count_nonzero(go & hit), d
        assert np.count_nonzero(read) < np.count_nonzero(~sim), d
