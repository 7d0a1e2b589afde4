"""The sweep kernels' angle wraps, input domain, signed zeros, band edges and
the relations every policy must keep: reflection and labeled-never-slower."""

import math
import platform
import random
import resource
import time

import numpy as np
import pytest

from diskevac import _batch
from diskevac.geometry import ANGLE_TOL, SNAP_TOL, TWO_PI, ArcPos, angle_close
from diskevac.meeting import solve_meeting
from diskevac.replay import replay, verify_agreement
from diskevac.scenarios import CommModel, Frame, Regime, Scenario, candidates_coincide, evaluate
from diskevac.sweep import ALL_SERIES, SweepConfig, series_blocks, series_cells

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


@pytest.mark.parametrize("step", [0.0, -0.1, math.nan, math.inf])
def test_worst_cell_refuses_an_exit_step_by_name(step):
    with pytest.raises(ValueError, match=f"^exit step {step} is not finite and > 0$"):
        _batch.worst_cells([(1.0, 0.0, Regime.F2F_SAME)], step)


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
    # exit ahead, and 3), the P catch only on case-3 points that reach N in
    # time
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
        x, found, _, sim, ahead, _ = _batch._f2f_frame(d, 0.0, grid)
        y = _batch.solve_meeting_arr(x, 0.0)
        t_a = _batch._up2(-(found + d))
        c1 = x + y <= d
        c2 = ~c1 & (x <= d / 2.0)
        c3 = ~c1 & ~c2 & (x < d)
        read = ~sim & ((c2 & (y > t_a) & ahead) | c3)
        go, hit, *_ = _batch._case3_arr(x[c3], d)
        assert sizes["_second_exit_arr"] == [np.count_nonzero(read)], d
        assert sum(sizes["_catch_p_arr"]) == np.count_nonzero(go & hit), d
        assert np.count_nonzero(read) < np.count_nonzero(~sim), d


def test_f2f_same_case_4_puts_the_exit_ahead_of_the_partner():
    # Case 4 (x >= d): the trailing candidate lies in the finder's own sweep,
    # so the other exit is ahead, and the partner, not the first finder,
    # reaches it at t_a >= x (>= d): it exits there without a second-finder
    # dance.  Every 5th cell of the paper grid and 20,000 random (d, e1), in
    # the kernel's frame and, for the random ones, the scalar Frame.
    rng = np.random.default_rng(24)
    d_rand, e_rand = rng.uniform(0.0, math.pi, 20000), rng.uniform(0.0, TWO_PI, 20000)
    d_grid = np.array(SweepConfig().d_grid()[::5])[:, np.newaxis]
    points = 0
    for d, e1s in ((d_grid, _batch.exit_grid(0.001)), (d_rand, e_rand)):
        x, found, _, sim, ahead, _ = _batch._frame(d, 0.0, e1s)
        y = _batch.solve_meeting_arr(x, 0.0)
        c4 = ~sim & (x + y > d) & (x >= d)
        t_a = _batch._up2(-(found + d))
        assert ahead[c4].all()
        assert (t_a[c4] >= x[c4] - ANGLE_TOL).all()
        points += np.count_nonzero(c4)
    assert points > 100000
    scalar = 0
    for d, e1 in zip(d_rand.tolist(), e_rand.tolist()):
        f = Frame(Scenario(CommModel.FACE_TO_FACE, False, d, 0.0, ArcPos(e1)))
        if f.sim or f.x + solve_meeting(f.x, 0.0) <= d or f.x < d:
            continue
        assert f.ahead and f.partner_time(f.ca.theta) >= f.x - ANGLE_TOL, (d, e1)
        scalar += 1
    assert scalar > 2000


W, F = CommModel.WIRELESS, CommModel.FACE_TO_FACE
CASE_PLACEMENTS = [  # (tag, model, labeled, d, zeta, e1): one placement per tag
    ("W-sim", W, False, 1.58, 0.0, 0.0),
    ("W1a", W, False, 1.58, 0.0, 5.099),
    ("W1b", W, False, 1.58, 0.79, 3.124),
    ("W1c", W, False, 2.52, 1.26, 0.622),
    ("W2", W, False, 1.8, 0.9, 0.446),
    ("W3a", W, False, 1.58, 0.0, 1.185),
    ("W3b", W, False, 1.58, 0.0, 2.352),
    ("WL-L1", W, True, 1.58, 0.0, 3.142),
    ("WL-L2", W, True, 1.58, 0.79, 4.704),
    ("F0-sim", F, False, 1.58, 0.0, 0.0),
    ("F0-1", F, False, 1.58, 0.0, 4.703),
    ("F0-2a", F, False, 1.58, 0.0, 0.435),
    ("F0-2b", F, False, 2.25, 0.0, 5.158),
    ("F0-3a", F, False, 1.58, 0.0, 5.493),
    ("F0-3b", F, False, 1.62, 0.0, 1.614),
    ("F0-4a", F, False, 1.58, 0.0, 1.611),
    ("F0-4c", F, False, 1.58, 0.0, 2.352),
    ("Fd-sim", F, False, math.pi, math.pi, 0.0),
    ("Fd-1a", F, False, 1.58, 1.58, 5.463),
    ("Fd-1b", F, False, 1.58, 1.58, 2.352),
    ("Fd-1c", F, False, 1.58, 1.58, 0.426),
    ("Fd-2a", F, False, 1.58, 1.58, 1.988),
    ("Fd-2b", F, False, 1.57, 1.57, 2.357),
    ("Fd-2c", F, False, 1.27, 1.27, 1.909),
    ("FL-1", F, True, 1.58, 0.0, 6.244),
    ("FL-2", F, True, 1.58, 0.0, 5.493),
    ("FL-3", F, True, 1.58, 0.0, 3.883),
    ("FL-4", F, True, 1.58, 0.0, 2.352),
]


def test_case_placements_cover_every_tag():
    assert [row[0] for row in CASE_PLACEMENTS] == list(_batch.TAG_LIST)
    assert len(_batch.TAG_LIST) == 28


@pytest.mark.parametrize("tag, model, labeled, d, zeta, e1", CASE_PLACEMENTS,
                         ids=[row[0] for row in CASE_PLACEMENTS])
def test_each_case_tag_is_reached_by_both_twins(tag, model, labeled, d, zeta, e1):
    scn = Scenario(model, labeled, d, zeta, ArcPos(e1))
    out = evaluate(scn)
    times, codes = _batch.batch_cell(scn.regime, d, zeta, np.array([e1]))
    assert out.case_tag == _batch.decode_tag(codes[0]) == tag
    assert abs(out.time_from_perimeter - float(times[0])) <= 1e-12


def test_f2f_diff_partner_reaches_p_no_later_than_x(monkeypatch):
    # Fd-1c catches the partner at P without asking whether it passed X
    # first: the P-catch residual at the partner's time to X, t_x - t_n - s,
    # is at least d - 2*sin(d/2) >= 0.  Checked on every Fd-1c point of the
    # paper grid.
    catches = []
    real = _batch._catch_p_arr
    monkeypatch.setattr(_batch, "_catch_p_arr",
                        lambda *args: catches.append(real(*args)) or catches[-1])
    grid = _batch.exit_grid(0.001)
    points = 0
    for d in SweepConfig().d_grid():
        catches.clear()
        _, codes = _batch.batch_f2f_diff(d, grid)
        x, found, _, sim, _, behind = _batch._f2f_frame(d, d, grid)
        y = _batch.solve_meeting_arr(x, d)
        t_a = _batch._up2(-d / 2.0 - (found + d))
        m1c = (x < d) & ~(t_a > y) & behind  # the kernel's 1c mask
        assert np.all(codes[m1c & ~sim] == _batch.encode_tag("Fd-1c")), d
        assert len(catches) == np.any(m1c), d
        if catches:
            t_x = _batch._up2(-d / 2.0 - found)[m1c]
            assert np.all(catches[0] <= t_x), d
            points += t_x.size
    assert points > 300000


ANY_ZETA = (lambda d: 0.0, lambda d: d / 2.0, lambda d: d)
FAMILIES = (  # (model, labeled, zeta policies)
    (CommModel.FACE_TO_FACE, False, (lambda d: 0.0,)),
    (CommModel.FACE_TO_FACE, False, (lambda d: d,)),
    (CommModel.FACE_TO_FACE, True, ANY_ZETA),
    (CommModel.WIRELESS, False, ANY_ZETA),
    (CommModel.WIRELESS, True, ANY_ZETA),
)


def _start_edge(rng):
    """An exit k*1e-10 behind a robot's start, k = 1..20, in any family."""
    model, labeled, zetas = rng.choice(FAMILIES)
    d = rng.uniform(0.0, math.pi)
    zeta = rng.choice(zetas)(d)
    gap = rng.randint(1, 20) * 1e-10
    at = zeta / 2.0 - gap if rng.random() < 0.5 else -zeta / 2.0 + gap  # behind R1 or R2
    return Scenario(model, labeled, d, zeta, ArcPos(at if rng.random() < 0.5 else at - d))


def _near_simultaneous(rng):
    """Wireless finds k*1e-10 apart, k = 1..20: R1 at E1 and R2 at E2 part by -2*e1 - d."""
    d = rng.uniform(0.0, math.pi)
    gap = rng.choice((1, -1)) * rng.randint(1, 20) * 1e-10
    e1 = (-d - gap) / 2.0 + rng.choice((0.0, math.pi))
    return Scenario(CommModel.WIRELESS, rng.random() < 0.5, d, rng.uniform(0.0, d), ArcPos(e1))


@pytest.mark.parametrize("placement", [_start_edge, _near_simultaneous],
                         ids=["start-edge", "near-simultaneous"])
def test_scalar_replay_and_kernel_agree_at_band_edges(placement):
    # placements a rounding error away from the edges of the start snap, the
    # swept reach and the simultaneous-find band: the scalar evaluator, its
    # replay and the kernel must take the same branch
    rng = random.Random(3)
    for _ in range(400):
        scn = placement(rng)
        out = evaluate(scn)
        tr1, tr2, makespan = replay(scn, out)
        assert verify_agreement(scn, tr1, tr2).passed, scn
        assert makespan == pytest.approx(out.time_from_perimeter, abs=1e-9), scn
        times, codes = _batch.batch_cell(scn.regime, scn.d, scn.zeta, np.array([scn.e1.theta]))
        assert float(times[0]) == pytest.approx(out.time_from_perimeter, abs=1e-9), scn
        assert _batch.decode_tag(codes[0]) == out.case_tag, scn


@pytest.mark.parametrize("x", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("eps", [0.0, 1e-10, 5e-10])
def test_f2f_same_case_1_leaves_at_m_when_m_is_the_other_exit(x, eps):
    # zeta = 0 case 1 with d = x + y + eps: the catch point M lies within
    # ANGLE_TOL of the trailing exit, so both robots stand on it at y
    y = solve_meeting(x, 0.0)
    d = x + y + eps
    e1 = (x - d) % TWO_PI
    out = evaluate(Scenario(CommModel.FACE_TO_FACE, False, d, 0.0, ArcPos(e1)))
    times, codes = _batch.batch_f2f_same(d, np.array([e1]))
    assert out.case_tag == _batch.decode_tag(codes[0]) == "F0-1"
    assert float(times[0]) == pytest.approx(out.time_from_perimeter, abs=1e-9)


@pytest.mark.parametrize("d", [0.0, 5e-10, 1e-9, 1.5e-9, math.pi - 1e-10, math.pi, None],
                         ids=["0", "5e-10", "1e-9", "1.5e-9", "pi-1e-10", "pi", "random"])
def test_scalar_and_kernel_frames_put_the_other_exit_on_one_side(d):
    # The frame knows which exit it found, and so which candidate holds the
    # other one; the reference is the tolerance test that rule replaced.
    # Where the candidates are one point (d near 0 or pi) the exit is ahead.
    rng = np.random.RandomState(4)
    for model, labeled, zetas in FAMILIES:
        for zeta_of in zetas:
            for _ in range(3):
                dd = rng.uniform(0.0, math.pi) if d is None else d
                zeta = zeta_of(dd)
                e1s = rng.uniform(0.0, TWO_PI, 100)
                ahead = _batch._frame(dd, zeta, e1s)[4]
                for e1, kernel in zip(e1s, ahead):
                    f = Frame(Scenario(model, labeled, dd, zeta, ArcPos(float(e1))))
                    assert f.ahead == kernel == angle_close(f.other, f.found + dd), \
                        (model, labeled, dd, zeta, e1)


# Reflecting the disk across the axis through the starts swaps the robots
# and maps the unlabeled layout {e1, e1 + d} to e1' = -(e1 + d); a policy
# that acts only on what its robots know keeps the makespan.
PAPER = SweepConfig()
CELL_STRIDE = 9  # every 9th cell of the paper grid
UNLABELED = [s for s in ALL_SERIES if not s.labeled]


def _wrap(a):
    r = np.mod(a, TWO_PI)
    return np.where(r >= TWO_PI, 0.0, r)


def _candidate_on_a_start(e1s, d, zeta):
    """A candidate that holds no exit (e1 - d or e1 + 2d) within SNAP_TOL of
    a start +-b: there the time jumps, and the reflection lands on the other
    side of the jump."""
    b = zeta / 2.0
    return np.logical_or.reduce([np.abs(_wrap(c - start + math.pi) - math.pi) <= SNAP_TOL
                                 for c in (e1s - d, e1s + 2.0 * d) for start in (b, -b)])


def _reflection_breaks(series):
    """Exits of every CELL_STRIDE-th cell whose reflected layout takes another time."""
    grid = _batch.exit_grid(PAPER.exit_step)
    broken = 0
    for d, zeta, regime in series_cells(PAPER, series)[::CELL_STRIDE]:
        times, _ = _batch.batch_cell(regime, d, zeta, grid)
        mirror = _wrap(-(grid + d))
        edge = _candidate_on_a_start(grid, d, zeta)
        differs = np.abs(times - _batch.batch_cell(regime, d, zeta, mirror)[0]) > 1e-11
        broken += np.count_nonzero(differs & ~edge)
        # on the jump, the reflection matches one of its one-sided values
        sides = [_batch.batch_cell(regime, d, zeta, _wrap(mirror[edge] + s))[0]
                 for s in (-1e-11, 1e-11)]
        broken += np.count_nonzero(np.minimum(*(np.abs(t - times[edge]) for t in sides)) > 1e-9)
    return broken


@pytest.mark.parametrize("series", UNLABELED, ids=lambda s: s.key)
def test_reflected_layout_takes_the_same_time(series):
    assert _reflection_breaks(series) == 0


def test_reflection_catches_a_side_mask_without_the_mirror(monkeypatch):
    frame = _batch._frame

    def no_mirror(d, zeta, e1s):  # ahead is R1's first find being E1, mirrored or not
        x, found, other, sim, _, trivial = frame(d, zeta, e1s)
        b = zeta / 2.0
        t1a, t1b = (_batch._hit(_batch._up(e - b)) for e in (e1s, _batch._down(e1s + d)))
        return x, found, other, sim, (t1a <= t1b) | candidates_coincide(d), trivial

    monkeypatch.setattr(_batch, "_frame", no_mirror)
    for series in UNLABELED:
        if series.zeta_policy != "0":
            assert _reflection_breaks(series) > 0, series.key


def test_f2f_labeled_is_never_slower_than_unlabeled():
    grid = _batch.exit_grid(PAPER.exit_step)
    for d in PAPER.d_grid()[::CELL_STRIDE]:
        same, diff = _batch.batch_f2f_same(d, grid)[0], _batch.batch_f2f_diff(d, grid)[0]
        assert np.all(_batch.batch_f2f_labeled(d, 0.0, grid)[0] <= same + 1e-12), d
        assert np.all(_batch.batch_f2f_labeled(d, d, grid)[0] <= diff + 1e-12), d


@pytest.mark.parametrize("series", ALL_SERIES, ids=lambda s: s.key)
def test_block_rows_equal_single_cells_bit_for_bit(series):
    # every block of a coarse sweep, and the paper-grid blocks holding
    # d = 0, 1.5 and pi: the kernels are elementwise, so a cell's row of a
    # block call holds the bytes of the cell alone
    coarse = SweepConfig(d_step=0.1, exit_step=0.01)
    paper = [b for b in series_blocks(PAPER, series) if {0.0, 1.5, math.pi} & {c[0] for c in b}]
    assert len(paper) == 3
    for cfg, blocks in ((coarse, series_blocks(coarse, series)), (PAPER, paper)):
        grid = _batch.exit_grid(cfg.exit_step)
        for block in blocks:
            regime = block[0][2]
            assert all(c[2] is regime for c in block), block  # never two regimes in a block
            times, codes = _batch.batch_block(block, grid)
            for row, (d, zeta, regime) in enumerate(block):
                cell_times, cell_codes = _batch.batch_cell(regime, d, zeta, grid)
                assert times[row].tobytes() == cell_times.tobytes(), (d, zeta)
                assert codes[row].tobytes() == cell_codes.tobytes(), (d, zeta)


def test_per_point_d_and_zeta_equal_one_call_per_point():
    # d and zeta may also vary point by point, one scenario a point
    rng = np.random.default_rng(5)
    d, e1s, share = (rng.uniform(0.0, hi, 100) for hi in (math.pi, TWO_PI, 1.0))
    for name, kernel in KERNELS.items():
        zeta = {"f2f-same": 0.0 * d, "f2f-diff": d}.get(name, share * d)
        times, codes = kernel(d, zeta, e1s)
        for i in range(d.size):
            one = kernel(float(d[i]), float(zeta[i]), e1s[i:i + 1])
            assert (one[0].tobytes(), one[1].tobytes()) == \
                (times[i:i + 1].tobytes(), codes[i:i + 1].tobytes()), (name, i)


def test_sweep_blocks_split_where_the_regime_changes():
    # unlabeled f2f at zeta = d routes d = 0 to F2F_SAME: a block of its own
    for series in ALL_SERIES:
        blocks = series_blocks(PAPER, series)
        assert [c for b in blocks for c in b] == series_cells(PAPER, series)
        per_block = _batch.BLOCK_POINTS // _batch.exit_count(PAPER.exit_step)
        assert max(map(len, blocks)) == per_block >= 3
        changes = sum(a[-1][2] is not b[0][2] for a, b in zip(blocks, blocks[1:]))
        assert changes == (series.key == "f2f-unlab-zd"), series.key
    first = series_blocks(PAPER, ALL_SERIES[7])[0]
    assert [(d, regime) for d, _, regime in first] == [(0.0, Regime.F2F_SAME)]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator thresholds")
def test_kernel_temporaries_do_not_fault_again():
    """Importing _batch keeps freed 250 KB temporaries in the heap: without
    it each of these cells faults about 1,100 pages back in.  A sweep block
    at the point budget stays below the mmap threshold: after one warm
    block of a kernel, the next block faults nothing back in."""
    cells = [(d, d / 2, regime)
             for d in (1.0, 2.0, 3.0) for regime in (Regime.WIRELESS, Regime.WIRELESS_LABELED)]
    _batch.worst_cells(cells[:1], 0.0002)
    t0, flt0 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for cell in cells:
        _batch.worst_cells([cell], 0.0002)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0
    assert faults < 100
    assert time.perf_counter() - t0 < 0.2

    for series in ALL_SERIES:
        warm, block = series_blocks(PAPER, series)[60:62]
        assert len(block) * _batch.exit_count(PAPER.exit_step) <= _batch.BLOCK_POINTS
        for run in (warm, block):
            if run is block:
                flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            _batch.worst_cells(run, PAPER.exit_step)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0
        assert faults < 100, series.key
