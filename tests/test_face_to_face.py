import math

import numpy as np
import pytest

from diskevac import _batch, face_to_face
from diskevac.face_to_face import (
    eval_f2f_diff,
    eval_f2f_labeled,
    eval_f2f_same,
    intercept_moving_target,
    worst_f2f,
)
from diskevac.geometry import ANGLE_TOL, TWO_PI, ArcPos, angle_close, cartesian, point_distance
from diskevac.meeting import catch_on_circle, solve_meeting
from diskevac.replay import POS_TOL, replay, verify_agreement
from diskevac.scenarios import CommModel, Frame, Scenario, WrongEvaluatorError, evaluate
from diskevac.sweep import SweepConfig

SQRT2 = math.sqrt(2.0)


def f2f(d, zeta, e1, labeled=False):
    return Scenario(CommModel.FACE_TO_FACE, labeled, d, zeta, ArcPos(e1))


# ---------------------------------------------------------------------------
# zeta = 0
# ---------------------------------------------------------------------------

def test_same_start_on_exit():
    res = eval_f2f_same(f2f(0.5, 0.0, 0.0))
    assert res.time_from_perimeter == 0.0
    assert res.simultaneous


def test_same_case_2b():
    # exits at 1.0 and 4.0, d = 3: the finder exits, the partner marches
    res = eval_f2f_same(f2f(3.0, 0.0, 1.0))
    assert res.case_tag == "F0-2b"
    assert res.time_from_perimeter == pytest.approx(TWO_PI - 3.0 - 1.0, abs=1e-9)


def test_same_case_4c():
    # exits at 2.2 and 4.2, d = 2: R2 found and left before R1's find
    res = eval_f2f_same(f2f(2.0, 0.0, 2.2))
    assert res.case_tag == "F0-4c"
    assert res.time_from_perimeter == pytest.approx(2.2, abs=1e-9)
    assert min(res.r1_exit_time, res.r2_exit_time) == pytest.approx(
        TWO_PI - 2.0 - 2.2, abs=1e-9)


def test_same_case_1_meet_then_candidates():
    # small x with large d: catch on the circle, then the candidate tour
    res = eval_f2f_same(f2f(3.0, 0.0, 0.1))
    assert res.case_tag == "F0-1"
    assert res.time_from_perimeter > 2.0
    assert res.r1_exit_time == pytest.approx(res.r2_exit_time, abs=1e-9)


def test_case3_twins_agree_where_the_chase_grazes_the_dancer():
    # Near a = d/2 + sin(d/2) the chase passes the dancer's exit as it
    # leaves, and the dancer is late by a few 1e-16: the twins must round
    # the chase start and both lengths alike to agree on go, hit and N.
    rng = np.random.default_rng(0)
    d = rng.uniform(0.01, math.pi, 20000)
    a = d / 2.0 + np.sin(d / 2.0) + rng.uniform(-1e-9, 1e-9, d.size)
    d = np.append(d, [2.0, 1.0])  # two grazing exits that once split the twins
    a = np.append(a, [1.8414709848078954, 0.979425538604203])
    go, hit, nx, ny, tn = _batch._case3_arr(a, d)
    for k in range(d.size):
        s_go, s_hit = face_to_face._case3_same(float(a[k]), float(d[k]))
        assert s_go == go[k], (a[k], d[k])
        if s_go:
            assert (s_hit is not None) == hit[k], (a[k], d[k])
        if s_hit is not None:
            assert s_hit[:2] == ((nx[k], ny[k]), tn[k]), (a[k], d[k])


def test_exit_behind_f0_2b_partner_never_starts_its_dance():
    # With the exit behind, the partner found it at arc a = d - x, and the
    # chase its dance weighs is this finder's own: root y, at phi = x.  2b
    # means y > t_a = 2*pi - 2d + a, so go (m < 2*pi - 2d + a) never holds,
    # and the kernel writes max(x, d - x) without a dance.
    grid = _batch.exit_grid(0.001)
    f0_2b = _batch.encode_tag("F0-2b")
    checked = 0
    for d in SweepConfig().d_grid()[::3]:
        x, _, _, sim, _, behind = _batch._f2f_frame(d, 0.0, grid)
        _, codes = _batch.batch_f2f_same(d, grid)
        a = d - x[(codes == f0_2b) & behind & ~sim]
        for a_s in a[(a > d / 2.0) & (a < d)]:
            assert not face_to_face._case3_same(float(a_s), d)[0], (a_s, d)
            checked += 1
    assert checked > 30000


def test_same_wrong_evaluator():
    with pytest.raises(WrongEvaluatorError):
        eval_f2f_same(f2f(1.0, 1.0, 0.3))
    with pytest.raises(WrongEvaluatorError):
        eval_f2f_diff(f2f(1.0, 0.0, 0.3))
    with pytest.raises(WrongEvaluatorError):
        eval_f2f_labeled(f2f(1.0, 0.0, 0.3))


# ---------------------------------------------------------------------------
# zeta = d
# ---------------------------------------------------------------------------

def test_diff_both_start_on_exits():
    res = eval_f2f_diff(f2f(1.0, 1.0, TWO_PI - 0.5))
    assert res.time_from_perimeter == 0.0
    assert res.simultaneous


def test_diff_case_2_with_viable_catch():
    # E1 found at arc 1.5 beyond B; catching beats leaving the partner to
    # march, so the dispatcher chases (realized makespan 2.78297, a hair
    # under the separate-exit value 2*pi - x - 2d = 2.78319)
    res = eval_f2f_diff(f2f(1.0, 1.0, 2.0))
    assert res.case_tag == "Fd-2c"
    assert res.time_from_perimeter == pytest.approx(2.78296, abs=1e-4)
    assert res.time_from_perimeter < TWO_PI - 1.5 - 2.0


def test_diff_case_2c_spec_placement():
    # d = 0.3, find at x = 0.35: catch at M, then the nearer exit
    res = eval_f2f_diff(f2f(0.3, 0.3, 0.15 + 0.35))
    assert res.case_tag == "Fd-2c"
    tr_makespan = _replay_makespan(f2f(0.3, 0.3, 0.5))
    assert res.time_from_perimeter == pytest.approx(tr_makespan, abs=1e-6)


def test_diff_case_1a_returns_to_found_exit():
    # tiny find with the probable exit far beyond the catch point
    d = 0.4
    res = eval_f2f_diff(f2f(d, d, d / 2.0 + 0.399))
    assert res.case_tag == "Fd-1a"
    assert res.r1_exit_time == pytest.approx(res.r2_exit_time, abs=1e-9)


def _replay_makespan(scn):
    from diskevac.replay import replay

    _, _, makespan = replay(scn)
    return makespan


# ---------------------------------------------------------------------------
# labeled
# ---------------------------------------------------------------------------

def test_labeled_start_on_exit():
    res = eval_f2f_labeled(f2f(2.0, 0.0, 0.0, labeled=True))
    assert res.time_from_perimeter == 0.0


def test_labeled_case_2_exit_ahead_of_catch():
    # find E2 at x = 0.3 (zeta = 1, d = 2): the partner reaches E1 at
    # d - zeta - x = 0.7 before any catch could finish
    e1 = (0.5 + 0.3 - 2.0) % TWO_PI
    res = eval_f2f_labeled(f2f(2.0, 1.0, e1, labeled=True))
    assert res.case_tag == "FL-2"
    assert res.time_from_perimeter == pytest.approx(0.7, abs=1e-9)


def test_labeled_case_4():
    res = eval_f2f_labeled(f2f(1.0, 0.5, 2.55, labeled=True))
    assert res.case_tag == "FL-4"
    assert res.time_from_perimeter == pytest.approx(
        TWO_PI - 1.0 - 0.5 - 2.3, abs=1e-9)


def test_labeled_case_1_and_3_chase():
    rng = np.random.RandomState(1)
    seen = set()
    for _ in range(400):
        d = rng.uniform(0.2, math.pi)
        zeta = rng.uniform(0.0, d)
        res = eval_f2f_labeled(f2f(d, zeta, rng.uniform(0, TWO_PI), labeled=True))
        seen.add(res.case_tag)
        assert res.time_from_perimeter >= 0.0
    assert {"FL-1", "FL-2", "FL-3", "FL-4"} <= seen


# ---------------------------------------------------------------------------
# interception and catch helpers
# ---------------------------------------------------------------------------

def test_intercept_straight_line_chase():
    # target runs along the x-axis from (0,0) at t=0; chaser waits at (1,1)
    hit = intercept_moving_target((1.0, 1.0), 0.0, (0.0, 0.0), 0.0, (3.0, 0.0))
    assert hit is not None
    point, t, s = hit
    assert point_distance((1.0, 1.0), point) == pytest.approx(t, abs=1e-12)
    assert s == pytest.approx(t, abs=1e-12)


def test_intercept_miss_when_late():
    # chaser far away, short target segment: no interception
    hit = intercept_moving_target((-1.0, 0.0), 0.0, (1.0, 0.0), 0.0, (1.2, 0.0))
    assert hit is None


def test_catch_on_circle_equation():
    # the returned p satisfies p - t0 = |N - partner(p)|
    n = (0.2, 0.3)
    p = catch_on_circle(*n, 1.0, 0.0)
    pos = cartesian(ArcPos(-p))
    assert p - 1.0 == pytest.approx(point_distance(n, pos), abs=1e-9)


# ---------------------------------------------------------------------------
# batch twins
# ---------------------------------------------------------------------------

def test_batch_matches_scalar_all_variants():
    rng = np.random.RandomState(8)
    for _ in range(30):
        d = rng.uniform(0.01, math.pi)
        e1s = rng.uniform(0.0, TWO_PI, size=40)
        times, codes = _batch.batch_f2f_same(d, e1s)
        for e1, t, c in zip(e1s, times, codes):
            res = eval_f2f_same(f2f(d, 0.0, float(e1)))
            assert res.time_from_perimeter == pytest.approx(float(t), abs=1e-9)
            assert res.case_tag == _batch.decode_tag(c)
        times, codes = _batch.batch_f2f_diff(d, e1s)
        for e1, t, c in zip(e1s, times, codes):
            res = eval_f2f_diff(f2f(d, d, float(e1)))
            assert res.time_from_perimeter == pytest.approx(float(t), abs=1e-9)
            assert res.case_tag == _batch.decode_tag(c)
        zeta = rng.uniform(0.0, d)
        times, codes = _batch.batch_f2f_labeled(d, zeta, e1s)
        for e1, t, c in zip(e1s, times, codes):
            res = eval_f2f_labeled(f2f(d, zeta, float(e1), labeled=True))
            assert res.time_from_perimeter == pytest.approx(float(t), abs=1e-9)
            assert res.case_tag == _batch.decode_tag(c)


def test_case_dispatch_total_on_grid():
    grid = _batch.exit_grid(0.01)
    for d in (0.0, 0.3, 1.0, 1.9, 2.6, math.pi):
        for fn in (lambda dd: _batch.batch_f2f_same(dd, grid),
                   lambda dd: _batch.batch_f2f_diff(dd, grid),
                   lambda dd: _batch.batch_f2f_labeled(dd, dd / 2.0, grid)):
            times, codes = fn(d)
            assert np.all(np.isfinite(times))
            assert np.all(codes >= 0)


def test_worst_f2f_variant_ordering_small_d():
    t_same, _, _ = worst_f2f(0.01, "same", 0.005)
    t_diff, _, _ = worst_f2f(0.01, "diff", 0.005)
    assert t_diff < t_same


def test_worst_f2f_ordering_flips_in_exception_window():
    # inside (1.895, 2.005) starting apart is the worse policy
    t_same, _, _ = worst_f2f(1.95, "same", 0.002)
    t_diff, _, _ = worst_f2f(1.95, "diff", 0.002)
    assert t_same < t_diff


def test_worst_f2f_d0_cross_check():
    # at d = 0 both variants collapse to the single-exit strategy whose
    # total time (with the center leg) reproduces the known 5.74 figure
    t_same, _, _ = worst_f2f(0.0, "same", 0.002)
    t_diff, _, _ = worst_f2f(0.0, "diff", 0.002)
    assert t_same + 1.0 == pytest.approx(5.739, abs=5e-3)
    assert t_diff == pytest.approx(t_same, abs=1e-6)


def test_near_simultaneous_labeled_batch_matches_scalar():
    # exits symmetric about the x-axis, then E1 moved gap/2, so the finds
    # lie gap apart; each robot exits where its own sweep ends, and batch and
    # scalar both report the later find
    for d in (0.4, 1.0, 2.0, 3.0):
        zeta = 0.3 * d
        for gap in (5e-11, -5e-11, 5e-10, -5e-10):
            e1 = math.pi - d / 2.0 + gap / 2.0
            times, codes = _batch.batch_f2f_labeled(d, zeta, np.array([e1]))
            scn = f2f(d, zeta, e1, labeled=True)
            res = eval_f2f_labeled(scn)
            assert res.simultaneous
            assert res.time_from_perimeter == float(times[0]), (d, gap)
            assert res.case_tag == _batch.decode_tag(codes[0])
            assert replay(scn)[2] == pytest.approx(res.time_from_perimeter, abs=1e-12)


# ---------------------------------------------------------------------------
# what the robots know
# ---------------------------------------------------------------------------

def test_second_finder_chase_and_p_gates_stay_shut(monkeypatch):
    # A second finder's partner has stopped sweeping, so a case-3 chase on
    # the circle or a catch at P would aim at nobody: _second_finder_same
    # (like _batch._second_exit_arr) never tests those gates.  Every second
    # finder the zeta = 0 policy builds on the 0.001 exit grid must sit where
    # they are shut: P (after a hit at N) or the chase root (after a miss)
    # at or beyond its own t_a.  Only placements whose partner can be a
    # second finder in the case-3 dance are evaluated.
    calls = []
    real = face_to_face._second_finder_same
    monkeypatch.setattr(face_to_face, "_second_finder_same",
                        lambda a, d: calls.append((a, d)) or real(a, d))
    grid = _batch.exit_grid(0.001)
    apart = [_batch.encode_tag(t) for t in ("F0-2b", "F0-3a", "F0-3b", "F0-4c")]
    for d in (0.3, 0.9, 1.4, 2.0, 2.6, math.pi):
        x, found, *_ = _batch._f2f_frame(d, 0.0, grid)
        _, codes = _batch.batch_f2f_same(d, grid)
        dance = [(a > d / 2.0) & (a < d - ANGLE_TOL)
                 for a in (np.mod(-(found + d), TWO_PI), d - x)]
        for e1 in grid[np.isin(codes, apart) & (dance[0] | dance[1])]:
            eval_f2f_same(f2f(d, 0.0, float(e1)))
    checked = 0
    for a, d in calls:
        if not d / 2.0 < a < d - ANGLE_TOL:
            continue
        go, hit = face_to_face._case3_same(a, d)
        t_a = TWO_PI - a - d
        if hit:
            assert catch_on_circle(*hit[0], hit[1], 0.0) >= t_a, (a, d)
        elif go:
            assert solve_meeting(a, 0.0) >= t_a, (a, d)
        checked += 1
    assert checked > 5000


def _moved(scn):
    """scn with the other exit moved to the other candidate beside the find,
    or None when that changes who finds first or when, or is simultaneous."""
    f = Frame(scn)
    if f.sim:
        return None
    sign = -1.0 if f.mirrored else 1.0  # frame angles back to the disk's
    step = -scn.d if angle_close(f.other, f.found + scn.d) else scn.d
    found, moved = sign * f.found, sign * (f.found + step)
    e1 = moved if angle_close(moved + scn.d, found) else found
    twin = Scenario(scn.model, False, scn.d, scn.zeta, ArcPos(e1))
    g = Frame(twin)
    if g.sim or g.mirrored != f.mirrored or abs(g.x - f.x) > 1e-12:
        return None
    return twin


def _position(tr, t):
    """Where a replayed robot stands at time t."""
    for seg in tr.segments:
        if t <= seg.t1:
            break
    else:
        return tr.segments[-1].p1
    if seg.kind == "arc":
        return cartesian(ArcPos(seg.theta0 + (t - seg.t0 if seg.ccw else seg.t0 - t)))
    u = (t - seg.t0) / (seg.t1 - seg.t0) if seg.t1 > seg.t0 else 1.0
    return (seg.p0[0] + u * (seg.p1[0] - seg.p0[0]), seg.p0[1] + u * (seg.p1[1] - seg.p0[1]))


@pytest.mark.parametrize("zeta_is_d", [False, True])
def test_first_finder_acts_only_on_what_it_knows(zeta_is_d):
    # Until it meets its partner, a first finder cannot tell its layout from
    # the one with the other exit at the other candidate.  Replayed in both,
    # it must stand in the same spot at every leg breakpoint of either, up to
    # its first meet in either (a partner who knows more may intercept it).
    rng = np.random.RandomState(1)
    tag_pairs = set()
    for _ in range(1500):
        d = rng.uniform(0.0, math.pi)
        scn = f2f(d, d if zeta_is_d else 0.0, rng.uniform(0.0, TWO_PI))
        twin = _moved(scn)
        if twin is None:
            continue
        finder = 1 if Frame(scn).mirrored else 0
        trs = [replay(s)[finder] for s in (scn, twin)]
        until = min(min((ev.time for ev in tr.events if ev.kind == "meet"),
                        default=tr.final_time) for tr in trs)
        for t in sorted({seg.t1 for tr in trs for seg in tr.segments if seg.t1 < until}
                        | {until}):
            assert math.dist(_position(trs[0], t), _position(trs[1], t)) <= POS_TOL, \
                (scn, twin, t)
        tag_pairs.add((evaluate(scn).case_tag, evaluate(twin).case_tag))
    # the pairs include layouts that part ways: a chase intercepted at N
    assert (("Fd-1b", "Fd-1c") if zeta_is_d else ("F0-2a", "F0-3a")) in tag_pairs


@pytest.mark.parametrize("d", [1e-9, 0.5, 2.0])
@pytest.mark.parametrize("gap", ["4e-10", "9e-10", "d-5e-10", "d-9e-10"])
def test_unlabeled_robots_start_at_the_routed_zeta(d, gap):
    # classify routes a zeta within ANGLE_TOL of 0 or d to that policy; the
    # scalar frame then starts the robots where the kernel does, at the
    # routed zeta, which the replay accepts as the true start within POS_TOL.
    zeta = float(gap) if gap[0] != "d" else d - float(gap[2:])
    e1s = np.concatenate([_batch.exit_grid(0.05),
                          np.random.RandomState(5).uniform(0.0, TWO_PI, 60)])
    regime = f2f(d, zeta, 0.0).regime
    routed = 0.0 if regime.value == "same" else d
    times, codes = _batch.batch_cell(regime, d, routed, e1s)
    for e1, t, c in zip(e1s, times, codes):
        scn = f2f(d, zeta, float(e1))
        out = evaluate(scn)
        at_routed = evaluate(f2f(d, routed, float(e1)))
        assert (out.time_from_perimeter, out.case_tag) == \
            (at_routed.time_from_perimeter, at_routed.case_tag), (zeta, e1)
        assert out.time_from_perimeter == pytest.approx(float(t), abs=1e-12), (zeta, e1)
        assert out.case_tag == _batch.decode_tag(c), (zeta, e1)
        tr1, tr2, makespan = replay(scn, out)
        assert makespan == pytest.approx(out.time_from_perimeter, abs=1e-12), (zeta, e1)
        assert verify_agreement(scn, tr1, tr2).passed, (zeta, e1)
