import dataclasses
import math

import numpy as np
import pytest

from diskevac import _batch
from diskevac.cli import random_scenarios
from diskevac.geometry import SNAP_TOL, TWO_PI, ArcPos
from diskevac.scenarios import (
    CommModel,
    Scenario,
    UnsupportedRegimeError,
    classify,
    evaluate,
)
from diskevac.replay import replay
from diskevac.wireless import (
    eval_wireless_labeled,
    eval_wireless_unlabeled,
    resolve_zeta,
    worst_wireless,
)

SQRT2 = math.sqrt(2.0)


def wl(d, zeta, e1, labeled=False):
    return Scenario(CommModel.WIRELESS, labeled, d, zeta, ArcPos(e1))


def test_table1_worst_placement():
    res = eval_wireless_unlabeled(wl(math.pi, 0.0, math.pi / 4))
    assert res.time_from_perimeter == pytest.approx(math.pi / 4 + SQRT2, abs=1e-9)
    assert res.case_tag == "W1a"
    assert res.discovery_arc_x == pytest.approx(math.pi / 4)


def test_start_on_exit_is_simultaneous_zero():
    res = eval_wireless_unlabeled(wl(math.pi / 2, 0.0, 0.0))
    assert res.time_from_perimeter == 0.0
    assert res.simultaneous


def test_coincident_exits_single_exit_behavior():
    res = eval_wireless_unlabeled(wl(0.0, 0.0, 2.0 * math.pi / 3.0))
    expected = 2.0 * math.pi / 3.0 + 2.0 * math.sin(2.0 * math.pi / 3.0)
    assert res.time_from_perimeter == pytest.approx(expected, abs=1e-9)
    assert res.case_tag == "W3b"


def test_labeled_table1_placement():
    res = eval_wireless_labeled(wl(math.pi, 0.0, math.pi / 4, labeled=True))
    assert res.time_from_perimeter == pytest.approx(math.pi / 4 + SQRT2, abs=1e-9)


def test_labeled_start_on_exit():
    res = eval_wireless_labeled(wl(1.3, 0.0, 0.0, labeled=True))
    assert res.time_from_perimeter == 0.0


def test_labeled_receiver_goes_to_nearer_point():
    # E1 found at x = 0.8 (theta 1.3) with zeta = 1: the receiver's chord
    # to the other exit beats the chord back to the find
    res = eval_wireless_labeled(wl(2.0, 1.0, 1.3, labeled=True))
    expected = 0.8 + min(2.0 * math.sin(1.3), 2.0 * math.sin(2.3))
    assert res.time_from_perimeter == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(2.2917, abs=1e-3)


def test_zeta_above_d_rejected():
    with pytest.raises(UnsupportedRegimeError):
        wl(1.0, 1.5, 0.3)


def test_worst_wireless_table1_rows():
    t, _, _ = worst_wireless(math.pi, "0", False, 0.001)
    assert t == pytest.approx(math.pi / 4 + SQRT2, abs=0.01)
    t, _, _ = worst_wireless(math.pi, "d", False, 0.001)
    assert t == pytest.approx(math.pi / 4 + SQRT2, abs=0.01)
    t, _, _ = worst_wireless(math.pi, "d/2", False, 0.001)
    assert t == pytest.approx(math.pi / 2 + SQRT2, abs=0.01)


def test_resolve_zeta():
    assert resolve_zeta("0", 2.0) == 0.0
    assert resolve_zeta("d", 2.0) == 2.0
    assert resolve_zeta("d/2", 2.0) == 1.0
    assert resolve_zeta("0.75", 2.0) == 0.75
    assert resolve_zeta(0.3, 2.0) == 0.3


def test_dispatch_total_and_single_valued():
    # every grid placement yields exactly one tag, and evaluation never raises
    grid = _batch.exit_grid(0.01)
    for d in (0.0, 0.4, 1.0, 2.0, 2.8, math.pi):
        for zeta in {0.0, d / 2.0, d}:
            times, codes = _batch.batch_wireless(d, zeta, False, grid)
            assert np.all(np.isfinite(times))
            assert np.all(codes >= 0)


def test_reflection_symmetry_unlabeled():
    rng = np.random.RandomState(9)
    for _ in range(200):
        d = rng.uniform(0.0, math.pi)
        zeta = rng.uniform(0.0, d)
        e1 = rng.uniform(0.0, TWO_PI)
        a = eval_wireless_unlabeled(wl(d, zeta, e1))
        # reflect the exit pair across the x-axis: e1' = -(e1 + d)
        b = eval_wireless_unlabeled(wl(d, zeta, -(e1 + d) % TWO_PI))
        assert a.time_from_perimeter == pytest.approx(
            b.time_from_perimeter, abs=1e-9)
        assert a.r1_exit_time == pytest.approx(b.r2_exit_time, abs=1e-9)
        assert a.r2_exit_time == pytest.approx(b.r1_exit_time, abs=1e-9)
    # The scalar evaluators of all three unlabeled families on the verify
    # corpus: the mirror swaps the robots' roles, and the times with them.
    # Exits within SNAP_TOL of a start are left out: the mirror's rounding
    # may carry such an exit across the edge of the snap band.
    checked = 0
    for scn in random_scenarios(0, 5000):
        b = scn.zeta / 2.0
        if scn.labeled or any(abs(math.remainder(e.theta - s, TWO_PI)) <= SNAP_TOL
                              for e in (scn.e1, scn.e2) for s in (b, -b)):
            continue
        checked += 1
        a = evaluate(scn)
        m = evaluate(dataclasses.replace(scn, e1=ArcPos(-(scn.e1.theta + scn.d))))
        assert abs(a.time_from_perimeter - m.time_from_perimeter) <= 1e-11, scn
        assert abs(a.r1_exit_time - m.r2_exit_time) <= 1e-11, scn
        assert abs(a.r2_exit_time - m.r1_exit_time) <= 1e-11, scn
    assert checked > 2900


def test_labeled_never_slower_than_unlabeled():
    grid = _batch.exit_grid(0.002)
    for d in (0.3, 1.0, 1.26, 2.0, 3.0, math.pi):
        for zeta in (0.0, d / 2.0, d):
            tu, _ = _batch.batch_wireless(d, zeta, False, grid)
            tl, _ = _batch.batch_wireless(d, zeta, True, grid)
            assert float((tl - tu).max()) <= 1e-9


def test_batch_matches_scalar():
    rng = np.random.RandomState(2)
    for _ in range(25):
        d = rng.uniform(0.0, math.pi)
        zeta = rng.uniform(0.0, d) if d > 0 else 0.0
        e1s = rng.uniform(0.0, TWO_PI, size=40)
        for labeled, fn in ((False, eval_wireless_unlabeled),
                            (True, eval_wireless_labeled)):
            times, codes = _batch.batch_wireless(d, zeta, labeled, e1s)
            for e1, t, c in zip(e1s, times, codes):
                res = fn(wl(d, zeta, float(e1), labeled=labeled))
                assert res.time_from_perimeter == pytest.approx(float(t), abs=1e-9)
                assert res.case_tag == _batch.decode_tag(c)
    # Near-simultaneous finds: the exits sit symmetric about the x-axis, so
    # both robots find at the same time, then E1 moves gap/2 (probes with
    # finds 1e-12 < |t1 - t2| <= 1e-9 apart once raised in both kernels).
    # Each robot exits where its own sweep ends, so both report the later find.
    for labeled, fn in ((False, eval_wireless_unlabeled), (True, eval_wireless_labeled)):
        for d in (0.4, 1.0, 2.0, 3.0):
            zeta = 0.3 * d
            for gap in (5e-11, -5e-11, 5e-10, -5e-10):
                e1 = math.pi - d / 2.0 + gap / 2.0
                times, codes = _batch.batch_wireless(d, zeta, labeled, np.array([e1]))
                scn = wl(d, zeta, e1, labeled=labeled)
                res = fn(scn)
                assert res.time_from_perimeter == float(times[0]), (labeled, d, gap)
                assert res.case_tag == _batch.decode_tag(codes[0]) == "W-sim"
                assert replay(scn)[2] == pytest.approx(res.time_from_perimeter, abs=1e-12)


@pytest.mark.parametrize("d, zeta, e1", [(1.1, 0.55, 1.375), (0.93, 0.93, 1.395)])
def test_batch_candidate_at_finder_start(d, zeta, e1):
    # e1 = d + zeta/2 puts a candidate on the finder's start point, where
    # the angle arithmetic rounds to -5.6e-17; np.mod alone makes that 2*pi,
    # an unswept candidate, and the batch used to report W1a
    times, codes = _batch.batch_wireless(d, zeta, False, np.array([e1]))
    scn = wl(d, zeta, e1)
    res = eval_wireless_unlabeled(scn)
    assert _batch.decode_tag(codes[0]) == res.case_tag == "W3b"
    assert float(times[0]) == pytest.approx(res.time_from_perimeter, abs=1e-12)
    assert replay(scn)[2] == pytest.approx(float(times[0]), abs=1e-9)
    if d == 1.1:
        assert float(times[0]) == pytest.approx(2.975846, abs=1e-6)


def _case_conditions(tag, x, zeta, d):
    """Closed-form inequality conditions behind each wireless case."""
    if tag == "W1a":
        return 2.0 * x + zeta <= d
    if tag == "W1b":
        return x <= d < x + zeta and d + 2.0 * x + zeta < TWO_PI
    if tag == "W1c":
        return x <= d < x + zeta and d + x + zeta > TWO_PI
    if tag == "W2":
        return x < d and x + zeta + d < TWO_PI < 2.0 * x + zeta + d
    if tag == "W3a":
        return x + zeta <= d < 2.0 * x + zeta and d + 2.0 * x + zeta < TWO_PI
    if tag == "W3b":
        return d < x and d + 2.0 * x + zeta < TWO_PI
    return None


def test_geometric_dispatch_matches_case_inequalities():
    # away from condition boundaries the geometric predicates must agree
    # with the closed-form inequality set
    rng = np.random.RandomState(17)
    margin = 1e-6
    checked = 0
    for _ in range(3000):
        d = rng.uniform(0.05, math.pi - 0.05)
        zeta = rng.uniform(0.0, d)
        e1 = rng.uniform(0.0, TWO_PI)
        res = eval_wireless_unlabeled(wl(d, zeta, e1))
        if res.simultaneous:
            continue
        x = res.discovery_arc_x
        boundaries = (
            2.0 * x + zeta - d,
            x - d,
            x + zeta - d,
            d + 2.0 * x + zeta - TWO_PI,
            d + x + zeta - TWO_PI,
        )
        if min(abs(v) for v in boundaries) < margin:
            continue
        cond = _case_conditions(res.case_tag, x, zeta, d)
        if cond is None:
            continue
        assert cond, (res.case_tag, d, zeta, e1, x)
        checked += 1
    assert checked > 1000


@pytest.mark.parametrize("d, model, labeled", [
    pytest.param(d, model, labeled, id=f"{prefix}{d:g}")
    for prefix, model, labeled in (("", CommModel.WIRELESS, False),
                                   ("labeled-", CommModel.WIRELESS, True),
                                   ("f2f-labeled-", CommModel.FACE_TO_FACE, True))
    for d in (1e-9, 1.5e-9, 2e-9, 3e-9)
])
def test_batch_matches_scalar_when_d_is_near_angle_tol(d, model, labeled):
    # exits closer than COINCIDENT_D = 2e-9 are one exit; above it no
    # candidate d away from the find lies within ANGLE_TOL of it, so no
    # rounding decides whether a candidate is the find
    e1s = np.concatenate([_batch.exit_grid(0.05),
                          np.random.RandomState(5).uniform(0.0, TWO_PI, 60)])
    for zeta in (0.0, d / 2.0, d):
        times, codes = _batch.batch_cell(classify(model, labeled, d, zeta), d, zeta, e1s)
        for e1, t, c in zip(e1s, times, codes):
            res = evaluate(Scenario(model, labeled, d, zeta, ArcPos(float(e1))))
            assert res.time_from_perimeter == pytest.approx(float(t), abs=1e-9)
            assert res.case_tag == _batch.decode_tag(c), (d, zeta, e1)
