"""Mirror-symmetric placements where both robots find exits at once.

These layouts never land on the sweep grids (the symmetry point involves
pi), so they get constructed explicitly here: the two maneuvers are
mirror images and any information exchange happens exactly on the x-axis
crossing.
"""

import math

import numpy as np
import pytest

from diskevac import _batch
from diskevac.face_to_face import eval_f2f_diff, eval_f2f_same
from diskevac.geometry import TWO_PI, ArcPos, cartesian
from diskevac.meeting import catch_on_circle_arr
from diskevac.replay import replay, verify_agreement
from diskevac.scenarios import CommModel, Scenario
from diskevac.wireless import eval_wireless_unlabeled


def _check(scn, res):
    tr1, tr2, makespan = replay(scn)
    assert abs(makespan - res.time_from_perimeter) < 1e-9
    report = verify_agreement(scn, tr1, tr2)
    assert report.passed, report.issues
    return makespan


@pytest.mark.parametrize("x", [0.3, 0.8, 1.2])
def test_same_symmetric_small_arc(x):
    # exits at +-x, so d = 2x and both robots find simultaneously
    scn = Scenario(CommModel.FACE_TO_FACE, False, 2.0 * x, 0.0,
                   ArcPos(TWO_PI - x))
    res = eval_f2f_same(scn)
    assert res.simultaneous
    assert res.case_tag == "F0-sim"
    assert res.time_from_perimeter >= x - 1e-9
    _check(scn, res)


@pytest.mark.parametrize("x", [1.7, 1.8, 2.0, 2.2])
def test_same_symmetric_wrapped_arc(x):
    # exits at +-x with the separation measured the short way around
    d = TWO_PI - 2.0 * x
    scn = Scenario(CommModel.FACE_TO_FACE, False, d, 0.0, ArcPos(x))
    res = eval_f2f_same(scn)
    assert res.simultaneous
    _check(scn, res)


def test_same_symmetric_case3_finder_takes_the_nearer_exit():
    # exits at +-x with d = 2*pi - 2x and pi/2 < x < 2*pi/3, so each robot is
    # a case-3 finder (d/2 < x < d).  Where it reaches N (above the axis,
    # so nobody is met on the way), finds nobody there and P out of reach,
    # its own policy walks from N to the nearer exit: X, or E2' = -x.
    checked = 0
    for k in range(1, 1000):
        x = math.pi / 2.0 + k * (math.pi / 6.0) / 1000
        d = TWO_PI - 2.0 * x
        go, hit, nx, ny, tn = _batch._case3_arr(np.array([x]), d)
        p = catch_on_circle_arr(nx, ny, tn, 0.0)
        if not (go[0] and hit[0] and p[0] >= TWO_PI - x - d and ny[0] > 0.0):
            continue
        n = (float(nx[0]), float(ny[0]))
        expected = float(tn[0]) + min(math.dist(n, cartesian(ArcPos(x))),
                                      math.dist(n, cartesian(ArcPos(x + d))))
        scn = Scenario(CommModel.FACE_TO_FACE, False, d, 0.0, ArcPos(x))
        res = eval_f2f_same(scn)
        assert res.simultaneous and res.case_tag == "F0-sim"
        assert res.time_from_perimeter == pytest.approx(expected, abs=1e-12), x
        _check(scn, res)
        checked += 1
    assert checked >= 200


def test_same_symmetric_exit_in_place_takes_own_exit():
    # exits at +-1.2 with d = 2.4: each dispatch says leave immediately
    scn = Scenario(CommModel.FACE_TO_FACE, False, 2.4, 0.0, ArcPos(TWO_PI - 1.2))
    res = eval_f2f_same(scn)
    assert res.simultaneous
    assert res.time_from_perimeter == pytest.approx(1.2, abs=1e-12)


def test_same_symmetric_crossing_meets_before_exit():
    # exits at +-0.8 with d = 1.6: both chase, collide on the axis, and
    # leave together, so the makespan exceeds the discovery arc
    scn = Scenario(CommModel.FACE_TO_FACE, False, 1.6, 0.0, ArcPos(TWO_PI - 0.8))
    res = eval_f2f_same(scn)
    assert res.simultaneous
    assert res.time_from_perimeter > 0.8
    assert res.r1_exit_time == pytest.approx(res.r2_exit_time, abs=1e-12)
    _check(scn, res)


def test_diff_symmetric_placement():
    d = 0.8
    scn = Scenario(CommModel.FACE_TO_FACE, False, d, d, ArcPos(math.pi - d / 2))
    res = eval_f2f_diff(scn)
    assert res.simultaneous
    _check(scn, res)


def test_diff_symmetric_meet_on_the_chord():
    # e1 = pi - d/2 with pi/2 < d < pi: each robot finds an exit at
    # x = pi - d < d and heads for N, the midpoint of chord X-E2', which
    # lies on the x-axis; rounding can leave N's y a hair on X's side of it
    for k in range(1, 200):
        d = math.pi / 2 + k * (math.pi / 2) / 200
        scn = Scenario(CommModel.FACE_TO_FACE, False, d, d, ArcPos(math.pi - d / 2))
        res = eval_f2f_diff(scn)
        assert res.simultaneous and res.case_tag == "Fd-sim"
        assert res.time_from_perimeter > math.pi - d
        _check(scn, res)


def test_wireless_symmetric_both_exit_in_place():
    d = 1.0
    scn = Scenario(CommModel.WIRELESS, False, d, 0.0, ArcPos(math.pi - d / 2))
    res = eval_wireless_unlabeled(scn)
    assert res.simultaneous
    assert res.time_from_perimeter == pytest.approx(math.pi - d / 2, abs=1e-12)
    _check(scn, res)
