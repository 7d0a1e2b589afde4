"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines as the
criteria complete.  The full-resolution sweeps (d step 0.01, exit step
0.001) are shared across criteria through module-scope fixtures.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from diskevac import _batch, meeting
from diskevac.bounds import f2f_lower_bound
from diskevac.cli import random_scenarios
from diskevac.face_to_face import DISCREPANCY_NOTES
from diskevac.meeting import ROOT_TOL
from diskevac.replay import replay, verify_agreement
from diskevac.scenarios import CommModel, evaluate
from diskevac.sweep import (
    SeriesSpec,
    SweepConfig,
    crossing_intervals,
    local_minima,
    min_over_d,
    run_sweep,
    transition_points,
)

CFG = SweepConfig()  # defaults: d step 0.01, exit step 0.001, d in [0, pi]
TWO_THIRDS_PI = 2.0 * math.pi / 3.0
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def _report(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def sweeps():
    series = {
        "wl-0": SeriesSpec(CommModel.WIRELESS, False, "0"),
        "wl-d": SeriesSpec(CommModel.WIRELESS, False, "d"),
        "wl-d2": SeriesSpec(CommModel.WIRELESS, False, "d/2"),
        "wl-lab-0": SeriesSpec(CommModel.WIRELESS, True, "0"),
        "wl-lab-d": SeriesSpec(CommModel.WIRELESS, True, "d"),
        "wl-lab-d2": SeriesSpec(CommModel.WIRELESS, True, "d/2"),
        "f2f-same": SeriesSpec(CommModel.FACE_TO_FACE, False, "0"),
        "f2f-diff": SeriesSpec(CommModel.FACE_TO_FACE, False, "d"),
        "f2f-lab-0": SeriesSpec(CommModel.FACE_TO_FACE, True, "0"),
        "f2f-lab-d": SeriesSpec(CommModel.FACE_TO_FACE, True, "d"),
    }
    return {key: run_sweep(CFG, spec) for key, spec in series.items()}


def test_criterion_1_single_exit_cross_check(sweeps):
    records = sweeps["wl-0"]
    assert records[0].d == 0.0
    total = records[0].worst_time + 1.0
    expected = 1.0 + TWO_THIRDS_PI + SQRT3
    _report(1, "single-exit cross-check at d=0",
            abs(total - expected) < 1e-3)


def test_criterion_2_table1(sweeps):
    expectations = {
        "wl-0": (math.pi / 4 + SQRT2, math.pi),
        "wl-d": (math.pi / 4 + SQRT2, math.pi),
        "wl-d2": (math.pi / 2 + SQRT2, math.pi),
        "wl-lab-0": (math.pi / 4 + SQRT2, math.pi),
        "wl-lab-d": (math.pi / 4 + SQRT2, math.pi),
        "wl-lab-d2": (2.88, 1.26),
    }
    ok = True
    for key, (t_exp, d_exp) in expectations.items():
        d_star, t_star = min_over_d(sweeps[key])
        if abs(t_star - t_exp) > 0.02 or abs(d_star - d_exp) > 0.02:
            ok = False
            print(f"  table1 row {key}: got ({t_star:.4f}, {d_star:.4f}), "
                  f"expected ({t_exp:.4f}, {d_exp:.4f})")
    _report(2, "Table-1 minima", ok)


def test_criterion_3_curve_orderings(sweeps):
    ok = True
    # wireless zeta=d never worse than zeta=0 (one grid step of slack)
    slack = CFG.exit_step
    if crossing_intervals(sweeps["wl-d"], sweeps["wl-0"], slack=slack):
        ok = False
        print("  wireless zeta=d exceeded zeta=0 somewhere")
    # zeta=0 beats zeta=d/2 exactly for d > 1.21 +- 0.05
    iv = crossing_intervals(sweeps["wl-d2"], sweeps["wl-0"])
    if len(iv) != 1 or abs(iv[0][0] - 1.21) > 0.05 or \
            abs(iv[0][1] - sweeps["wl-0"][-1].d) > 1e-9:
        ok = False
        print(f"  wireless d/2-vs-0 crossing: {iv}")
    # f2f zeta=d beats zeta=0 except (1.895, 2.005) and beyond 2.765
    iv = crossing_intervals(sweeps["f2f-diff"], sweeps["f2f-same"])
    if len(iv) != 2:
        ok = False
        print(f"  f2f exception intervals: {iv}")
    else:
        (lo1, hi1), (lo2, hi2) = iv
        if abs(lo1 - 1.895) > 0.05 or abs(hi1 - 2.005) > 0.05:
            ok = False
            print(f"  first f2f exception window off: ({lo1:.3f}, {hi1:.3f})")
        if abs(lo2 - 2.765) > 0.05 or abs(hi2 - sweeps["f2f-same"][-1].d) > 1e-9:
            ok = False
            print(f"  second f2f exception window off: ({lo2:.3f}, {hi2:.3f})")
    _report(3, "curve-ordering claims", ok)


def _feature_near(records, target, window=0.03):
    points = transition_points(records) + local_minima(records)
    return any(abs(v - target) <= window for v in points)


def test_criterion_4_transitions(sweeps):
    ok = True
    for target in (0.38, 1.11, 1.95):
        if not any(abs(v - target) <= 0.03
                   for v in transition_points(sweeps["f2f-same"])):
            ok = False
            print(f"  f2f zeta=0 transition missing near {target}")
    if not any(abs(v - 0.4) <= 0.03 for v in local_minima(sweeps["f2f-diff"])):
        ok = False
        print("  f2f zeta=d local minimum missing near 0.4")
    if not any(abs(v - 1.84) <= 0.03
               for v in transition_points(sweeps["f2f-diff"])):
        ok = False
        print("  f2f zeta=d transition missing near 1.84")
    # The realized zeta=d wireless curve marks 2*pi/3 with its case change
    # (one probable exit becomes explored); its interior dip sits at 0.93.
    if not _feature_near(sweeps["wl-d"], TWO_THIRDS_PI):
        ok = False
        print("  wireless zeta=d feature missing near 2*pi/3")
    _report(4, "transition/extremum detection", ok)


def test_criterion_5_lower_bound_dominance(sweeps):
    ok = True
    for key in ("f2f-same", "f2f-diff", "f2f-lab-0", "f2f-lab-d"):
        for rec in sweeps[key]:
            if rec.d <= 0.0:
                continue
            if rec.worst_time + 1.0 < f2f_lower_bound(rec.d).value - 1e-12:
                ok = False
                print(f"  dominance broken: {key} d={rec.d} "
                      f"time+1={rec.worst_time + 1.0:.6f}")
                break
    if abs(f2f_lower_bound(1.0).value - 3.0) > 1e-12:
        ok = False
    if abs(f2f_lower_bound(1.8).value - (1.0 + SQRT3)) > 1e-12:
        ok = False
    if abs(f2f_lower_bound(2.5).value - (1.0 + math.sin(2.5))) > 1e-12:
        ok = False
    _report(5, "lower-bound dominance", ok)


def test_criterion_6_oracle_equivalence():
    ok = True
    max_dev = 0.0
    case_2b_seen = 0
    case_2b_split = 0
    # 1000 scenarios per evaluator family, seeded
    scns = random_scenarios(seed=20260810, samples=5000)
    per_kind = {}
    for scn in scns:
        kind = (scn.regime, scn.labeled)
        per_kind[kind] = per_kind.get(kind, 0) + 1
        res = evaluate(scn)
        tr1, tr2, makespan = replay(scn, res)
        dev = abs(makespan - res.time_from_perimeter)
        max_dev = max(max_dev, dev)
        if dev >= 1e-4:
            ok = False
            print(f"  oracle deviation {dev:.2e} on {scn}")
        report = verify_agreement(scn, tr1, tr2)
        if not report.passed:
            ok = False
            print(f"  agreement failure on {scn}: {report.issues[:2]}")
        if res.case_tag == "Fd-2b":
            case_2b_seen += 1
            # the realized makespan is the max of the two exits; when a
            # min reading would differ, the discrepancy note covers it
            lo = min(res.r1_exit_time, res.r2_exit_time)
            hi = max(res.r1_exit_time, res.r2_exit_time)
            if res.time_from_perimeter != hi:
                ok = False
            if hi - lo > 1e-9:
                case_2b_split += 1
    if min(per_kind.values()) < 900:
        ok = False
        print(f"  sampling imbalance: {per_kind}")
    if not DISCREPANCY_NOTES or "min(x, 2*pi - x - 2d)" not in DISCREPANCY_NOTES[0]:
        ok = False
        print("  case-2b min/max discrepancy note missing")
    if case_2b_seen and not case_2b_split:
        print("  note: no case-2b instance with split exit times sampled")
    print(f"  max |policy - replay| = {max_dev:.2e} over {len(scns)} scenarios "
          f"({case_2b_seen} case-2b instances, {case_2b_split} with split exits)")
    _report(6, "oracle equivalence", ok)


def test_criterion_7_solver_quality(monkeypatch):
    ok = True
    worst_residual = 0.0
    # the closed-form catch-up root must pass its sign check unaided
    bisects = []
    real_bisect = meeting._bisect
    monkeypatch.setattr(meeting, "_bisect",
                        lambda *args: bisects.append(args[1].size) or real_bisect(*args))
    grid = _batch.exit_grid(CFG.exit_step)
    for d in CFG.d_grid():
        for offset_kind in ("same", "diff", "lab"):
            zeta = {"same": 0.0, "diff": d, "lab": d / 2.0}[offset_kind]
            x, found, other, sim, _ = _batch._frame(d, zeta, grid)
            offset = zeta
            flo = 2.0 * np.sin((2.0 * x + offset) / 2.0)
            if np.any(flo < -1e-12):
                ok = False
                print(f"  bracket violated at d={d} ({offset_kind})")
            # the policy modules solve at the tighter internal tolerance
            y = _batch.solve_meeting_arr(x, offset)
            if np.any(~np.isfinite(y)):
                ok = False
                print(f"  solver NaN at d={d} ({offset_kind})")
                continue
            res = np.abs(x + 2.0 * np.sin((x + y + offset) / 2.0) - y)
            worst_residual = max(worst_residual, float(res.max()))
            # root accuracy: the residual changes sign within ROOT_TOL of y
            below, above = y - ROOT_TOL, y + ROOT_TOL
            f_below = x + 2.0 * np.sin((x + below + offset) / 2.0) - below
            f_above = x + 2.0 * np.sin((x + above + offset) / 2.0) - above
            if np.any(f_below < 0.0) or np.any(f_above > 0.0):
                ok = False
                print(f"  no sign change within {ROOT_TOL} of the root at "
                      f"d={d} ({offset_kind})")
            fhi = x + 2.0 * np.sin((2.0 * x + 2.0 + offset) / 2.0) - (x + 2.0)
            if np.any(fhi > 1e-12):
                ok = False
                print(f"  upper bracket violated at d={d}")
    if worst_residual >= 1e-6 or bisects:
        ok = False
    print(f"  worst catch-equation residual over the sweep: {worst_residual:.2e}")
    print(f"  bisection fallbacks: {len(bisects)} calls, {sum(bisects)} points")
    _report(7, "solver quality", ok)


def test_criterion_8_determinism(tmp_path):
    outs = []
    for jobs in ("1", "8"):
        path = tmp_path / f"sweep-j{jobs}.csv"
        cmd = [sys.executable, "-m", "diskevac.cli", "sweep",
               "--model", "wireless", "--zeta", "0",
               "--d-step", "0.01", "--exit-step", "0.001",
               "--jobs", jobs, "--out", str(path)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    _report(8, "determinism across worker counts", outs[0] == outs[1])
