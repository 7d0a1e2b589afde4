import concurrent.futures
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diskevac import sweep
from diskevac.face_to_face import eval_f2f_same
from diskevac.geometry import ArcPos
from diskevac.scenarios import CommModel, Scenario
from diskevac.sweep import (
    CSV_HEADER,
    SeriesSpec,
    SweepConfig,
    SweepRecord,
    crossing_intervals,
    local_minima,
    min_over_d,
    run_sweep,
    transition_points,
    write_csv,
)

def read_csv(path) -> list[SweepRecord]:
    """The records of a CSV written by write_csv."""
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header}")
        for line in fh:
            d, zp, model, lab, wt, arg, tag = line.strip().split(",")
            records.append(SweepRecord(float(d), zp, model, bool(int(lab)),
                                       float(wt), float(arg), tag))
    return records


COARSE = SweepConfig(d_step=0.1, exit_step=0.01)
WL0 = SeriesSpec(CommModel.WIRELESS, False, "0")
F2F0 = SeriesSpec(CommModel.FACE_TO_FACE, False, "0")


def test_records_ordered_and_cover_grid():
    records = run_sweep(COARSE, WL0)
    ds = [rec.d for rec in records]
    assert ds == sorted(ds)
    assert ds[0] == 0.0
    assert ds[-1] == pytest.approx(math.pi)


def test_worker_count_does_not_change_records():
    seq = run_sweep(COARSE, WL0)
    par = run_sweep(SweepConfig(d_step=0.1, exit_step=0.01, workers=4), WL0)
    assert [r.csv_row() for r in seq] == [r.csv_row() for r in par]


def test_pool_has_no_more_workers_than_blocks(monkeypatch):
    # under fork a ProcessPoolExecutor starts all max_workers processes at
    # its first submit; this stand-in starts none and records the count
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    blocks = len(sweep.series_blocks(COARSE, F2F0))
    assert 1 < blocks < 5000
    many = run_sweep(SweepConfig(d_step=0.1, exit_step=0.01, workers=5000), F2F0)
    assert pools == [blocks]
    assert [r.csv_row() for r in many] == [r.csv_row() for r in run_sweep(COARSE, F2F0)]
    one_block = SweepConfig(d_step=1.0, exit_step=0.1, workers=8)
    assert len(sweep.series_blocks(one_block, WL0)) == 1
    run_sweep(one_block, WL0)
    assert pools == [blocks]  # one block runs serially


def test_min_over_d_single_record():
    rec = SweepRecord(0.5, "0", "wireless", False, 2.0, 0.1, "W1a")
    assert min_over_d([rec]) == (0.5, 2.0)
    with pytest.raises(ValueError):
        min_over_d([])


def test_min_over_d_prefers_smallest_d_on_tie():
    recs = [SweepRecord(0.1, "0", "wireless", False, 2.0, 0.0, "W1a"),
            SweepRecord(0.2, "0", "wireless", False, 2.0, 0.0, "W1a")]
    assert min_over_d(recs)[0] == 0.1


def test_crossing_identical_series_empty():
    records = run_sweep(COARSE, WL0)
    assert crossing_intervals(records, records) == []


def test_crossing_grid_mismatch_rejected():
    a = run_sweep(COARSE, WL0)
    b = run_sweep(SweepConfig(d_step=0.2, exit_step=0.01), WL0)
    with pytest.raises(ValueError):
        crossing_intervals(a, b)


def test_transition_points_constant_series_empty():
    recs = [SweepRecord(0.1 * k, "0", "wireless", False, 2.0, 0.0, "W1a")
            for k in range(5)]
    assert transition_points(recs) == []


def test_local_minima_simple_dip():
    vals = [3.0, 2.5, 2.0, 2.4, 2.8]
    recs = [SweepRecord(0.1 * k, "0", "wireless", False, v, 0.0, "W1a")
            for k, v in enumerate(vals)]
    assert local_minima(recs) == [pytest.approx(0.2)]


def test_csv_round_trip(tmp_path):
    records = run_sweep(COARSE, WL0)
    path = tmp_path / "sweep.csv"
    write_csv(records, path)
    text = path.read_text()
    assert text.startswith("d,zeta_policy,model,labeled,worst_time,argmax_e1,case\n")
    assert "\r" not in text
    back = read_csv(path)
    assert [r.csv_row() for r in back] == [r.csv_row() for r in records]


def test_include_center_leg_adds_one(tmp_path, capsys):
    # the CLI adds the unit to the records it writes; the sweep never does
    from diskevac.cli import main

    argv = ["sweep", "--d-step", "0.1", "--exit-step", "0.01", "--out"]
    assert main(argv + [str(tmp_path / "base.csv")]) == 0
    assert main(argv + [str(tmp_path / "leg.csv"), "--include-center-leg"]) == 0
    capsys.readouterr()
    records = run_sweep(COARSE, WL0)
    base, with_leg = read_csv(tmp_path / "base.csv"), read_csv(tmp_path / "leg.csv")
    assert [r.csv_row() for r in base] == [r.csv_row() for r in records]
    assert len(with_leg) == len(records)
    for a, b in zip(base, with_leg):  # both rounded to 6 decimals
        assert b.worst_time == pytest.approx(a.worst_time + 1.0, abs=1.5e-6)
        assert (b.d, b.argmax_e1, b.case_tag) == (a.d, a.argmax_e1, a.case_tag)


def test_record_dominance_spot_check():
    # each worst_time equals the max of the scalar evaluator over the
    # exit grid (recompute a few coarse cells end to end)
    cfg = SweepConfig(d_step=0.5, exit_step=0.02)
    records = run_sweep(cfg, F2F0)
    for rec in records[::2]:
        best = 0.0
        k = 0
        while k * cfg.exit_step < 2.0 * math.pi:
            e1 = k * cfg.exit_step
            scn = Scenario(CommModel.FACE_TO_FACE, False, rec.d, 0.0, ArcPos(e1))
            best = max(best, eval_f2f_same(scn).time_from_perimeter)
            k += 1
        assert rec.worst_time == pytest.approx(best, abs=1e-9)


def test_importing_the_cli_loads_no_process_pool():
    # the pool is imported by run_sweep only when it runs more than one worker
    src = str(Path(sweep.__file__).resolve().parents[1])
    code = "import sys, diskevac.cli; print([m for m in sys.modules if 'multiprocessing' in m])"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
