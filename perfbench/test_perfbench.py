"""Coarse-grid self-test of the benchmark, so that it cannot rot.

    python3 -m pytest perfbench

Runs every workload once, untraced and traced, on a coarse grid and
checks the result object against BENCHMARK.json; also covers the seeded
d grid, the tracer's self-time arithmetic and the refusal to run without
the program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from diskevac.sweep import SweepConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COARSE = bw.Grid(d_step=0.1, exit_step=0.01, verify_samples=100)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(bw.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        bench.per_layer_spec()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(bw.WORKLOADS))
def test_workload_coarse(workload, trace, tmp_path):
    res = bench.run_benchmark(workload, seed=3, seconds=0, trace=trace, root=ROOT,
                              out_dir=tmp_path, grid=COARSE, setup_samples=1)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert 0 <= res["failed"] <= res["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["checks"]["attempted"] == res["attempted"]
    if not trace:
        assert all(res["metrics"][m["name"]]["value"] > 0 for m in declared)
    if trace and workload == "f2f-sweep":
        assert res["metrics"]["meeting.solve_meeting_arr.calls"]["value"] > 0
        assert res["metrics"]["meeting.solve_meeting.calls"]["value"] == 0
    if trace and workload == "replay-verify":
        assert res["metrics"]["replay.replay.calls"]["value"] == COARSE.verify_samples
        assert res["metrics"]["batch.cell_samples"]["value"] == 0


def test_seeded_grid():
    paper = SweepConfig().d_grid()
    assert bw.sweep_config(0, bw.PAPER_GRID, 1).d_grid() == paper
    for seed in range(1, 50):
        cfg = bw.sweep_config(seed, bw.PAPER_GRID, 1)
        grid = cfg.d_grid()
        assert len(grid) == len(paper) and 0.0 < grid[0] < 0.01
        assert grid == bw.sweep_config(seed, bw.PAPER_GRID, 1).d_grid()


def test_tracer_self_time():
    ns = types.SimpleNamespace()

    def leaf():
        time.sleep(0.01)

    def outer():
        ns.leaf()
        ns.leaf()

    ns.leaf, ns.outer = leaf, outer
    with Tracer() as tracer:
        tracer.wrap(ns, "leaf", "leaf")
        tracer.wrap(ns, "outer", "outer")
        ns.outer()  # not enabled: no span
        tracer.enabled = True
        ns.outer()
    assert ns.leaf is leaf and ns.outer is outer
    agg = tracer.summary()
    assert agg["leaf"]["calls"] == 2 and agg["outer"]["calls"] == 1
    assert agg["leaf"]["s"] >= 0.02
    assert agg["outer"]["self_s"] == pytest.approx(agg["outer"]["s"] - agg["leaf"]["s"])
    assert 0.0 <= agg["outer"]["self_s"] < agg["leaf"]["s"]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "f2f-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_cell_check_flags_a_wrong_time():
    from diskevac.sweep import SweepRecord
    from diskevac.face_to_face import worst_f2f

    series = bw.F2F_UNLABELED[0]
    time_, argmax, tag = worst_f2f(1.3, "same", 0.01)
    rec = SweepRecord(1.3, "0", "f2f", False, time_, argmax.theta, tag)
    assert bw.check_cell(series, rec) is None
    off = SweepRecord(1.3, "0", "f2f", False, time_ + 1e-3, argmax.theta, tag)
    assert "replay makespan" in bw.check_cell(series, off)
