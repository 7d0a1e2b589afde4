"""Measure one workload: timed passes, output checks, metrics, manifest.

Closed loop, one client: each pass starts when the previous one ends,
until the passes have taken the run's seconds (at least one pass).  A
pass's outputs are checked when it ends, outside its timed region.
Untraced runs give the end-to-end metrics; traced runs alternate an
untraced and a traced pass, so the per-layer numbers and the tracing
overhead come from the same run.  Per-layer figures are per traced pass.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import bench_workloads as bw
from bench_trace import Tracer
from diskevac._batch import exit_grid
from setup_probe import warm_up

SETUP_SAMPLES = 11
HERE = Path(__file__).resolve().parent

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for _, _, name, _ in bw.traced_functions():
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.points", "count", "lower"),
                (f"{name}.s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [("batch.cell_ms_p50", "ms", "lower"),
            ("batch.cell_ms_p98", "ms", "lower"),
            ("batch.cell_samples", "count", "higher"),
            ("sweep.parent_cpu_s", "s", "lower"),
            ("sweep.worker_cpu_s", "s", "lower"),
            ("sweep.worker_idle_share", "ratio", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.overhead_share", "ratio", "lower")]
    return out


def _setup_seconds(src: Path, samples: int) -> list[float]:
    """warm_up timed in fresh interpreters; the first, unmeasured, run
    leaves bytecode caches and the page cache as a user's second start."""
    out = []
    for _ in range(samples + 1):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(src)],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out[1:]


def _layer_metrics(tracer: Tracer, traced: list[bw.PassResult],
                   untraced: list[bw.PassResult], workers: int) -> dict:
    n = len(traced)
    metrics = {}
    for name, agg in tracer.summary().items():
        for key in ("calls", "points", "s", "self_s"):
            metrics[f"{name}.{key}"] = agg[key] / n
    cells = tracer.durations("batch.batch_") * 1e3
    metrics["batch.cell_ms_p50"] = float(np.percentile(cells, 50)) if cells.size else 0.0
    metrics["batch.cell_ms_p98"] = float(np.percentile(cells, 98)) if cells.size else 0.0
    metrics["batch.cell_samples"] = cells.size
    wall = statistics.median(p.wall_s for p in traced)
    worker_cpu = statistics.median(p.child_cpu_s for p in traced)
    metrics["sweep.parent_cpu_s"] = statistics.median(p.parent_cpu_s for p in traced)
    metrics["sweep.worker_cpu_s"] = worker_cpu
    metrics["sweep.worker_idle_share"] = (1.0 - worker_cpu / (workers * wall)
                                          if workers > 1 else 0.0)
    base = statistics.median(p.wall_s for p in untraced)
    metrics["trace.overhead_s"] = wall - base
    metrics["trace.overhead_share"] = (wall - base) / base
    return metrics


def _git(root: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _machine(root: Path) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    top = _git(root, "rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == root.resolve()
    rev = _git(root, "rev-parse", "HEAD") if in_repo else None
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if in_repo else None
    dirty = None if status is None else status != ""
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(),
            "git_rev": rev, "git_dirty": dirty}


def _workload_size(w: bw.Workload, seed: int, grid: bw.Grid) -> dict:
    if w.kind == "verify":
        return {"scenarios_per_pass": grid.verify_samples, "verify_seed": seed}
    cfg = bw.sweep_config(seed, grid, w.workers)
    return {"series": [s.key for s in w.series], "workers": w.workers,
            "d_step": grid.d_step, "exit_step": grid.exit_step,
            "d_shift": cfg.d_min, "d_cells_per_series": len(cfg.d_grid()),
            "cells_per_pass": len(cfg.d_grid()) * len(w.series),
            "exit_points_per_cell": int(exit_grid(grid.exit_step).size)}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  root: Path, out_dir: Path, grid: bw.Grid = bw.PAPER_GRID,
                  setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload; returns the result object and writes the manifest."""
    w = bw.WORKLOADS[workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    warm_up()

    tracer = Tracer()
    checks = bw.CheckResult()
    passes: list[tuple[bool, bw.PassResult]] = []
    digests = []
    measured = 0.0
    with tracer:
        if trace:
            for module, attr, name, points in bw.traced_functions():
                tracer.wrap(module, attr, name, points)
        modes = (False, True) if trace else (False,)
        while measured < seconds or not passes:
            for traced in modes:
                tracer.enabled = traced
                try:
                    p = bw.run_pass(w, seed, grid)
                finally:
                    tracer.enabled = False
                measured += p.wall_s
                # Check each pass as it ends and drop its outputs, so memory
                # (and peak RSS) does not grow with the number of passes.
                digests.append(bw.digests(p, out_dir / "csv"))
                bw.check_pass(p, checks)
                p.records, p.rows = [], []
                passes.append((traced, p))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # Every pass runs the same inputs, so its output bytes must repeat.
    correct = all(d == digests[0] for d in digests)

    untraced = [p for traced, p in passes if not traced]
    traced_passes = [p for traced, p in passes if traced]
    if trace:
        metrics = _layer_metrics(tracer, traced_passes, untraced, w.workers)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        tracer.write(out_dir / "spans.npz")
        setup = []
    else:
        setup = _setup_seconds(root / "src", setup_samples)
        # Forked pool workers each peak near the largest one's RSS.
        workers_kb = w.workers * child_kb if w.workers > 1 else 0
        metrics = {
            "ops_per_s": statistics.median(p.ops / p.wall_s for p in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": (self_kb + workers_kb) / 1024.0,
        }
        units = dict(END_TO_END)

    manifest = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "loop": "closed, one client",
        "size": _workload_size(w, seed, grid),
        "machine": _machine(root),
        "passes": [{"traced": t, "wall_s": p.wall_s, "ops": p.ops,
                    "parent_cpu_s": p.parent_cpu_s, "child_cpu_s": p.child_cpu_s}
                   for t, p in passes],
        "setup_s_samples": setup,
        "sha256": digests[0],
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "error_rate": checks.failed / checks.attempted,
                   # passes repeat the same inputs, so repeats are dropped
                   "failures": list(dict.fromkeys(checks.failures))[:100]},
        "metrics": metrics,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return {
        "correct": bool(correct),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
