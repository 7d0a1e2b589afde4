"""Smoke runs of the experiment scripts on a coarse grid."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from diskevac.cli import random_scenarios
from diskevac.sweep import ALL_SERIES, CSV_HEADER, SweepConfig

ROOT = Path(__file__).resolve().parent.parent
COARSE = ["--d-step", "0.5", "--exit-step", "0.05"]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_run_sweeps_writes_every_series(tmp_path):
    proc = _run("run_sweeps.py", "--out-dir", str(tmp_path), *COARSE)
    assert proc.returncode == 0, proc.stderr
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == len(ALL_SERIES) == 11
    for path in csvs:
        assert path.read_text().startswith(CSV_HEADER + "\n")


def test_reproduce_table1_prints_six_rows():
    proc = _run("reproduce_table1.py", *COARSE)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["zeta", "exits", "min", "time", "at", "d"]
    assert len(rows) == 6


def test_kernel_digest_prints_one_line_per_series():
    proc = _run("kernel_digest.py", *COARSE)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 11
    cells = len(SweepConfig(d_step=0.5, exit_step=0.05).d_grid())
    for line, series in zip(lines, ALL_SERIES):
        key, n, digest = line.split()
        assert (key, int(n), len(digest)) == (series.key, cells, 64)
    assert proc.stdout == _run("kernel_digest.py", *COARSE).stdout


def test_fingerprint_is_repeatable():
    spec = importlib.util.spec_from_file_location("fingerprint",
                                                  ROOT / "scripts" / "fingerprint.py")
    fp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fp)
    corpus = random_scenarios(7, 60) + fp.symmetric_scenarios(20)
    first = list(fp.fingerprint(corpus))
    assert first == list(fp.fingerprint(corpus))
    assert len(first) == len(corpus) == 99
    for line in first:  # model, labeled, d, zeta, e1, time, tag, hash
        assert len(line.split()) == 8, line
