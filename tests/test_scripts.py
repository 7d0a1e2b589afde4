"""Smoke runs of the experiment scripts on a coarse grid."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from diskevac.cli import random_scenarios
from diskevac.sweep import ALL_SERIES, CSV_HEADER, SweepConfig

ROOT = Path(__file__).resolve().parent.parent
COARSE = ["--d-step", "0.5", "--exit-step", "0.05"]


def _run(script, *args, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def _script_module(name, monkeypatch):
    """scripts/<name>.py imported, with its neighbours importable as they are when it runs."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_sweeps_writes_every_series(tmp_path):
    proc = _run("run_sweeps.py", "--out-dir", str(tmp_path), *COARSE)
    assert proc.returncode == 0, proc.stderr
    csvs = sorted(tmp_path.glob("*.csv"))
    assert len(csvs) == len(ALL_SERIES) == 11
    for path in csvs:
        assert path.read_text().startswith(CSV_HEADER + "\n")


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


def test_fingerprint_is_repeatable(monkeypatch):
    fp = _script_module("fingerprint", monkeypatch)
    corpus = random_scenarios(7, 60) + fp.symmetric_scenarios(20)
    first = list(fp.fingerprint(corpus))
    assert first == list(fp.fingerprint(corpus))
    assert len(first) == len(corpus) == 99
    for line in first:  # model, labeled, d, zeta, e1, time, tag, hash
        assert len(line.split()) == 8, line


def test_digest_scripts_name_numpy_and_its_dispatch_on_stderr(monkeypatch, capsys):
    # A byte-identity gate holds only where numpy dispatches alike, so both
    # digest scripts name numpy's version and SIMD targets on stderr, and
    # nothing but their lines on stdout.
    stamp = _script_module("numpy_stamp", monkeypatch).numpy_stamp()
    assert stamp.startswith(f"numpy {np.__version__} simd ")
    proc = _run("kernel_digest.py", *COARSE)
    assert proc.returncode == 0 and proc.stderr == stamp + "\n", proc.stderr
    assert len(proc.stdout.splitlines()) == 11
    fp = _script_module("fingerprint", monkeypatch)
    corpus = random_scenarios(7, 30)
    monkeypatch.setattr(fp, "corpus", lambda: corpus)
    fp.main()
    out, err = capsys.readouterr()
    assert err == stamp + "\n"
    assert out.splitlines() == list(fp.fingerprint(corpus))
    targets = stamp.split()[3:]
    if targets != ["none"]:  # the stamp follows the dispatch numpy was allowed
        proc = _run("kernel_digest.py", *COARSE, NPY_DISABLE_CPU_FEATURES=targets[-1])
        assert proc.stderr.split()[3:] == (targets[:-1] or ["none"]), proc.stderr


def test_audit_grid_finds_kernel_and_scalar_agreeing():
    proc = _run("audit_grid.py", "--stride", "2", *COARSE)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 11
    cells = len(SweepConfig(d_step=0.5, exit_step=0.05).d_grid()[::2])
    for line, series in zip(lines, ALL_SERIES):
        key, *pairs = line.split()
        fields = dict(zip(pairs[::2], pairs[1::2]))
        assert key == series.key
        assert int(fields["cells"]) == cells == 4
        assert int(fields["points"]) == cells * 126
        assert float(fields["max_dt"]) < 1e-12, line
        assert fields["tag_mismatches"] == fields["raises"] == "0", line


def _ab_fields(proc):
    words = proc.stdout.split()
    return dict(zip(words[::2], words[1::2]))


def test_ab_time_times_a_tree_against_itself():
    src = str(ROOT / "src")
    for work, grid in (("verify", ["--samples", "20"]), ("f2f", COARSE), ("table1", COARSE)):
        proc = _run("ab_time.py", src, src, "--work", work, "--rounds", "3", *grid)
        assert proc.returncode == 0, proc.stderr
        fields = _ab_fields(proc)
        assert (fields["work"], fields["rounds"]) == (work, "3"), proc.stdout
        assert 0 <= int(fields["wins"]) <= 3
        assert float(fields["old_s"]) > 0.0
        ratios = [float(fields[key]) for key in ("ratio_q1", "ratio", "ratio_q3")]
        assert 0.0 < ratios[0] <= ratios[1] <= ratios[2], proc.stdout
        assert int(fields["old_flt"]) >= 0 and int(fields["new_flt"]) >= 0


def test_ab_time_refuses_trees_with_different_output(tmp_path):
    shutil.copytree(ROOT / "src" / "diskevac", tmp_path / "diskevac")
    with open(tmp_path / "diskevac" / "cli.py", "a") as fh:
        fh.write("\nrun_verification = lambda samples, seed, tol: (0.0, ['changed'])\n")
    proc = _run("ab_time.py", str(ROOT / "src"), str(tmp_path), "--samples", "20")
    assert proc.returncode == 1
    assert "different verify output" in proc.stderr
