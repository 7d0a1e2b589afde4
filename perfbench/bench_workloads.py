"""The benchmark's workloads: inputs from a seed, one pass, output checks.

A pass is one closed-loop call (one client) into a public entry point of
diskevac: `sweep.run_sweep`, `sweep.table1` or `cli.main(["verify", ...])`.
The benchmark repeats passes for the run's duration.  Every output of a
pass is checked afterwards, outside the timed region, by code that does
not share the path that produced it:

- each sweep cell: its `argmax_e1` placement is replayed through
  `replay.replay` + `replay.verify_agreement`; the replayed makespan must
  equal `worst_time` within 1e-6, and a face-to-face cell must also sit
  on or above the closed-form lower bound;
- each Table-1 row: within 0.02 (time and d*) of the paper's minima;
- each verify scenario: `diskevac verify` must exit 0.

A failed check is a failed operation; nothing is filtered.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import random
import re
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from diskevac import cli, sweep
from diskevac.bounds import f2f_lower_bound
from diskevac.geometry import ArcPos
from diskevac.replay import replay, verify_agreement
from diskevac.scenarios import CommModel, Scenario
from diskevac.sweep import SeriesSpec, SweepConfig
from diskevac.wireless import resolve_zeta

F2F, WL = CommModel.FACE_TO_FACE, CommModel.WIRELESS

# The 11 series of scripts/run_sweeps.py, in its order.
ALL_SERIES = (
    SeriesSpec(WL, False, "0"), SeriesSpec(WL, False, "d/2"),
    SeriesSpec(WL, False, "d"), SeriesSpec(WL, True, "0"),
    SeriesSpec(WL, True, "d/2"), SeriesSpec(WL, True, "d"),
    SeriesSpec(F2F, False, "0"), SeriesSpec(F2F, False, "d"),
    SeriesSpec(F2F, True, "0"), SeriesSpec(F2F, True, "d/2"),
    SeriesSpec(F2F, True, "d"),
)
F2F_UNLABELED = (SeriesSpec(F2F, False, "0"), SeriesSpec(F2F, False, "d"))

# Table-1 minima (time from perimeter, d*), as in acceptance criterion 2.
_SQ2 = math.sqrt(2.0)
TABLE1_EXPECTED = {
    (False, "0"): (math.pi / 4 + _SQ2, math.pi),
    (False, "d"): (math.pi / 4 + _SQ2, math.pi),
    (False, "d/2"): (math.pi / 2 + _SQ2, math.pi),
    (True, "0"): (math.pi / 4 + _SQ2, math.pi),
    (True, "d"): (math.pi / 4 + _SQ2, math.pi),
    (True, "d/2"): (2.88, 1.26),
}
TABLE1_TOL = 0.02
REPLAY_TOL = 1e-6


@dataclass(frozen=True)
class Grid:
    """Problem size.  The default is the paper's resolution."""

    d_step: float = 0.01
    exit_step: float = 0.001
    verify_samples: int = 5000


PAPER_GRID = Grid()


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweep", "table1" or "verify"
    series: tuple[SeriesSpec, ...] = ()
    workers: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload("f2f-sweep", "sweep", F2F_UNLABELED),
        Workload("wireless-table1", "table1", sweep.TABLE1_SERIES),
        Workload("replay-verify", "verify"),
        Workload("sweep-pool", "sweep", ALL_SERIES, workers=2),
    )
}


def d_shift(seed: int, d_step: float) -> float:
    """Offset of the d grid: 0 at seed 0 (the paper grid), else a seeded
    fraction of a step small enough to keep the cell count."""
    if seed == 0:
        return 0.0
    return random.Random(seed).uniform(0.01, 0.15) * d_step


def sweep_config(seed: int, grid: Grid, workers: int) -> SweepConfig:
    shift = d_shift(seed, grid.d_step)
    cfg = SweepConfig(d_step=grid.d_step, exit_step=grid.exit_step,
                      d_min=shift, workers=workers)
    paper = SweepConfig(d_step=grid.d_step, exit_step=grid.exit_step)
    if len(cfg.d_grid()) != len(paper.d_grid()):
        raise ValueError(f"shift {shift} changes the d cell count")
    return cfg


@dataclass
class PassResult:
    wall_s: float
    ops: int
    parent_cpu_s: float
    child_cpu_s: float
    # sweep kinds: [(series, records)]; table1 adds rows; verify: (code, text)
    records: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    verify: tuple[int, str] | None = None


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run_pass(w: Workload, seed: int, grid: Grid) -> PassResult:
    """One timed pass; the inputs depend only on (w, seed, grid)."""
    cfg = sweep_config(seed, grid, w.workers) if w.kind != "verify" else None
    cpu0 = (_cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN))
    t0 = time.perf_counter()
    out = PassResult(0.0, 0, 0.0, 0.0)
    if w.kind == "sweep":
        # sweep.run_sweep is looked up per call so a tracer's wrapper applies.
        out.records = [(s, sweep.run_sweep(cfg, s)) for s in w.series]
    elif w.kind == "table1":
        out.rows = _table1_capturing(cfg, out.records)
    else:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", "--samples", str(grid.verify_samples),
                             "--seed", str(seed)])
        out.verify = (code, buf.getvalue())
    out.wall_s = time.perf_counter() - t0
    out.parent_cpu_s = _cpu(resource.RUSAGE_SELF) - cpu0[0]
    out.child_cpu_s = _cpu(resource.RUSAGE_CHILDREN) - cpu0[1]
    out.ops = (grid.verify_samples if w.kind == "verify"
               else sum(len(recs) for _, recs in out.records))
    return out


def _table1_capturing(cfg: SweepConfig, sink: list):
    """sweep.table1, keeping each series' records for the cell checks."""
    inner = sweep.run_sweep

    def run_sweep(cfg, series):
        records = inner(cfg, series)
        sink.append((series, records))
        return records

    sweep.run_sweep = run_sweep
    try:
        return sweep.table1(cfg)
    finally:
        sweep.run_sweep = inner


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(what)


def check_cell(series: SeriesSpec, rec) -> str | None:
    """None if the cell's worst case replays to its reported time, else why."""
    what = (f"{series.key} d={rec.d:.6f} e1={rec.argmax_e1:.6f} "
            f"worst={rec.worst_time:.6f} {rec.case_tag}")
    try:
        scn = Scenario(series.model, series.labeled, rec.d,
                       resolve_zeta(series.zeta_policy, rec.d),
                       ArcPos(rec.argmax_e1))
        tr1, tr2, makespan = replay(scn)
        report = verify_agreement(scn, tr1, tr2)
    except (ValueError, RuntimeError) as exc:  # scenario, domain, trace errors
        return f"{what}: {type(exc).__name__}: {exc}"
    if not report.passed:
        return f"{what}: {report.issues[0]}"
    if abs(makespan - rec.worst_time) >= REPLAY_TOL:
        return f"{what}: replay makespan {makespan:.6f}"
    if series.model is F2F and rec.d > 0.0:
        bound = f2f_lower_bound(rec.d).value
        if rec.worst_time + 1.0 < bound - 1e-12:
            return f"{what}: below the lower bound {bound:.6f}"
    return None


def check_pass(p: PassResult, checks: CheckResult) -> None:
    for series, records in p.records:
        for rec in records:
            why = check_cell(series, rec)
            checks.add(1, why is not None, why)
    for series, d_star, t_star in p.rows:
        t_exp, d_exp = TABLE1_EXPECTED[(series.labeled, series.zeta_policy)]
        ok = abs(t_star - t_exp) <= TABLE1_TOL and abs(d_star - d_exp) <= TABLE1_TOL
        checks.add(1, not ok, f"table1 {series.key}: ({t_star:.4f}, {d_star:.4f}) "
                       f"expected ({t_exp:.4f}, {d_exp:.4f})")
    if p.verify is not None:
        code, text = p.verify
        match = re.search(r"^(\d+) verification failures$", text, re.M)
        # verify prints one line per failing check; a scenario can fail several
        bad = min(int(match.group(1)), p.ops) if match else (0 if code == 0 else p.ops)
        checks.add(p.ops, bad, f"verify exit {code}: {text.strip()[-300:]}")


def digests(p: PassResult, csv_dir: Path) -> dict[str, str]:
    """sha256 of each sweep CSV the pass produced (written by sweep.write_csv)
    or of verify's printed report."""
    if p.verify is not None:
        return {"verify": hashlib.sha256(p.verify[1].encode()).hexdigest()}
    out = {}
    csv_dir.mkdir(exist_ok=True)
    for series, records in p.records:
        path = csv_dir / f"sweep-{series.key.replace('/', '')}.csv"
        sweep.write_csv(records, path)
        out[series.key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def traced_functions():
    """(module, attribute, span name, points) for every layer the trace covers.

    Span names are `<module>.<function>` and become metric names, which
    must start with a letter, so `diskevac._batch` is named `batch`.
    `meeting.solve_meeting_arr` is wrapped where `_batch` calls it.
    geometry, plans, scenarios and bounds are left unwrapped: their calls
    take microseconds, so they show in their callers' self time.
    """
    from bench_trace import array_points, first_arg, result_len

    mod = importlib.import_module  # `diskevac.replay` is also a function name
    batch, meeting = mod("diskevac._batch"), mod("diskevac.meeting")
    f2f, wl = mod("diskevac.face_to_face"), mod("diskevac.wireless")
    rep, cli_mod, sw = mod("diskevac.replay"), mod("diskevac.cli"), mod("diskevac.sweep")
    plain = [
        (batch, "solve_meeting_arr", "meeting.solve_meeting_arr"),
        (meeting, "solve_meeting", "meeting.solve_meeting"),
        (batch, "_catch_p_arr", "batch._catch_p_arr"),
        (batch, "_second_exit_arr", "batch._second_exit_arr"),
        (batch, "_intercept_arr", "batch._intercept_arr"),
        (batch, "_frame", "batch._frame"),
        (batch, "batch_f2f_same", "batch.batch_f2f_same"),
        (batch, "batch_f2f_diff", "batch.batch_f2f_diff"),
        (batch, "batch_f2f_labeled", "batch.batch_f2f_labeled"),
        (batch, "batch_wireless", "batch.batch_wireless"),
        (f2f, "worst_f2f", "face_to_face.worst_f2f"),
        (wl, "worst_wireless", "wireless.worst_wireless"),
        (f2f, "eval_f2f_same", "face_to_face.eval_f2f_same"),
        (f2f, "eval_f2f_diff", "face_to_face.eval_f2f_diff"),
        (f2f, "eval_f2f_labeled", "face_to_face.eval_f2f_labeled"),
        (wl, "eval_wireless_unlabeled", "wireless.eval_wireless_unlabeled"),
        (wl, "eval_wireless_labeled", "wireless.eval_wireless_labeled"),
        (f2f, "plan_f2f", "face_to_face.plan_f2f"),
        (wl, "plan_wireless", "wireless.plan_wireless"),
        (rep, "replay", "replay.replay"),
        (rep, "verify_agreement", "replay.verify_agreement"),
    ]
    return [(m, a, n, array_points) for m, a, n in plain] + [
        (cli_mod, "random_scenarios", "cli.random_scenarios", result_len),
        (cli_mod, "run_verification", "cli.run_verification", first_arg),
        (sw, "run_sweep", "sweep.run_sweep", result_len),
    ]
