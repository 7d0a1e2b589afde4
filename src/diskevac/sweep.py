"""Worst-case curves over d: sweeps, Table-1 minima, crossings, transitions.

A sweep evaluates one series (model, labeling, zeta policy) on a d grid;
each cell takes the maximum realized evacuation time over a dense grid of
exit positions.  Blocks of cells are independent work items, and a cell's
values do not depend on its block, so any worker count yields
byte-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import DOMAIN_SLACK
from .scenarios import CommModel, Regime, check_zeta, classify, resolve_zeta

CSV_HEADER = "d,zeta_policy,model,labeled,worst_time,argmax_e1,case"
_DIP = 1e-9  # worst-time changes up to this are grid noise to local_minima


@dataclass(frozen=True)
class SeriesSpec:
    model: CommModel
    labeled: bool
    zeta_policy: str  # "0", "d", "d/2" or a float literal

    @property
    def key(self) -> str:
        lab = "lab" if self.labeled else "unlab"
        return f"{self.model.value}-{lab}-z{self.zeta_policy}"


@dataclass(frozen=True)
class SweepConfig:
    d_step: float = 0.01
    exit_step: float = 0.001
    d_min: float = 0.0  # the grid runs from d_min to pi
    workers: int = 1

    def __post_init__(self):
        for step in (self.d_step, self.exit_step):
            if not (math.isfinite(step) and step > 0.0):
                raise ValueError(f"grid step {step} is not finite and > 0")
        if not (0.0 <= self.d_min <= math.pi):
            raise ValueError(f"d_min = {self.d_min} outside [0, pi]")
        if self.workers < 1:
            raise ValueError(f"workers = {self.workers}, need at least 1")

    def d_grid(self) -> list[float]:
        ds = []
        k = 0
        while True:
            d = self.d_min + k * self.d_step
            if d > math.pi + DOMAIN_SLACK:
                break
            ds.append(min(d, math.pi))
            k += 1
        if ds[-1] < math.pi - 1e-9:
            ds.append(math.pi)
        return ds


@dataclass(frozen=True)
class SweepRecord:
    d: float
    zeta_policy: str
    model: str
    labeled: bool
    worst_time: float
    argmax_e1: float
    case_tag: str

    def csv_row(self) -> str:
        return (
            f"{self.d:.6f},{self.zeta_policy},{self.model},"
            f"{int(self.labeled)},{self.worst_time:.6f},"
            f"{self.argmax_e1:.6f},{self.case_tag}"
        )


def series_cells(cfg: SweepConfig, series: SeriesSpec) -> list[tuple[float, float, Regime]]:
    """(d, zeta, regime) for each d of the grid, in d order; every cell is
    checked and classified before any cell runs."""
    cells = []
    for d in cfg.d_grid():
        zeta = resolve_zeta(series.zeta_policy, d)
        check_zeta(d, zeta)
        cells.append((d, zeta, classify(series.model, series.labeled, d, zeta)))
    return cells


def series_blocks(cfg: SweepConfig, series: SeriesSpec) -> list[list[tuple[float, float, Regime]]]:
    """series_cells in blocks of consecutive cells of one regime, each of at
    most _batch.BLOCK_POINTS exit points (at least one cell): one kernel
    call evaluates a block."""
    from . import _batch  # imported on first use, not at CLI start

    per_block = max(1, _batch.BLOCK_POINTS // _batch.exit_count(cfg.exit_step))
    blocks = []
    for cell in series_cells(cfg, series):
        if blocks and blocks[-1][-1][2] is cell[2] and len(blocks[-1]) < per_block:
            blocks[-1].append(cell)
        else:
            blocks.append([cell])
    return blocks


def _eval_block(args) -> list[SweepRecord]:
    block, series, cfg = args
    from . import _batch

    worst = _batch.worst_cells(block, cfg.exit_step)
    return [SweepRecord(d, series.zeta_policy, series.model.value,
                        series.labeled, time, argmax.theta, tag)
            for (d, _, _), (time, argmax, tag) in zip(block, worst)]


def run_sweep(cfg: SweepConfig, series: SeriesSpec) -> list[SweepRecord]:
    """One record per d grid point, ordered by d, worker-count independent.

    Each call with more than one worker starts and joins its own pool: the
    workers are reaped when it returns, so RUSAGE_CHILDREN counts their CPU
    and peak memory, which a pool kept across calls would leave uncounted.
    The pool has at most one worker per block: under fork it starts all
    of its workers at the first submit, busy or not.
    """
    jobs = [(block, series, cfg) for block in series_blocks(cfg, series)]
    workers = min(cfg.workers, len(jobs))
    if workers == 1:
        return [rec for job in jobs for rec in _eval_block(job)]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [rec for recs in pool.map(_eval_block, jobs, chunksize=3) for rec in recs]


def min_over_d(records: list[SweepRecord]) -> tuple[float, float]:
    """Grid argmin of the worst time: (d_star, time_star), smallest d on ties."""
    if not records:
        raise ValueError("no records")
    best = records[0]
    for rec in records[1:]:
        if rec.worst_time < best.worst_time:
            best = rec
    return best.d, best.worst_time


def crossing_intervals(a: list[SweepRecord], b: list[SweepRecord],
                       slack: float = 0.0):
    """Maximal d intervals (grid resolution) where series a exceeds series b.

    `slack` absorbs exit-grid quantization when comparing coarse sweeps;
    the worst case over a finite grid is only trustworthy to about one
    grid step.
    """
    if len(a) != len(b) or any(abs(x.d - y.d) > 1e-12 for x, y in zip(a, b)):
        raise ValueError("series evaluated on different d grids")
    intervals = []
    start = None
    for x, y in zip(a, b):
        if x.worst_time > y.worst_time + slack:
            if start is None:
                start = x.d
            end = x.d
        else:
            if start is not None:
                intervals.append((start, end))
                start = None
    if start is not None:
        intervals.append((start, end))
    return intervals


def transition_points(records: list[SweepRecord]) -> list[float]:
    """d values where the worst-case case tag changes from the previous cell."""
    out = []
    for prev, cur in zip(records, records[1:]):
        if cur.case_tag != prev.case_tag:
            out.append(cur.d)
    return out


def local_minima(records: list[SweepRecord]) -> list[float]:
    """Interior d values where the worst-time curve dips by more than _DIP."""
    out = []
    for i in range(1, len(records) - 1):
        w_prev = records[i - 1].worst_time
        w_here = records[i].worst_time
        w_next = records[i + 1].worst_time
        if w_here < w_prev - _DIP and w_here <= w_next + _DIP:
            out.append(records[i].d)
    return out


def write_csv(records: list[SweepRecord], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


# Every series scripts/run_sweeps.py writes, in its order.
ALL_SERIES = (
    SeriesSpec(CommModel.WIRELESS, False, "0"),
    SeriesSpec(CommModel.WIRELESS, False, "d/2"),
    SeriesSpec(CommModel.WIRELESS, False, "d"),
    SeriesSpec(CommModel.WIRELESS, True, "0"),
    SeriesSpec(CommModel.WIRELESS, True, "d/2"),
    SeriesSpec(CommModel.WIRELESS, True, "d"),
    SeriesSpec(CommModel.FACE_TO_FACE, False, "0"),
    SeriesSpec(CommModel.FACE_TO_FACE, False, "d"),
    SeriesSpec(CommModel.FACE_TO_FACE, True, "0"),
    SeriesSpec(CommModel.FACE_TO_FACE, True, "d/2"),
    SeriesSpec(CommModel.FACE_TO_FACE, True, "d"),
)

# The six series behind the Table-1 reproduction, in its row order.
TABLE1_SERIES = tuple(SeriesSpec(CommModel.WIRELESS, labeled, zeta)
                      for labeled in (False, True) for zeta in ("0", "d", "d/2"))


def table1(cfg: SweepConfig):
    """Minimum worst-case time per series: list of (series, d*, time*)."""
    rows = []
    for series in TABLE1_SERIES:
        records = run_sweep(cfg, series)
        d_star, t_star = min_over_d(records)
        rows.append((series, d_star, t_star))
    return rows
