"""Worst-case curves over d: sweeps, Table-1 minima, crossings, transitions.

A sweep evaluates one series (model, labeling, zeta policy) on a d grid;
each cell takes the maximum realized evacuation time over a dense grid of
exit positions.  Cells are independent work items, so any worker count
yields byte-identical output.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .scenarios import CommModel, Regime, classify, resolve_zeta

CSV_HEADER = "d,zeta_policy,model,labeled,worst_time,argmax_e1,case"


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
    d_min: float = 0.0
    d_max: float = math.pi
    include_center_leg: bool = False
    workers: int = 1

    def __post_init__(self):
        for step in (self.d_step, self.exit_step):
            if not (math.isfinite(step) and step > 0.0):
                raise ValueError(f"grid step {step} is not finite and > 0")
        if not (0.0 <= self.d_min <= self.d_max <= math.pi + 1e-12):
            raise ValueError("d range must sit inside [0, pi]")

    def d_grid(self) -> list[float]:
        ds = []
        k = 0
        while True:
            d = self.d_min + k * self.d_step
            if d > self.d_max + 1e-12:
                break
            ds.append(min(d, math.pi))
            k += 1
        if ds and ds[-1] < self.d_max - 1e-9:
            ds.append(self.d_max)
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


def _eval_cell(args) -> SweepRecord:
    d, series, cfg = args
    from . import face_to_face, wireless

    regime = classify(series.model, series.labeled, d,
                      resolve_zeta(series.zeta_policy, d))
    if regime is Regime.WIRELESS:
        time, argmax, tag = wireless.worst_wireless(d, series.zeta_policy,
                                                    series.labeled, cfg.exit_step)
    else:
        time, argmax, tag = face_to_face.worst_f2f(d, regime.value, cfg.exit_step,
                                                   series.zeta_policy)
    if cfg.include_center_leg:
        time += 1.0
    return SweepRecord(d, series.zeta_policy, series.model.value,
                       series.labeled, time, argmax.theta, tag)


def run_sweep(cfg: SweepConfig, series: SeriesSpec) -> list[SweepRecord]:
    """One record per d grid point, ordered by d, worker-count independent."""
    jobs = [(d, series, cfg) for d in cfg.d_grid()]
    if cfg.workers <= 1:
        return [_eval_cell(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(_eval_cell, jobs, chunksize=8))


def min_over_d(records: list[SweepRecord]) -> tuple[float, float]:
    """Grid argmin of the worst time: (d_star, time_star), smallest d on ties."""
    if not records:
        raise ValueError("no records")
    best = records[0]
    for rec in records[1:]:
        if rec.worst_time < best.worst_time - 0.0:
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


def local_minima(records: list[SweepRecord], prominence: float = 1e-9) -> list[float]:
    """Interior d values where the worst-time curve dips."""
    out = []
    for i in range(1, len(records) - 1):
        w_prev = records[i - 1].worst_time
        w_here = records[i].worst_time
        w_next = records[i + 1].worst_time
        if w_here < w_prev - prominence and w_here <= w_next + prominence:
            out.append(records[i].d)
    return out


def write_csv(records: list[SweepRecord], path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def read_csv(path) -> list[SweepRecord]:
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


# The six series behind the Table-1 reproduction.
TABLE1_SERIES = (
    SeriesSpec(CommModel.WIRELESS, False, "0"),
    SeriesSpec(CommModel.WIRELESS, False, "d"),
    SeriesSpec(CommModel.WIRELESS, False, "d/2"),
    SeriesSpec(CommModel.WIRELESS, True, "0"),
    SeriesSpec(CommModel.WIRELESS, True, "d"),
    SeriesSpec(CommModel.WIRELESS, True, "d/2"),
)


def table1(cfg: SweepConfig):
    """Minimum worst-case time per series: list of (series, d*, time*)."""
    rows = []
    for series in TABLE1_SERIES:
        records = run_sweep(cfg, series)
        d_star, t_star = min_over_d(records)
        rows.append((series, d_star, t_star))
    return rows
