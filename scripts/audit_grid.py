#!/usr/bin/env python3
"""Compare each sweep kernel with scalar `evaluate` on the whole exit grid.

A sweep CSV keeps only each cell's maximum, and the argmax replay checks
only that point.  This audit takes every k-th d cell of every series
(k = --stride) and evaluates each point of the cell's exit grid twice: by
the vectorized kernel the sweep calls and by the scalar evaluator of the
scenario's regime.  It prints one line per series:

    <series> cells <n> points <n> max_dt <max |time difference|> tag_mismatches <n> raises <n>

`raises` counts the points that the scalar evaluator refused, plus every
point of a cell whose kernel refused it; such points enter neither
`max_dt` nor `tag_mismatches`.  At stride 40 on the paper grid the audit
covers 88 cells and about 550,000 points, at a scalar evaluation each:

    PYTHONPATH=src python3 scripts/audit_grid.py --stride 40

The grid options are those of `run_sweeps.py` (paper grid by default).
"""

import argparse

from diskevac import _batch
from diskevac.cli import POLICY_FAILURES
from diskevac.geometry import ArcPos
from diskevac.scenarios import Scenario, evaluate
from diskevac.sweep import ALL_SERIES, SweepConfig, series_cells


def audit(cfg, series, stride):
    """(cells, points, max |dt|, tag mismatches, raises) over one series."""
    grid = _batch.exit_grid(cfg.exit_step)
    e1s = grid.tolist()
    cells = points = mismatches = raises = 0
    max_dt = 0.0
    for d, zeta, regime in series_cells(cfg, series)[::stride]:
        cells += 1
        points += len(e1s)
        try:
            times, codes = _batch.batch_cell(regime, d, zeta, grid)
        except POLICY_FAILURES:
            raises += len(e1s)
            continue
        for e1, t_kernel, code in zip(e1s, times.tolist(), codes.tolist()):
            try:
                out = evaluate(Scenario(series.model, series.labeled, d, zeta, ArcPos(e1)))
            except POLICY_FAILURES:
                raises += 1
                continue
            max_dt = max(max_dt, abs(out.time_from_perimeter - t_kernel))
            mismatches += out.case_tag != _batch.decode_tag(code)
    return cells, points, max_dt, mismatches, raises


def _stride(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a stride >= 1")
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--stride", type=_stride, default=40,
                        help="audit every k-th d cell of each series")
    parser.add_argument("--d-step", type=float, default=SweepConfig.d_step)
    parser.add_argument("--exit-step", type=float, default=SweepConfig.exit_step)
    args = parser.parse_args()
    cfg = SweepConfig(d_step=args.d_step, exit_step=args.exit_step)
    for series in ALL_SERIES:
        cells, points, max_dt, mismatches, raises = audit(cfg, series, args.stride)
        print(f"{series.key} cells {cells} points {points} max_dt {max_dt:.3g} "
              f"tag_mismatches {mismatches} raises {raises}", flush=True)


if __name__ == "__main__":
    main()
