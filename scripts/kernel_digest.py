#!/usr/bin/env python3
"""Hash every sweep cell's per-exit kernel output, one line per series.

A sweep CSV keeps only each cell's maximum; this digest covers every
point of the exit grid.  Each line holds the series key, its cell count
and the sha256 of the `times` and `codes` bytes of all its cells, in d
order.  Run it on two source trees and `diff` the outputs to check that a
kernel change keeps every bit:

    PYTHONPATH=src python3 scripts/kernel_digest.py > after.txt

The grid options are those of `run_sweeps.py` (paper grid by default).
"""

import argparse
import hashlib

from diskevac import _batch
from diskevac.scenarios import classify, resolve_zeta
from diskevac.sweep import ALL_SERIES, SweepConfig


def digest(cfg, series):
    """(cell count, sha256 hex) over one series' cells."""
    grid = _batch.exit_grid(cfg.exit_step)
    h = hashlib.sha256()
    ds = cfg.d_grid()
    for d in ds:
        zeta = resolve_zeta(series.zeta_policy, d)
        regime = classify(series.model, series.labeled, d, zeta)
        # the dispatch worst_wireless and worst_f2f call for the same cell
        times, codes = _batch.batch_cell(regime, d, zeta, grid, series.labeled)
        h.update(times.tobytes())
        h.update(codes.tobytes())
    return len(ds), h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d-step", type=float, default=0.01)
    parser.add_argument("--exit-step", type=float, default=0.001)
    args = parser.parse_args()
    cfg = SweepConfig(d_step=args.d_step, exit_step=args.exit_step)
    for series in ALL_SERIES:
        cells, hexdigest = digest(cfg, series)
        print(f"{series.key} {cells} {hexdigest}")


if __name__ == "__main__":
    main()
