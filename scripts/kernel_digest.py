#!/usr/bin/env python3
"""Hash every sweep cell's per-exit kernel output, one line per series.

A sweep CSV keeps only each cell's maximum; this digest covers every
point of the exit grid.  The kernels run on the blocks of cells the sweep
hands them, one call a block.  Each line holds the series key, its cell
count and the sha256 of the `times` and `codes` bytes of all its cells,
in d order.  Run it on two source trees and `diff` the outputs to check that a
kernel change keeps every bit:

    PYTHONPATH=src python3 scripts/kernel_digest.py > after.txt

stderr names numpy's version and CPU dispatch (`numpy_stamp.py`); compare
digests only between runs whose stamps agree.

The grid options are those of `run_sweeps.py` (paper grid by default).
"""

import argparse
import hashlib
import sys

from diskevac import _batch
from diskevac.sweep import ALL_SERIES, SweepConfig, series_blocks

from numpy_stamp import numpy_stamp  # beside this script


def digest(cfg, series):
    """(cell count, sha256 hex) over one series' cells."""
    grid = _batch.exit_grid(cfg.exit_step)
    h = hashlib.sha256()
    blocks = series_blocks(cfg, series)
    for block in blocks:
        # the kernel call the sweep makes for the same block, one row a cell
        times, codes = _batch.batch_block(block, grid)
        for row_times, row_codes in zip(times, codes):
            h.update(row_times.tobytes())
            h.update(row_codes.tobytes())
    return sum(map(len, blocks)), h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d-step", type=float, default=SweepConfig.d_step)
    parser.add_argument("--exit-step", type=float, default=SweepConfig.exit_step)
    args = parser.parse_args()
    cfg = SweepConfig(d_step=args.d_step, exit_step=args.exit_step)
    print(numpy_stamp(), file=sys.stderr)
    for series in ALL_SERIES:
        cells, hexdigest = digest(cfg, series)
        print(f"{series.key} {cells} {hexdigest}")


if __name__ == "__main__":
    main()
