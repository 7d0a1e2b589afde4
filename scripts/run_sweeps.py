#!/usr/bin/env python3
"""Run every worst-case sweep at full resolution and write CSVs.

Produces one file per series under results/, on the paper grid of
SweepConfig (d step 0.01, exit step 0.001) unless --d-step and --exit-step
say otherwise.  Pass --jobs to spread the d cells over workers.  Each
series prints its cell count, wall seconds and the minor page faults of
this process and its workers while it ran.
"""

import argparse
import resource
import time
from pathlib import Path

from diskevac.sweep import ALL_SERIES, SweepConfig, run_sweep, write_csv


def minor_faults() -> int:
    """Minor page faults so far of this process and its reaped workers."""
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--d-step", type=float, default=SweepConfig.d_step)
    parser.add_argument("--exit-step", type=float, default=SweepConfig.exit_step)
    parser.add_argument("--jobs", type=int, default=SweepConfig.workers)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = SweepConfig(d_step=args.d_step, exit_step=args.exit_step,
                      workers=args.jobs)
    for series in ALL_SERIES:
        t0, flt0 = time.time(), minor_faults()
        records = run_sweep(cfg, series)
        path = out_dir / f"sweep-{series.key.replace('/', '')}.csv"
        write_csv(records, path)
        print(f"{series.key:24s} {len(records)} cells "
              f"{time.time() - t0:6.1f}s {minor_faults() - flt0:8d} faults -> {path}")


if __name__ == "__main__":
    main()
