#!/usr/bin/env python3
"""Time two source trees against each other in one interpreter.

    python3 scripts/ab_time.py OLD_SRC NEW_SRC --work verify --rounds 30

OLD_SRC and NEW_SRC are directories holding a `diskevac` package (a
checkout's `src`).  Each package is copied under its own name into a
temporary directory and both are imported here; `diskevac` uses only
relative imports, so the copies do not see each other.  A first pass of
each tree checks that both return the same output.  Then every round
times one pass of each in process CPU time, the two in turn, with the
first side swapped every round.  The summary line reads

    work <w> rounds <n> old_s <median> new_s <median> ratio <median of old/new>
    ratio_q1 <q1> ratio_q3 <q3> wins <n> old_flt <median> new_flt <median>

where `ratio` is the median over rounds of the per-round ratio (above 1:
the new tree is faster), `ratio_q1` and `ratio_q3` are that ratio's
quartiles, which show how far the rounds spread, `wins` counts the rounds
the new tree won and `old_flt`/`new_flt` are the median minor page faults
of a pass.  Two
passes in one process share the machine's state, so the ratio resolves
differences that separate runs of a benchmark would blur.  They also
share one allocator and every other piece of process-wide state: a change
to that state, such as the malloc thresholds `_batch` sets on import,
reaches both trees here and reads as no change.  Compare such a change
with perfbench runs of each tree in its own process.

Work:
- verify: `cli.run_verification` on --samples seeded scenarios, at verify's bound
- f2f: `sweep.run_sweep` over the two unlabeled face-to-face series
- table1: `sweep.table1`
The sweeps use the grid --d-step, --exit-step.
"""

import argparse
import gc
import importlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path


def load(src: str, name: str, into: Path):
    """Import src/diskevac as the package `name`; returns its cli and sweep."""
    pkg = Path(src) / "diskevac"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} is not a package")
    shutil.copytree(pkg, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return (importlib.import_module(f"{name}.cli"),
            importlib.import_module(f"{name}.sweep"))


def work_for(args, cli, sweep):
    """A no-argument pass over the chosen work, returning comparable output."""
    if args.work == "verify":
        # at verify's own bound, replay.EVENT_TIME_TOL, which cli imports
        return lambda: cli.run_verification(args.samples, args.seed, cli.EVENT_TIME_TOL)
    step = {} if args.exit_step is None else {"exit_step": args.exit_step}
    cfg = sweep.SweepConfig(d_step=args.d_step, **step)
    if args.work == "table1":
        return lambda: [(s.key, d, t) for s, d, t in sweep.table1(cfg)]
    f2f = cli.CommModel.FACE_TO_FACE
    series = [sweep.SeriesSpec(f2f, False, zeta) for zeta in ("0", "d")]
    return lambda: [rec.csv_row() for s in series for rec in sweep.run_sweep(cfg, s)]


def cpu_and_faults(fn) -> tuple[float, int]:
    """Process CPU seconds and minor page faults of one pass."""
    gc.collect()
    flt0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.process_time()
    fn()
    t = time.process_time() - t0
    return t, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--work", choices=["verify", "f2f", "table1"], default="verify")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--samples", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--d-step", type=float, default=0.05)
    parser.add_argument("--exit-step", type=float,
                        help="default: the exit step of each tree's SweepConfig")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sys.dont_write_bytecode = True
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        old = work_for(args, *load(args.old_src, "diskevac_ab_old", Path(tmp)))
        new = work_for(args, *load(args.new_src, "diskevac_ab_new", Path(tmp)))
        if old() != new():
            print(f"error: the two trees return different {args.work} output",
                  file=sys.stderr)
            return 1
        m_old, m_new = [], []
        for k in range(args.rounds):
            sides = ((old, m_old), (new, m_new))
            for fn, measured in sides if k % 2 == 0 else sides[::-1]:
                measured.append(cpu_and_faults(fn))
    (t_old, f_old), (t_new, f_new) = zip(*m_old), zip(*m_new)
    ratios = [a / b for a, b in zip(t_old, t_new)]
    q1, _, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                 if len(ratios) > 1 else ratios * 3)  # quantiles needs two rounds
    wins = sum(b < a for a, b in zip(t_old, t_new))
    print(f"work {args.work} rounds {args.rounds} "
          f"old_s {statistics.median(t_old):.4f} new_s {statistics.median(t_new):.4f} "
          f"ratio {statistics.median(ratios):.4f} ratio_q1 {q1:.4f} ratio_q3 {q3:.4f} "
          f"wins {wins} "
          f"old_flt {statistics.median(f_old):.0f} new_flt {statistics.median(f_new):.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
