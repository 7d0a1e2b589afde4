#!/usr/bin/env python3
"""diskevac benchmark: one workload, one run, result as the last stdout line.

    python3 perfbench/run.py --workload f2f-sweep --seed 0 --seconds 20 --trace 0

Workloads (see BENCHMARK.json): f2f-sweep, wireless-table1, replay-verify,
sweep-pool; `--workload all` runs each in its own interpreter, one after
the other, and ends with one JSON object keyed by workload.  --trace 0
prints the end-to-end metrics, --trace 1 the per-layer ones.  Seed 0 is
the paper's grid.  The program is imported from the checkout's src/
directory; without it the run fails with exit code 2.  Manifest, sweep
CSVs and spans go to .perfbench_out/ in the checkout.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("f2f-sweep", "wireless-table1", "replay-verify", "sweep-pool")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:  # verify's --seed feeds numpy's RandomState
        parser.error("--seed must be in [0, 2**32)")
    if args.workload == "all":
        return _run_all(args)

    src = ROOT / "src"
    if not (src / "diskevac" / "__init__.py").is_file():
        print(f"error: no diskevac sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import diskevac
    if Path(diskevac.__file__).resolve().parent != (src / "diskevac").resolve():
        print(f"error: diskevac imported from {diskevac.__file__}", file=sys.stderr)
        return 2
    from bench import run_benchmark

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                           ROOT, out_dir)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {result['attempted']} failed {result['failed']} "
          f"error_rate {result['failed'] / result['attempted']:.6g} "
          f"correct {result['correct']} manifest {out_dir / 'manifest.json'}")
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Each workload in a fresh interpreter, so peak RSS is its own."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
