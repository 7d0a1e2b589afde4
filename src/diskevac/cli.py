"""Command-line front end.

Subcommands: eval, sweep, bounds, verify, table1, compare.  Times print
without the center-to-perimeter unit unless --include-center-leg is set.
Exit codes: 0 success, 2 usage error, 3 failed verification or a policy
that refused a scenario.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .bounds import f2f_lower_bound, wireless_gap_bound
from .geometry import TWO_PI, ArcPos, DomainError
from .meeting import RegimeError, SolverError
from .replay import EVENT_TIME_TOL  # loaded with the package
from .scenarios import (
    CommModel,
    Scenario,
    ScenarioError,
    TraceInvalidError,
    evaluate,
    resolve_zeta,
)
from .sweep import (
    SeriesSpec,
    SweepConfig,
    crossing_intervals,
    run_sweep,
    table1,
    write_csv,
)

USAGE_ERROR = 2
VERIFY_ERROR = 3

# A policy or the replay failed on a valid scenario: a fault, not bad input
POLICY_FAILURES = (TraceInvalidError, RegimeError, SolverError)


def _nonnegative_finite(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"{text} is not finite and >= 0")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a count >= 1")
    return value


def _output_file(text: str) -> str:
    """A path a command can write its output to, checked before any work."""
    folder = os.path.dirname(os.path.abspath(text))
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"directory {folder} does not exist")
    if os.path.isdir(text):
        raise argparse.ArgumentTypeError(f"{text} is a directory")
    if not os.access(folder, os.W_OK):
        raise argparse.ArgumentTypeError(f"directory {folder} is not writable")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskevac",
        description="Two-robot, two-exit disk evacuation simulator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    models = [m.value for m in CommModel]

    def add_common(p, need_d: bool):
        p.add_argument("--model", choices=models, default="wireless")
        p.add_argument("--labeled", action="store_true")
        p.add_argument("--zeta", default="0",
                       help="0, d, d/2 or an explicit value in radians")
        if need_d:
            p.add_argument("--d", type=float, required=True,
                           help="exit separation in radians")
        p.add_argument("--include-center-leg", action="store_true",
                       help="add the 1-unit center-to-perimeter leg to times")

    def add_grid(p):
        p.add_argument("--d-step", type=float, default=SweepConfig.d_step)
        p.add_argument("--exit-step", type=float, default=SweepConfig.exit_step)
        p.add_argument("--jobs", type=int, default=SweepConfig.workers)

    p_eval = sub.add_parser("eval", help="evaluate one exit placement")
    p_eval.set_defaults(run=_cmd_eval)
    add_common(p_eval, need_d=True)
    p_eval.add_argument("--e1", type=float, required=True,
                        help="position of exit E1 in radians")
    p_eval.add_argument("--trace", type=_output_file,
                        help="write the replay trace to this path")

    p_sweep = sub.add_parser("sweep", help="worst-case sweep over d")
    p_sweep.set_defaults(run=_cmd_sweep)
    add_common(p_sweep, need_d=False)
    add_grid(p_sweep)
    p_sweep.add_argument("--d-min", type=float, default=SweepConfig.d_min)
    p_sweep.add_argument("--out", type=_output_file, help="CSV output path")

    p_bounds = sub.add_parser("bounds", help="closed-form lower bounds")
    p_bounds.set_defaults(run=_cmd_bounds)
    p_bounds.add_argument("--d", type=float, required=True)
    p_bounds.add_argument("--zeta", type=float, default=None,
                          help="also print the wireless zeta > d bound")

    p_verify = sub.add_parser("verify", help="replay-oracle batch check")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("--samples", type=_count, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)

    p_table = sub.add_parser("table1", help="reproduce the Table-1 minima")
    p_table.set_defaults(run=_cmd_table1)
    add_grid(p_table)
    p_table.add_argument("--out", type=_output_file, help="CSV output path")

    p_cmp = sub.add_parser("compare", help="compare two series over d")
    p_cmp.set_defaults(run=_cmd_compare)
    for tag in ("a", "b"):
        p_cmp.add_argument(f"--model-{tag}", choices=models, required=True)
        p_cmp.add_argument(f"--labeled-{tag}", action="store_true")
        p_cmp.add_argument(f"--zeta-{tag}", default="0")
    add_grid(p_cmp)
    p_cmp.add_argument("--d-min", type=float, default=SweepConfig.d_min)
    p_cmp.add_argument("--slack", type=_nonnegative_finite, default=0.0,
                       help="ignore excesses up to this value (grid noise)")
    p_cmp.add_argument("--expect-a-below-b", action="store_true",
                       help="exit 3 unless series a never exceeds series b")
    return parser


def _cmd_eval(args) -> int:
    from .replay import dump_trace, replay

    scn = Scenario(CommModel(args.model), args.labeled, args.d,
                   resolve_zeta(args.zeta, args.d), ArcPos(args.e1))
    res = evaluate(scn)
    extra = 1.0 if args.include_center_leg else 0.0
    print(f"time {res.time_from_perimeter + extra:.6f} case {res.case_tag}")
    print(f"r1_exit {res.r1_exit_time + extra:.6f} "
          f"r2_exit {res.r2_exit_time + extra:.6f} x {res.discovery_arc_x:.6f} "
          f"simultaneous {int(res.simultaneous)}")
    if args.trace:
        tr1, tr2, _ = replay(scn, res)
        dump_trace(tr1, tr2, args.trace)
    return 0


def _series_from(model: str, labeled: bool, zeta: str) -> SeriesSpec:
    return SeriesSpec(CommModel(model), labeled, zeta)


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(d_step=args.d_step, exit_step=args.exit_step,
                      d_min=args.d_min, workers=args.jobs)
    records = run_sweep(cfg, _series_from(args.model, args.labeled, args.zeta))
    if args.include_center_leg:
        records = [replace(rec, worst_time=rec.worst_time + 1.0) for rec in records]
    if args.out:
        write_csv(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")
    else:
        for rec in records:
            print(rec.csv_row())
    return 0


def _cmd_bounds(args) -> int:
    res = f2f_lower_bound(args.d)
    gap = None if args.zeta is None else wireless_gap_bound(args.zeta)
    print(f"f2f_lower_bound({args.d:.6f}) = {res.value:.6f} "
          f"[{res.regime.value}: {res.formula_text}]")
    if gap is not None:
        print(f"wireless_gap_bound({args.zeta:.6f}) = {gap.value:.6f} "
              f"[{gap.formula_text}]")
    return 0


# The five verify families, one per evaluator: (model, labeled, zeta / d),
# the ratio None where zeta is drawn on [0, d).
_FAMILIES = (
    (CommModel.WIRELESS, False, None),
    (CommModel.WIRELESS, True, None),
    (CommModel.FACE_TO_FACE, False, 0.0),
    (CommModel.FACE_TO_FACE, False, 1.0),
    (CommModel.FACE_TO_FACE, True, None),
)


def random_scenarios(seed: int, samples: int):
    """Seeded random scenarios covering every evaluator: per scenario a
    family, d, e1 and then, for the families that draw it, zeta.

    A uniform draw on [0, hi) is hi * random_sample(), which is the value
    RandomState.uniform(0.0, hi) returns, at a fifth of its call cost.
    """
    rng = np.random.RandomState(seed)
    draw = rng.random_sample
    out = []
    for _ in range(samples):
        model, labeled, ratio = _FAMILIES[rng.randint(len(_FAMILIES))]
        d = math.pi * draw()
        e1 = ArcPos(TWO_PI * draw())
        out.append(Scenario(model, labeled, d, d * (draw() if ratio is None else ratio), e1))
    return out


def run_verification(samples: int, seed: int, tol: float):
    """Replay every sampled scenario; returns (max_deviation, issues).

    A policy or replay that cannot handle a scenario is one more issue.
    """
    from .replay import replay, verify_agreement

    max_dev = 0.0
    issues: list[str] = []
    for scn in random_scenarios(seed, samples):
        try:
            res = evaluate(scn)
            tr1, tr2, makespan = replay(scn, res)
        except POLICY_FAILURES as exc:
            issues.append(f"{scn}: {type(exc).__name__}: {exc}")
            continue
        dev = abs(makespan - res.time_from_perimeter)
        max_dev = max(max_dev, dev)
        if not dev < tol:  # a nan deviation fails too
            issues.append(f"{scn}: policy {res.time_from_perimeter} vs replay {makespan}")
        # The makespan is a max, which passes over a nan: check each robot too.
        for robot, tr, exit_time in ((1, tr1, res.r1_exit_time), (2, tr2, res.r2_exit_time)):
            if not abs(tr.final_time - exit_time) < tol:
                issues.append(f"{scn}: R{robot} policy exit {exit_time} "
                              f"vs replay {tr.final_time}")
        report = verify_agreement(scn, tr1, tr2)
        if not report.passed:
            issues.extend(f"{scn}: {msg}" for msg in report.issues)
    return max_dev, issues


def _cmd_verify(args) -> int:
    max_dev, issues = run_verification(args.samples, args.seed, EVENT_TIME_TOL)
    print(f"verified {args.samples} scenarios, max |policy - replay| = {max_dev:.3e}")
    if issues:
        for msg in issues[:20]:
            print("FAIL:", msg)
        print(f"{len(issues)} verification failures")
        return VERIFY_ERROR
    return 0


def _cmd_table1(args) -> int:
    cfg = SweepConfig(d_step=args.d_step, exit_step=args.exit_step,
                      workers=args.jobs)
    rows = table1(cfg)
    lines = ["zeta_policy,labeled,min_time,d_star"]
    for series, d_star, t_star in rows:
        labeled = "labeled" if series.labeled else "unlabeled"
        print(f"zeta={series.zeta_policy:<4} {labeled:<9} "
              f"min_time={t_star:.4f} at d={d_star:.4f}")
        lines.append(f"{series.zeta_policy},{int(series.labeled)},"
                     f"{t_star:.6f},{d_star:.6f}")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_compare(args) -> int:
    cfg = SweepConfig(d_step=args.d_step, exit_step=args.exit_step,
                      d_min=args.d_min, workers=args.jobs)
    rec_a = run_sweep(cfg, _series_from(args.model_a, args.labeled_a, args.zeta_a))
    rec_b = run_sweep(cfg, _series_from(args.model_b, args.labeled_b, args.zeta_b))
    intervals = crossing_intervals(rec_a, rec_b, slack=args.slack)
    if intervals:
        pretty = ", ".join(f"({lo:.3f}, {hi:.3f})" for lo, hi in intervals)
        print(f"series a exceeds series b on: {pretty}")
    else:
        print("series a never exceeds series b")
    if args.expect_a_below_b and intervals:
        return VERIFY_ERROR
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except POLICY_FAILURES as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except (ScenarioError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
