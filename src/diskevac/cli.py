"""Command-line front end.

Subcommands: eval, sweep, bounds, verify, table1, compare.  Times print
without the center-to-perimeter unit unless --include-center-leg is set.
Exit codes: 0 success, 2 usage error, 3 failed verification.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .bounds import f2f_lower_bound, wireless_gap_bound
from .geometry import ArcPos, DomainError
from .scenarios import CommModel, Scenario, ScenarioError, evaluate, resolve_zeta
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


def _positive_finite(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"{text} is not finite and > 0")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskevac",
        description="Two-robot, two-exit disk evacuation simulator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, need_d: bool):
        p.add_argument("--model", choices=["wireless", "f2f"], default="wireless")
        p.add_argument("--labeled", action="store_true")
        p.add_argument("--zeta", default="0",
                       help="0, d, d/2 or an explicit value in radians")
        if need_d:
            p.add_argument("--d", type=float, required=True,
                           help="exit separation in radians")
        p.add_argument("--include-center-leg", action="store_true",
                       help="add the 1-unit center-to-perimeter leg to times")

    p_eval = sub.add_parser("eval", help="evaluate one exit placement")
    add_common(p_eval, need_d=True)
    p_eval.add_argument("--e1", type=float, required=True,
                        help="position of exit E1 in radians")
    p_eval.add_argument("--trace", help="write the replay trace to this path")

    p_sweep = sub.add_parser("sweep", help="worst-case sweep over d")
    add_common(p_sweep, need_d=False)
    p_sweep.add_argument("--d-step", type=float, default=0.01)
    p_sweep.add_argument("--exit-step", type=float, default=0.001)
    p_sweep.add_argument("--d-min", type=float, default=0.0)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--out", help="CSV output path")

    p_bounds = sub.add_parser("bounds", help="closed-form lower bounds")
    p_bounds.add_argument("--d", type=float, required=True)
    p_bounds.add_argument("--zeta", type=float, default=None,
                          help="also print the wireless zeta > d bound")

    p_verify = sub.add_parser("verify", help="replay-oracle batch check")
    p_verify.add_argument("--samples", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=_positive_finite, default=1e-4,
                          help="largest accepted |policy - replay| time")

    p_table = sub.add_parser("table1", help="reproduce the Table-1 minima")
    p_table.add_argument("--d-step", type=float, default=0.01)
    p_table.add_argument("--exit-step", type=float, default=0.001)
    p_table.add_argument("--jobs", type=int, default=1)
    p_table.add_argument("--out", help="CSV output path")

    p_cmp = sub.add_parser("compare", help="compare two series over d")
    for tag in ("a", "b"):
        p_cmp.add_argument(f"--model-{tag}", choices=["wireless", "f2f"],
                           required=True)
        p_cmp.add_argument(f"--labeled-{tag}", action="store_true")
        p_cmp.add_argument(f"--zeta-{tag}", default="0")
    p_cmp.add_argument("--d-step", type=float, default=0.01)
    p_cmp.add_argument("--exit-step", type=float, default=0.001)
    p_cmp.add_argument("--d-min", type=float, default=0.0)
    p_cmp.add_argument("--jobs", type=int, default=1)
    p_cmp.add_argument("--slack", type=float, default=0.0,
                       help="ignore excesses up to this value (grid noise)")
    p_cmp.add_argument("--expect-a-below-b", action="store_true",
                       help="exit 3 unless series a never exceeds series b")
    return parser


def _scenario(args, e1: float) -> Scenario:
    model = CommModel.WIRELESS if args.model == "wireless" else CommModel.FACE_TO_FACE
    return Scenario(model, args.labeled, args.d,
                    resolve_zeta(args.zeta, args.d), ArcPos(e1))


def _cmd_eval(args) -> int:
    from .replay import dump_trace, replay

    scn = _scenario(args, args.e1)
    res = evaluate(scn)
    extra = 1.0 if args.include_center_leg else 0.0
    print(f"time {res.time_from_perimeter + extra:.6f} case {res.case_tag}")
    print(f"r1_exit {res.r1_exit_time + extra:.6f} "
          f"r2_exit {res.r2_exit_time + extra:.6f} x {res.discovery_arc_x:.6f} "
          f"simultaneous {int(res.simultaneous)}")
    if args.trace:
        tr1, tr2, _ = replay(scn)
        dump_trace(tr1, tr2, args.trace)
    return 0


def _series_from(model: str, labeled: bool, zeta: str) -> SeriesSpec:
    m = CommModel.WIRELESS if model == "wireless" else CommModel.FACE_TO_FACE
    return SeriesSpec(m, labeled, zeta)


def _cmd_sweep(args) -> int:
    cfg = SweepConfig(d_step=args.d_step, exit_step=args.exit_step,
                      d_min=args.d_min, include_center_leg=args.include_center_leg,
                      workers=args.jobs)
    series = _series_from(args.model, args.labeled, args.zeta)
    records = run_sweep(cfg, series)
    if args.out:
        write_csv(records, args.out)
        print(f"wrote {len(records)} records to {args.out}")
    else:
        for rec in records:
            print(rec.csv_row())
    return 0


def _cmd_bounds(args) -> int:
    res = f2f_lower_bound(args.d)
    print(f"f2f_lower_bound({args.d:.6f}) = {res.value:.6f} "
          f"[{res.regime.value}: {res.formula_text}]")
    if args.zeta is not None:
        gap = wireless_gap_bound(args.zeta)
        print(f"wireless_gap_bound({args.zeta:.6f}) = {gap.value:.6f} "
              f"[{gap.formula_text}]")
    return 0


def random_scenarios(seed: int, samples: int):
    """Seeded random scenarios covering every evaluator."""
    rng = np.random.RandomState(seed)
    kinds = ("wl-unlab", "wl-lab", "f2f-same", "f2f-diff", "f2f-lab")
    out = []
    for _ in range(samples):
        kind = kinds[rng.randint(len(kinds))]
        d = rng.uniform(0.0, math.pi)
        e1 = rng.uniform(0.0, 2.0 * math.pi)
        if kind == "wl-unlab":
            scn = Scenario(CommModel.WIRELESS, False, d, rng.uniform(0.0, d), ArcPos(e1))
        elif kind == "wl-lab":
            scn = Scenario(CommModel.WIRELESS, True, d, rng.uniform(0.0, d), ArcPos(e1))
        elif kind == "f2f-same":
            scn = Scenario(CommModel.FACE_TO_FACE, False, d, 0.0, ArcPos(e1))
        elif kind == "f2f-diff":
            scn = Scenario(CommModel.FACE_TO_FACE, False, d, d, ArcPos(e1))
        else:
            scn = Scenario(CommModel.FACE_TO_FACE, True, d, rng.uniform(0.0, d), ArcPos(e1))
        out.append(scn)
    return out


def run_verification(samples: int, seed: int, tol: float):
    """Replay every sampled scenario; returns (max_deviation, issues)."""
    from .replay import replay, verify_agreement

    max_dev = 0.0
    issues: list[str] = []
    for scn in random_scenarios(seed, samples):
        res = evaluate(scn)
        tr1, tr2, makespan = replay(scn)
        dev = abs(makespan - res.time_from_perimeter)
        max_dev = max(max_dev, dev)
        if dev >= tol:
            issues.append(f"{scn}: policy {res.time_from_perimeter} vs replay {makespan}")
        report = verify_agreement(scn, tr1, tr2)
        if not report.passed:
            issues.extend(f"{scn}: {msg}" for msg in report.issues)
    return max_dev, issues


def _cmd_verify(args) -> int:
    max_dev, issues = run_verification(args.samples, args.seed, args.tol)
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
        if args.verb == "eval":
            return _cmd_eval(args)
        if args.verb == "sweep":
            return _cmd_sweep(args)
        if args.verb == "bounds":
            return _cmd_bounds(args)
        if args.verb == "verify":
            return _cmd_verify(args)
        if args.verb == "table1":
            return _cmd_table1(args)
        if args.verb == "compare":
            return _cmd_compare(args)
    except (ScenarioError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
