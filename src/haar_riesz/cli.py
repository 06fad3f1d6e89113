"""Command-line frontend binding all modules; emits machine-readable reports.

Exit codes are a stable contract:
  0  all requested verifications passed
  1  a verification failed (some inequality is exactly false)
  2  input error (bad flags, malformed files, out-of-domain values)
  3  numeric non-convergence in the float eigensolver
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence

from .constants import comparison_table
from .counterexample import _check_partial_sum, _rows
from .errors import ConsistencyError, ConvergenceError, InputError
from .gram import (
    build_gram,
    check_dense,
    eig_bounds,
    perturbation_demo,
    verify_bessel,
    verify_riesz,
)
from .haar import CoefficientMap, enumerate_family
from .measure import StepSet
from .rational import format_rational, parse_rational, render_float
from .search import SearchConfig, search_extremal
from .weights import MAX_GRID, WeightConfig, telescope_check, verify_grid


MAX_PRECISION = 767  # significant digits of the longest exact float64 expansion


def _write(args, text: str):
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write the report to {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _read_file(path: str, parse, what: str):
    """parse(fh) of the UTF-8 text file at path; a file that cannot be
    opened, decoded or parsed is an input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {what} from {path}: {exc}") from exc


def _load_json(path: str) -> dict:
    return _read_file(path, json.load, "JSON")


def _fraction_arg(text: str) -> Fraction:
    return parse_rational(text)


def cmd_gram(args) -> int:
    region = StepSet.from_json_dict(_load_json(args.set))
    family = enumerate_family(args.depth, region, args.p)
    check_dense(len(family))
    report = {
        "p": format_rational(args.p),
        "depth": args.depth,
        "family_size": len(family),
    }
    ok = True
    gram = build_gram(family, region)
    pencil = replace(gram, normalized=True)
    if family:
        low, high = eig_bounds(pencil)
        report["pencil_eig"] = [
            render_float(low, args.precision),
            render_float(high, args.precision),
        ]
    else:
        report["pencil_eig"] = None
    if args.c is not None:
        certified = verify_riesz(family, region, args.c)
        report["riesz"] = {"c": format_rational(args.c), "certified": certified}
        ok = ok and certified
    if args.bessel:
        certified = verify_bessel(family, region, args.p)
        report["bessel"] = {"bound": format_rational(Fraction(1) / args.p), "certified": certified}
        ok = ok and certified
    shown = pencil if args.normalized else gram
    if args.format == "csv":
        _write(args, shown.to_csv(args.precision))
    else:
        report["gram"] = shown.to_json_dict()
        _write(args, json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


def cmd_verify_weights(args) -> int:
    cfg = WeightConfig(args.p)
    result = verify_grid(cfg, args.grid)
    report = {
        "p": format_rational(result.p),
        "grid_step": format_rational(result.grid_step),
        "gpos_failures": [
            [format_rational(q1), format_rational(q2), kind]
            for q1, q2, kind in result.gpos_failures
        ],
        "gcomp_failures": [format_rational(q) for q in result.gcomp_failures],
        "C": format_rational(result.cap),
    }
    _write(args, json.dumps(report, indent=2) + "\n")
    return 0 if not result.gpos_failures and not result.gcomp_failures else 1


def cmd_counterexample(args) -> int:
    # one pass builds the table; each row's closed forms and the structure of
    # the step function its norm was integrated from are checked as it comes,
    # and a mismatch is a consistency failure
    rows = []
    for row, partial in _rows(args.n):
        if row.sum_of_norms != Fraction(2, 3) + Fraction(row.n, 6):
            raise ConsistencyError(f"sum of norms at n={row.n} misses its closed form")
        if row.norm_of_sum != Fraction(2, 3):
            raise ConsistencyError(f"norm of sum at n={row.n} misses its closed form")
        _check_partial_sum(row.n, partial)
        rows.append(row)
    if args.format == "csv":
        lines = ["n,sum_of_norms,norm_of_sum,ratio,sum_of_norms_float,norm_of_sum_float,ratio_float"]
        for row in rows:
            lines.append(
                ",".join(
                    [
                        str(row.n),
                        format_rational(row.sum_of_norms),
                        format_rational(row.norm_of_sum),
                        format_rational(row.ratio),
                        render_float(float(row.sum_of_norms), args.precision),
                        render_float(float(row.norm_of_sum), args.precision),
                        render_float(float(row.ratio), args.precision),
                    ]
                )
            )
        _write(args, "\n".join(lines) + "\n")
    else:
        payload = [
            {
                "n": row.n,
                "sum_of_norms": format_rational(row.sum_of_norms),
                "norm_of_sum": format_rational(row.norm_of_sum),
                "ratio": format_rational(row.ratio),
                "ratio_float": render_float(float(row.ratio), args.precision),
            }
            for row in rows
        ]
        _write(args, json.dumps(payload, indent=2) + "\n")
    return 0


MAX_P_LIST = 10_000  # values a --p-list range may hold


def _parse_p_list(spec: str) -> list[Fraction]:
    import os

    if os.path.exists(spec):
        text = _read_file(spec, lambda fh: fh.read(), "a p-list")
        return [parse_rational(t) for t in text.replace(",", " ").split()]
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise InputError("range must be start:stop:step with rational parts")
        start, stop, step = (parse_rational(t) for t in parts)
        if step <= 0:
            raise InputError("range step must be positive")
        count = max(0, (stop - start) // step + 1)
        if count > MAX_P_LIST:
            raise InputError(
                f"range {spec} holds {count} values, more than {MAX_P_LIST}"
            )
        return _range_values(start, step, count)
    return [parse_rational(t) for t in spec.split(",") if t]


def _range_values(start: Fraction, step: Fraction, count: int) -> list[Fraction]:
    """start, start + step, …: ``count`` values, exact."""
    return [start + k * step for k in range(count)]


def cmd_constants(args) -> int:
    reports = comparison_table(_parse_p_list(args.p_list))
    if args.format == "csv":
        lines = ["p,c_paper,c_asymptotic,c_sharp_conjectured,c_bcms"]
        for r in reports:
            lines.append(
                ",".join(
                    [
                        format_rational(r.p),
                        format_rational(r.c),
                        render_float(r.asymptotic, args.precision),
                        render_float(r.sharp_conjectured, args.precision),
                        "" if r.bcms is None else render_float(r.bcms, args.precision),
                    ]
                )
            )
        _write(args, "\n".join(lines) + "\n")
    else:
        payload = [
            {
                "p": format_rational(r.p),
                "c": format_rational(r.c),
                "C": format_rational(r.cap),
                "asymptotic": render_float(r.asymptotic, args.precision),
                "sharp_conjectured": render_float(r.sharp_conjectured, args.precision),
                "bcms": None if r.bcms is None else render_float(r.bcms, args.precision),
            }
            for r in reports
        ]
        _write(args, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_search(args) -> int:
    cfg = SearchConfig(
        p=args.p,
        depth=args.depth,
        cell_resolution=args.resolution,
        iterations=args.iters,
        seed=args.seed,
        mode=args.mode,
        density_bias=args.bias,
    )
    result = search_extremal(cfg)
    payload = result.to_json_dict(args.precision)
    payload["config"] = {
        "p": format_rational(cfg.p),
        "depth": cfg.depth,
        "resolution": cfg.cell_resolution,
        "iterations": cfg.iterations,
        "seed": cfg.seed,
        "mode": cfg.mode,
        "bias": cfg.density_bias,
    }
    _write(args, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_induction_check(args) -> int:
    region = StepSet.from_json_dict(_load_json(args.set))
    coeffs = CoefficientMap.from_json_dict(_load_json(args.coeffs))
    cfg = WeightConfig(args.p)
    report = telescope_check(region, coeffs, cfg, top_level=args.levels)
    payload = {
        "p": format_rational(cfg.p),
        "top_level": report.top_level,
        "base": {
            "lhs": format_rational(report.base_lhs),
            "rhs": format_rational(report.base_rhs),
            "holds": report.base_lhs >= report.base_rhs,
        },
        "steps": [
            {
                "n": n,
                "lhs": format_rational(s.lhs),
                "rhs": format_rational(s.rhs),
                "holds": s.holds,
            }
            for n, s in enumerate(report.steps)
        ],
        "weighted_total": format_rational(report.weighted_total),
        "norm_total": format_rational(report.norm_total),
        "holds": report.holds,
        "telescoping_exact": report.telescoping_exact,
    }
    _write(args, json.dumps(payload, indent=2) + "\n")
    return 0 if report.holds and report.telescoping_exact else 1


def cmd_demo_perturbation(args) -> int:
    demo = perturbation_demo(args.n)
    low, high = eig_bounds(demo.gram)
    payload = {
        "n": demo.n,
        "sum_norm_sq": format_rational(demo.sum_norm_sq),
        "norm_of_sum_sq": format_rational(demo.norm_of_sum_sq),
        "per_vector_perturbation": format_rational(demo.per_vector_perturbation),
        "gram_eig": [render_float(low, args.precision), render_float(high, args.precision)],
    }
    _write(args, json.dumps(payload, indent=2) + "\n")
    ok = (
        demo.norm_of_sum_sq == 0
        and demo.sum_norm_sq == demo.n - 1
        and demo.per_vector_perturbation == Fraction(1, demo.n)
        and abs(low - 0.0) <= 1e-10
        and abs(high - 1.0) <= 1e-10
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haar-riesz",
        description="Exact verification and extremal search for lower Riesz "
        "bounds of Haar functions restricted to a step set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument(
            "--precision",
            type=int,
            default=17,
            help=f"significant digits for float columns (default 17, at most {MAX_PRECISION})",
        )

    p = sub.add_parser("gram", help="Gram matrix, eigenvalue bounds and exact certificates")
    p.add_argument("--set", required=True, help="step set JSON file")
    p.add_argument("--p", type=_fraction_arg, required=True, help='density threshold, e.g. "3/4"')
    p.add_argument("--depth", type=int, required=True, help="max dyadic level of the family")
    p.add_argument("--c", type=_fraction_arg, help="lower constant to certify exactly")
    p.add_argument("--bessel", action="store_true", help="also certify the 1/p upper bound")
    p.add_argument(
        "--normalized",
        action="store_true",
        help='mark the matrix normalized: csv prints the normalized float view; '
        'json keeps the exact raw entries and sets "normalized": true',
    )
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("verify-weights", help="exact grid sweep of the weight-curve inequalities")
    p.add_argument("--p", type=_fraction_arg, required=True)
    p.add_argument(
        "--grid",
        type=int,
        default=256,
        help=f"grid denominator (default 256, at most {MAX_GRID})",
    )
    common(p)
    p.set_defaults(func=cmd_verify_weights)

    p = sub.add_parser("counterexample", help="exact zig-zag ratio table at threshold 2/3")
    p.add_argument("--n", type=int, required=True, help="last table row")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("constants", help="closed-form constants comparison table")
    p.add_argument(
        "--p-list",
        required=True,
        help='comma list "43/64,3/4", range "start:stop:step", or a file of rationals',
    )
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    common(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("search", help="seeded extremal search over step sets")
    p.add_argument("--p", type=_fraction_arg, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument(
        "--seed",
        type=int,
        required=True,
        help="search seed; iteration i uses splitmix64(seed XOR i), so nearby "
        "seeds (1 and 2, say) share their draws: use unrelated 64-bit seeds",
    )
    p.add_argument("--mode", choices=("random", "greedy-flip"), default="random")
    p.add_argument("--bias", type=float, help="fixed cell-inclusion bias (default: cycle)")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("induction-check", help="exact level-by-level induction with telescoping")
    p.add_argument("--set", required=True, help="step set JSON file")
    p.add_argument("--coeffs", required=True, help="coefficient JSON file")
    p.add_argument("--p", type=_fraction_arg, required=True)
    p.add_argument("--levels", type=int, help="top level (default: deepest coefficient)")
    common(p)
    p.set_defaults(func=cmd_induction_check)

    p = sub.add_parser("demo-perturbation", help="mean-recentering Gram demo")
    p.add_argument("--n", type=int, required=True, help="number of vectors (>= 2)")
    common(p)
    p.set_defaults(func=cmd_demo_perturbation)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage to stderr
        return int(exc.code) if exc.code else 0
    try:
        if not 0 <= args.precision <= MAX_PRECISION:
            raise InputError(f"precision must lie in [0, {MAX_PRECISION}], got {args.precision}")
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
