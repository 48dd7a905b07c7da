"""Command-line surface: exact counts, bound evaluation, verification, data export.

Exit status contract: 0 success, 1 verification failure (or cross-method
disagreement), 2 usage/domain error, 3 resource error.  CSV output uses '.'
decimals, no grouping, and fixed column orders.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .buchstab import build_omega, locate_extremum, omega_samples
from .errors import DomainError, ResourceError
from .phi import DEFAULT_EXHAUSTIVE_CAP, phi_direct, phi_legendre, phi_two_prime
from .pipeline import (
    DEFAULT_TARGET,
    PAPER_SCALE_SMALL_U_CAP,
    PipelineConfig,
    REGION_ORDER,
    SELBERG_CLOSED,
    SELBERG_FINITE,
    SMALL_U_CAP,
    SMALL_Y,
    run_full_pipeline,
)
from .primes import build_prime_table
from .sieve_bounds import (
    CLOSED_FORM_MIN_Y,
    SELBERG_MIN_Y,
    bonferroni_bound,
    bonferroni_x_bound,
    elementary_bound,
    elementary_x_bound,
    final_large_y_bound,
    closed_form_factor,
    make_sieve_config,
    optimize_epsilon,
    selberg_sweep,
    selberg_upper,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
PLOT_ROW_LIMIT = 1_000_000   # rows one plot-data run may write


def _data_dir() -> str | None:
    return os.environ.get("ROUGHBOUND_DATA_DIR")


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    base = _data_dir()
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    return open(path, "w"), True


def _finite(text: str) -> float:
    """argparse type of every float option: a number other than nan and +-inf."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type of a grid step: a finite number above 0."""
    value = _finite(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a number above 0, got {text!r}")
    return value


def _finite_list(text: str) -> list[float]:
    return [_finite(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="roughbound",
        description="Exact rough-number counts and verified explicit sieve bounds.",
    )
    p.add_argument("--version", action="version", version=f"roughbound {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phi", help="compute the exact count of y-rough integers up to x")
    sp.add_argument("--x", type=int, required=True)
    sp.add_argument("--y", type=_finite, required=True)
    sp.add_argument("--method", choices=["direct", "legendre", "two-prime", "all"],
                    default="direct")
    sp.add_argument("--cap", type=int, default=DEFAULT_EXHAUSTIVE_CAP,
                    help="exhaustive cap for the direct method")

    sp = sub.add_parser("omega", help="evaluate the rough-number density function")
    sp.add_argument("--u", type=_finite, required=True)
    sp.add_argument("--u-max", type=_finite, default=16.0)
    sp.add_argument("--extremum", action="store_true",
                    help="also print the maximum on [2, u_max] and its location")

    sp = sub.add_parser("table1", help="reproduce the small-y reference table")
    sp.add_argument("--format", choices=["csv", "text", "json"], default="csv")
    sp.add_argument("--parallelism", type=int, default=1)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("bound", help="evaluate one upper bound at (x, y)")
    sp.add_argument("--kind", choices=["elementary", "bonferroni", "selberg",
                                       "large-y", "selberg-sweep"], required=True)
    sp.add_argument("--x", type=_finite)
    sp.add_argument("--y", type=_finite)
    sp.add_argument("--epsilon", type=_finite, default=None)
    sp.add_argument("--target", type=_finite, default=DEFAULT_TARGET)
    sp.add_argument("--y-lo", type=int, default=SELBERG_MIN_Y, help="sweep start (selberg-sweep)")
    sp.add_argument("--y-hi", type=int, default=CLOSED_FORM_MIN_Y, help="sweep end (selberg-sweep)")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("verify", help="run region verifiers and emit a certificate report")
    sp.add_argument("--region", choices=["small-y", "mid-y", "selberg", "small-u",
                                         "iteration", "all"], default="all")
    sp.add_argument("--target", type=_finite, default=DEFAULT_TARGET)
    sp.add_argument("--format", choices=["json", "text", "csv"], default="text")
    sp.add_argument("--paper-scale", action="store_const", dest="small_u_cap",
                    const=PAPER_SCALE_SMALL_U_CAP, default=SMALL_U_CAP,
                    help=f"run the exhaustive small-u scans to y <= {PAPER_SCALE_SMALL_U_CAP}, "
                         f"where the analytic grid starts, instead of {SMALL_U_CAP} "
                         "(about 30 s on one core)")
    sp.add_argument("--parallelism", type=int, default=1)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("plot-data", help="emit CSV sample data")
    sp.add_argument("--kind", choices=["omega", "ratio-map"], default="omega")
    sp.add_argument("--u-lo", type=_finite, default=1.0)
    sp.add_argument("--u-hi", type=_finite, default=8.0)
    sp.add_argument("--step", type=_positive, default=1e-3)
    sp.add_argument("--y-set", type=_finite_list, default="3,5,11,29,101",
                    help="comma-separated y values (ratio-map)")
    sp.add_argument("--u-step", type=_positive, default=0.25, help="u grid step (ratio-map)")
    sp.add_argument("--out", default=None)
    return p


def _cmd_phi(args) -> int:
    if args.x < 0:
        raise DomainError(f"x must be >= 0, got {args.x}")
    limit = max(2, int(min(args.y, args.x)) + 1, math.isqrt(args.x) + 1)
    if args.method in ("two-prime", "all"):
        limit = max(limit, args.x)
    table = build_prime_table(limit)
    if args.method == "all":
        results = {
            "direct": phi_direct(args.x, args.y, table, cap=args.cap),
            "legendre": phi_legendre(args.x, args.y, table),
        }
        if args.y >= 2 and args.y * args.y <= args.x < table.next_prime(args.y) ** 3:
            results["two-prime"] = phi_two_prime(args.x, args.y, table)
        if len(set(results.values())) != 1:
            print("method disagreement (this is a bug):", file=sys.stderr)
            for k, v in results.items():
                print(f"  {k}: {v}", file=sys.stderr)
            return EXIT_VERIFICATION
        print(next(iter(results.values())))
        return EXIT_OK
    if args.method == "direct":
        print(phi_direct(args.x, args.y, table, cap=args.cap))
    elif args.method == "legendre":
        print(phi_legendre(args.x, args.y, table))
    else:
        print(phi_two_prime(args.x, args.y, table))
    return EXIT_OK


def _cmd_omega(args) -> int:
    table = build_omega(args.u_max)
    print(repr(table.omega(args.u)))
    if args.extremum:
        u_star, m0 = locate_extremum(table)
        print(f"max {m0!r} at u = {u_star!r}")
    return EXIT_OK


def _cmd_table1(args) -> int:
    report = run_full_pipeline(PipelineConfig(regions=(SMALL_Y,), parallelism=args.parallelism))
    out, close = _open_out(args.out)
    try:
        if args.format == "json":
            import json
            json.dump(report.table1, out, indent=2)
            out.write("\n")
        elif args.format == "text":
            out.write(f"{'interval':<12} {'x bound':>10} {'max':>9}\n")
            for r in report.table1:
                out.write(f"[{r['y_lo']},{r['y_hi']}){'':<4} {r['x_bound']:>10} {r['max_stat']:>9.5f}\n")
        else:
            out.write("y_lo,y_hi,x_bound,max\n")
            for r in report.table1:
                out.write(f"{r['y_lo']},{r['y_hi']},{r['x_bound']},{r['max_stat']:.5f}\n")
    finally:
        if close:
            out.close()
    return EXIT_OK if report.verdict else EXIT_VERIFICATION


def _cmd_bound(args) -> int:
    if args.kind == "selberg-sweep":
        table = build_prime_table(args.y_hi + 1000)
        rows = selberg_sweep(table, lo=args.y_lo, hi=args.y_hi, target=args.target)
        out, close = _open_out(args.out)
        try:
            out.write("y,epsilon,f_value,coefficient,margin\n")
            for y, _, eps, f, coefficient, margin in rows.tolist():
                out.write(f"{y},{eps:.6f},{f:.8f},{coefficient:.8f},{margin:.8f}\n")
        finally:
            if close:
                out.close()
        return EXIT_OK
    if args.kind == "large-y":
        if args.y is None:
            raise DomainError("--y is required for --kind large-y")
        print(f"factor {closed_form_factor(args.y)!r}")
        print(f"coefficient {final_large_y_bound(args.y)!r}")
        return EXIT_OK
    if args.x is None or args.y is None:
        raise DomainError(f"--x and --y are required for --kind {args.kind}")
    table = build_prime_table(max(300, int(args.y) + 1000))
    # every value is computed before the first line is printed, so that a
    # refused one leaves stdout empty
    if args.kind == "elementary":
        val = elementary_bound(args.x, args.y, table)
        x_bound = elementary_x_bound(args.y, args.target, table)
        print(f"bound {val!r}")
        print(f"x_bound {x_bound}")
    elif args.kind == "bonferroni":
        val, data = bonferroni_bound(args.x, args.y, table)
        x_bound = bonferroni_x_bound(args.y, args.target, table)
        print(f"bound {val!r}")
        print(f"s_y {data.s_y!r}")
        print(f"b_y {data.b_y}")
        print(f"x_bound {x_bound}")
    else:  # selberg
        eps = args.epsilon if args.epsilon is not None else optimize_epsilon(args.x, args.y, table)
        cfg = make_sieve_config(args.x, args.y, table, eps)
        val = selberg_upper(args.x, args.y, cfg, table)
        print(f"epsilon {eps!r}")
        print(f"f_value {cfg.f_value!r}")
        print(f"bound {val!r}")
        print(f"coefficient {val * math.log(args.y) / args.x!r}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    regions: tuple[str, ...]
    if args.region == "all":
        regions = REGION_ORDER
    elif args.region == "selberg":
        regions = (SELBERG_FINITE, SELBERG_CLOSED)
    else:
        regions = (args.region,)
    config = PipelineConfig(
        target=args.target,
        small_u_cap=args.small_u_cap,
        parallelism=args.parallelism,
        regions=regions,
    )
    report = run_full_pipeline(config)
    out, close = _open_out(args.out)
    try:
        if args.format == "json":
            out.write(report.to_json(indent=2) + "\n")
        elif args.format == "csv":
            out.write(report.to_csv() + "\n")
        else:
            out.write(report.to_text() + "\n")
    finally:
        if close:
            out.close()
    return EXIT_OK if report.verdict else EXIT_VERIFICATION


def _check_rows(rows: float) -> None:
    """Refuse a plot-data grid of more than PLOT_ROW_LIMIT rows."""
    if rows > PLOT_ROW_LIMIT:
        raise ResourceError(f"the grid has more than {PLOT_ROW_LIMIT} rows; use a larger step")


def _ratio_us(step: float, rows_per_u: int) -> list[float]:
    """The u grid of the ratio map: 2, then `step` added until u passes 3."""
    us = []
    u = 2.0
    while u <= 3.0 + 1e-12:
        us.append(u)
        _check_rows(rows_per_u * len(us))
        u += step
    return us


def _check_ratio_x(y: float, u: float) -> None:
    """Refuse a ratio map whose largest x = int(y^u) is past the exhaustive
    cap of its counts, naming the largest y (to two decimals) that fits."""
    if int(y ** u) > DEFAULT_EXHAUSTIVE_CAP:
        y_max = math.floor(DEFAULT_EXHAUSTIVE_CAP ** (1.0 / u) * 100) / 100
        raise ResourceError(f"y={y:g} at u={u:.4f} needs x={int(y ** u)}, past the exhaustive "
                            f"cap {DEFAULT_EXHAUSTIVE_CAP}; the largest y allowed is {y_max:g}")


def _cmd_plot_data(args) -> int:
    # every grid is counted, and built if it is omega's, before the output opens
    if args.kind == "omega":
        table = build_omega(max(16.0, args.u_hi))
        _check_rows((args.u_hi + 0.5 * args.step - args.u_lo) / args.step)   # omega_samples' arange
        samples = omega_samples(table, args.u_lo, args.u_hi, args.step)
    else:
        ys = args.y_set
        if min(ys) < 2:
            raise DomainError(f"ratio-map needs every y >= 2, got {min(ys):g}")
        us = _ratio_us(args.u_step, len(ys))
        _check_ratio_x(max(ys), us[-1])
        table = build_prime_table(max(300, int(max(ys)) + 10))
    out, close = _open_out(args.out)
    try:
        if args.kind == "omega":
            out.write("u,omega\n")
            for u, w in samples:
                out.write(f"{u:.6f},{w:.12f}\n")
        else:
            out.write("y,u,ratio\n")
            for y in ys:
                for u in us:
                    x = int(y ** u)
                    val = phi_direct(x, y, table) * math.log(y) / x
                    out.write(f"{y:g},{u:.4f},{val:.8f}\n")
    finally:
        if close:
            out.close()
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "phi": _cmd_phi,
        "omega": _cmd_omega,
        "table1": _cmd_table1,
        "bound": _cmd_bound,
        "verify": _cmd_verify,
        "plot-data": _cmd_plot_data,
    }
    try:
        return handlers[args.command](args)
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
