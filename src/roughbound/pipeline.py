"""Region-by-region verification that Phi(x, y) < target * x / log y.

The (x, y) plane with 3 <= y <= sqrt(x) is cut into regions, each verified
by its own method.  `REGIONS` declares them, one record per certificate:
the (y, u) boxes it covers, u = log x / log y, the verifier that gives it,
and the constants it assumes and establishes.  A RegionCertificate records
the method, the worst margin (normalized by x / log y), any witnesses of
failure, and its record's boxes and constants.  The default target is .6.

All region work is pure and deterministic.  A run's unit of work is a
task: one of the parts a region's record names (small-u's scans and its
grid), or else the region's verifier.  On the run's process pool, whose
workers receive the prime table once, the parts go first, then the other
regions, each in record order, so that the longest tasks start first; the
calling process submits the tasks, collects their results and hands each
region with parts its parts' results, from which its verifier builds the
certificate.  Below two workers the run calls the verifiers in turn in the
calling process, and a verifier calls its own parts.  Interval scans run in
ascending y; mid-y and small-u read one local presieve over their largest x
cap, built at the first interval and advanced in place to each later
interval's primes, so that each prime is struck once per region.  The report
does not depend on the parallelism setting, `PipelineConfig.parallelism`.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field

import numpy as np

from .analytic import (
    BETA0,
    THETA_DEFECT_SMALL,
    li,
    mertens_err_window,
    pi_lower_599,
    r_ratio,
)
from .errors import DomainError, InfeasibleError, NumericError, ResourceError
from .phi import DEFAULT_EXHAUSTIVE_CAP, KEPT_VIOLATIONS, scan_rough_interval
from .primes import DEFAULT_LIMIT_CAP, Presieve, PrimeTable, build_prime_table
from .sieve_bounds import (
    CLOSED_FORM_MIN_Y,
    SELBERG_MIN_Y,
    SELBERG_REMAINDER_COEFF,
    bonferroni_x_bound,
    closed_form_factor,
    elementary_x_bound,
    final_large_y_bound,
    selberg_sweep,
)

SMALL_Y = "small-y"
MID_Y = "mid-y"
SELBERG_FINITE = "selberg-finite"
SELBERG_CLOSED = "selberg-closed"
SMALL_U = "small-u"
ITERATION = "iteration"

DEFAULT_TARGET = 0.6
# Exhaustive small-u scans run to y <= SMALL_U_CAP by default; the paper
# scale runs them to 1100, where the analytic grid takes over (132 scans from
# a 45 MB presieve).
SMALL_U_CAP = 500
PAPER_SCALE_SMALL_U_CAP = 1100
CLOSED_GRID_TOP = 1e12
C3_SMALL_U = 0.57163
SMALL_U_EXHAUSTIVE_MAX = 0.56404
CLOSED_FACTOR_LIMIT = 1.057
CLOSED_COEF_LIMIT = 0.5995

# Reference reproduction targets for the small-y region, one row per interval
# of consecutive primes below 71: (y_lo, y_hi, x_bound, bound_is_rounded, max).
# Rounded bounds are ceilings to two significant figures of the exact bound.
REFERENCE_SMALL_Y_ROWS = (
    (2, 3, 22, False, 0.61035),
    (3, 5, 51, False, 0.57940),
    (5, 7, 96, False, 0.55598),
    (7, 11, 370, False, 0.56634),
    (11, 13, 613, False, 0.55424),
    (13, 17, 1603, False, 0.56085),
    (17, 19, 2753, False, 0.54854),
    (19, 23, 6296, False, 0.55124),
    (23, 29, 17539, False, 0.55806),
    (29, 31, 30519, False, 0.55253),
    (31, 37, 76932, False, 0.55707),
    (37, 41, 160000, True, 0.55955),
    (41, 43, 290000, True, 0.55648),
    (43, 47, 590000, True, 0.55369),
    (47, 53, 1400000, True, 0.55972),
    (53, 59, 3000000, True, 0.55650),
    (59, 61, 5400000, True, 0.55743),
    (61, 67, 12000000, True, 0.55685),
    (67, 71, 24000000, True, 0.55641),
)

MAX_STAT_TOL = 1e-5


@dataclass
class RegionCertificate:
    region: str
    method: str
    margin: float
    verified: bool
    params: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    rows: list = field(default_factory=list)


@dataclass
class BoundReport:
    certificates: list
    table1: list
    verdict: bool
    config: dict

    def to_json(self, indent=None) -> str:
        return json.dumps(
            {
                "verdict": self.verdict,
                "config": self.config,
                "certificates": [asdict(c) for c in self.certificates],
                "table1": self.table1,
            },
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "BoundReport":
        data = json.loads(text)
        certs = [RegionCertificate(**c) for c in data["certificates"]]
        return cls(certificates=certs, table1=data["table1"],
                   verdict=data["verdict"], config=data["config"])

    def to_text(self) -> str:
        lines = [f"overall verdict: {'verified' if self.verdict else 'FAILED'}"]
        lines.append(f"{'region':<16} {'verified':<9} {'margin':>12}  method")
        for c in self.certificates:
            lines.append(f"{c.region:<16} {str(c.verified):<9} {c.margin:>12.6f}  {c.method}")
            for f in c.failures[:8]:
                lines.append(f"    failure: {f}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["region,verified,margin,method"]
        for c in self.certificates:
            lines.append(f"{c.region},{c.verified},{c.margin!r},{c.method}")
        return "\n".join(lines)


def _ceil_two_sig(n: int) -> int:
    """Ceiling of n to two significant figures (rounding convention of the
    reference bounds printed in scientific notation)."""
    e = int(math.floor(math.log10(n)))
    unit = 10 ** (e - 1)
    return int(math.ceil(n / unit)) * unit


# Each scan calls `scan_rough_interval` through this module's global, so that
# a wrapper installed on this module before a pool starts reaches the scans
# in its workers.

def _scans(table: PrimeTable, intervals, target, rolling: bool = False):
    """Scan each interval (y_lo, y_hi, x_cap) in the given, ascending order.

    Rolling, every scan reads one presieve over the largest x_cap: built to
    the primes <= the first y_lo, then advanced in place to each later
    y_lo's, so that each prime is struck once.  Else each scan builds its own.
    """
    presieve = None
    scans = []
    for y_lo, y_hi, x_cap in intervals:
        if rolling:
            strike = table.primes_between(0, y_lo)
            if presieve is None:
                presieve = Presieve(strike, max(x for *_, x in intervals))
            else:
                presieve.advance(strike)
        scans.append(scan_rough_interval(table, y_lo, y_hi, x_cap, target=target,
                                         presieve=presieve))
    return scans


def _interval_rows(intervals, scans, extent_key: str):
    """The rows of scanned intervals (y_lo, y_hi, extent), the "target
    violated" failures among them, and the largest supremum of all scans
    (-inf for none).  Each row records its extent under `extent_key`."""
    rows = []
    failures = []
    for (p, q, extent), scan in zip(intervals, scans):
        rows.append({"y_lo": p, "y_hi": q, extent_key: extent,
                     "max_ratio": scan.sup_max,
                     "witness_n": scan.sup_witness[0], "witness_j": scan.sup_witness[1],
                     "violations": scan.violation_count})
        if scan.violation_count:
            failures.append({"interval": [p, q], "issue": "target violated",
                             "witnesses": [list(v) for v in scan.violations[:8]]})
    return rows, failures, max((scan.sup_max for scan in scans), default=-math.inf)


# ---------------------------------------------------------------------------
# small-y region
# ---------------------------------------------------------------------------

def verify_small_y(table: PrimeTable, *, target: float = DEFAULT_TARGET) -> RegionCertificate:
    """Reproduce the reference small-y table and scan every interval for
    violations of the target.

    For each interval of consecutive primes [p, q) below 71 the elementary
    inclusion-exclusion bound takes over at a computable x-bound; below it the
    rough numbers are streamed directly.  The interval [2, 3) is special: its
    statistic exceeds .6 at x = 9, and the certificate instead asserts that
    every violation there has x < 10.
    """
    reproduce = abs(target - DEFAULT_TARGET) < 1e-15
    meta = []
    for (p, q, printed, is_rounded, printed_max) in REFERENCE_SMALL_Y_ROWS:
        try:
            xb = elementary_x_bound(p, target, table)
        except InfeasibleError:
            xb = None  # elementary bound can never reach this target
        meta.append((p, q, printed, is_rounded, printed_max, xb))

    scans = _scans(table, [(p, q, printed - 1) for p, q, printed, *_ in meta], target)

    out_rows = []
    failures = []
    margin = math.inf
    for (p, q, printed, is_rounded, printed_max, xb), scan in zip(meta, scans):
        bound_match = None
        stat_match = None
        if reproduce:
            bound_match = xb is not None and (
                (_ceil_two_sig(xb) == printed) if is_rounded else (xb == printed)
            )
            stat_match = abs(scan.table_max - printed_max) <= MAX_STAT_TOL
        row = {
            "y_lo": p, "y_hi": q,
            "x_bound": xb, "x_bound_printed": printed, "x_bound_rounded": is_rounded,
            "x_bound_match": bound_match,
            "max_stat": scan.table_max, "max_printed": printed_max, "max_match": stat_match,
            "witness_n": scan.table_witness[0], "witness_j": scan.table_witness[1],
            "sup_stat": scan.sup_max, "violations": scan.violation_count,
        }
        out_rows.append(row)
        if xb is None or xb > printed:
            # the scan stops at the reference bound, so larger x is uncovered
            failures.append({"interval": [p, q], "issue": "coverage gap beyond scan",
                             "x_bound": xb, "scanned_to": printed})
        if p == 2:
            late = [v for v in scan.violations if v[0] >= 10]
            truncated = scan.violation_count > len(scan.violations) >= KEPT_VIOLATIONS
            if late or truncated:
                failures.append({"interval": [p, q], "issue": "violation at x >= 10",
                                 "witnesses": late[:8]})
        else:
            margin = min(margin, target - scan.sup_max)
            if scan.violation_count:
                failures.append({"interval": [p, q], "issue": "target violated",
                                 "witnesses": [list(v) for v in scan.violations[:8]]})
        if reproduce and not (bound_match and stat_match):
            failures.append({"interval": [p, q], "issue": "reference row mismatch",
                             "recomputed": [xb, scan.table_max],
                             "printed": [printed, printed_max]})

    return _certificate(
        SMALL_Y, "interval scans below elementary inclusion-exclusion x-bounds", margin, failures,
        {"target": target, "cap": DEFAULT_EXHAUSTIVE_CAP, "rows": len(out_rows),
         "reproduction": reproduce},
        rows=out_rows)


# ---------------------------------------------------------------------------
# mid-y region
# ---------------------------------------------------------------------------

def verify_mid_y(table: PrimeTable, *, target: float = DEFAULT_TARGET) -> RegionCertificate:
    """Exhaustively check 71 <= y < 241 below the pre-sieved truncation bounds.

    For each prime interval [p, q) the depth-4 Bonferroni bound (with the
    14/15 remainder refinement) takes over at an x-bound verified to stay
    below the 3e7 cap; one streaming pass covers all smaller x.  The scans
    read the chunks of one presieve over the largest x-bound (1 MB), advanced
    to each scan's primes.
    """
    meta = []
    bound_failures = []
    for p in map(int, table.primes_between(70, 240)):
        q = table.next_prime(p)
        try:
            xb = bonferroni_x_bound(p, target, table)
        except InfeasibleError:
            bound_failures.append({"interval": [p, q], "issue": "truncation bound cannot reach target"})
            xb = DEFAULT_EXHAUSTIVE_CAP
        if xb > DEFAULT_EXHAUSTIVE_CAP:
            bound_failures.append({"interval": [p, q], "issue": "x-bound exceeds cap",
                                   "x_bound": xb, "cap": DEFAULT_EXHAUSTIVE_CAP})
            xb = DEFAULT_EXHAUSTIVE_CAP
        meta.append((p, q, xb))

    scans = _scans(table, [(p, q, xb - 1) for p, q, xb in meta], target, rolling=True)
    rows, violated, sup_max = _interval_rows(meta, scans, "x_bound")
    failures = bound_failures + violated

    return _certificate(
        MID_Y, "interval scans below pre-sieved Bonferroni x-bounds (14/15 remainder)",
        target - sup_max, failures,
        {"target": target, "cap": DEFAULT_EXHAUSTIVE_CAP, "intervals": len(rows),
         "max_x_bound": max(r["x_bound"] for r in rows)},
        rows=rows)


# ---------------------------------------------------------------------------
# Selberg regions (u >= 7.5)
# ---------------------------------------------------------------------------

def verify_selberg(table: PrimeTable, *, target: float = DEFAULT_TARGET) -> RegionCertificate:
    """The explicit sieve at x = p^7.5 for every consecutive-prime pair p < q
    with 241 <= p <= 5e5, with the sieve level's epsilon optimized per pair."""
    sweep = selberg_sweep(table, lo=SELBERG_MIN_Y, hi=CLOSED_FORM_MIN_Y, target=target)
    bad = sweep[~((sweep.margin > 0) & (sweep.f_value < 1))]
    failures = [
        {"y": y, "q": q, "issue": "nonpositive margin", "coefficient": coefficient}
        for y, q, _, _, coefficient, _ in bad.tolist()
    ]
    worst = sweep[int(np.argmin(sweep.margin))]
    return _certificate(
        SELBERG_FINITE,
        "explicit sieve at x = p^7.5 per consecutive-prime pair, grid-optimized epsilon",
        float(worst.margin), failures,
        {"target": target, "pairs": len(sweep), "y_range": [int(sweep.y[0]), int(sweep.y[-1])],
         "worst_y": int(worst.y), "worst_epsilon": float(worst.epsilon),
         "worst_f": float(worst.f_value), "sieve_level_rule": "D = .03 x / (log y)^3",
         "remainder_coefficient": SELBERG_REMAINDER_COEFF})


def verify_selberg_closed(table: PrimeTable, *,
                          target: float = DEFAULT_TARGET) -> RegionCertificate:
    """The closed-form sieve bound at x = y^7.5, epsilon = 1/log y, on 41 points
    y in [5e5, 1e12].  It takes a table, as every verifier does, and reads none."""
    ys = np.geomspace(CLOSED_FORM_MIN_Y, CLOSED_GRID_TOP, 41)
    factors = [closed_form_factor(float(y)) for y in ys]
    coefs = [final_large_y_bound(float(y)) for y in ys]
    decreasing = all(a > b for a, b in zip(factors, factors[1:]))
    failures = []
    if factors[0] >= CLOSED_FACTOR_LIMIT:
        failures.append({"issue": "factor limit", "factor": factors[0]})
    if coefs[0] >= CLOSED_COEF_LIMIT:
        failures.append({"issue": "coefficient limit", "coefficient": coefs[0]})
    if not decreasing:
        failures.append({"issue": "factor not decreasing across grid"})
    if max(coefs) >= target:
        failures.append({"issue": "target violated", "coefficient": max(coefs)})
    return _certificate(
        SELBERG_CLOSED, "closed-form sieve bound at x = y^7.5, epsilon = 1/log y",
        target - max(coefs), failures,
        {"target": target, "grid": [float(ys[0]), float(ys[-1]), len(ys)],
         "factor_at_500k": factors[0], "coefficient_at_500k": coefs[0],
         "factor_decreasing": decreasing,
         "equality_note": "x = y^7.5 checked; larger x follows from the same proof"},
        rows=[{"y": float(y), "factor": f, "coefficient": c}
              for y, f, c in zip(ys, factors, coefs)])


# ---------------------------------------------------------------------------
# small-u region (2 <= u < 3)
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes and weights on [-1, 1], applied to each smooth piece of
# the small-u credit integral.
CREDIT_NODES, CREDIT_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _credit_integral(y, u, log_y, hi_y):
    """Integral over s in [1, u/2] of (li(z) - z / log z) f(s) t log y, with
    t = y^s, z = y^(u - s) and f(s) = log s + lo(t) - hi(y), elementwise
    over 1-d arrays.

    The interval is split where t crosses an error-window edge (1e4, 1e6)
    and where f changes sign (s = e^hi(y)); each nonempty piece gets the
    fixed rule CREDIT_NODES, and every node goes through one li pass.
    """
    top = u / 2.0
    splits = np.stack([math.log(1e4) / log_y, math.log(1e6) / log_y, np.exp(hi_y)], axis=1)
    edges = np.sort(np.column_stack([np.ones_like(u), np.clip(splits, 1.0, top[:, None]), top]),
                    axis=1)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    piece = np.flatnonzero(hi > lo)
    owner = piece // (edges.shape[1] - 1)
    half = 0.5 * (hi[piece] - lo[piece])
    # from each piece's lower end: a rounded midpoint can put a node below s = 1
    s = lo[piece, None] + half[:, None] * (1.0 + CREDIT_NODES)
    y_n, u_n, log_n = y[owner, None], u[owner, None], log_y[owner, None]
    z = y_n ** (u_n - s)
    t = y_n ** s
    lo_t, _ = mertens_err_window(t)
    f_lower = np.log(s) + lo_t - hi_y[owner, None]
    values = (li(z) - z / ((u_n - s) * log_n)) * f_lower * t * log_n
    # a row sum, not a matrix product, so that a point's bits do not depend on the batch
    sums = (values * CREDIT_WEIGHTS).sum(axis=1)
    return np.bincount(owner, weights=half * sums, minlength=len(u))


def small_u_coefficient(y, u):
    """Coefficient of x / log y bounding Phi(x, y) for y >= 1100, 2 <= u <= 3.

    Assembled from the prime-count bound applied to the two-prime-factor
    identity: main term R(y^u)/u, the pair-sum term
    R(y^(u/2)) (2/u) (log(u/2) + slack), a quadrature credit from partial
    summation, and the M(x, y) credit.  Mertens-sum slack is taken from the
    published error window at each endpoint separately.

    `y` and `u` are floats or arrays that broadcast together; a float pair
    gives a float.  The credit integral is a fixed 8-point Gauss-Legendre
    rule on each smooth piece (`_credit_integral`); over the 3,280 points of
    the small-u grid it is within 1.3e-14 of adaptive quadrature at 1e-12.
    """
    y, u = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(u, dtype=float))
    bad = ~((u >= 2) & (u <= 3))   # nan fails it too; the error window refuses a bad y
    if np.any(bad):
        raise DomainError(f"coefficient asserted for 2 <= u <= 3, got u={u[bad].flat[0]}")
    shape = y.shape
    y, u = y.ravel(), u.ravel()
    log_y = np.log(y)
    x = y ** u
    rx = y ** (u / 2.0)
    lo_y, hi_y = mertens_err_window(y)
    _, hi_rx = mertens_err_window(rx)

    main = r_ratio(x) / u
    second = r_ratio(rx) * (2.0 / u) * (np.log(u / 2.0) + hi_rx - lo_y)

    credit_int = (1.0 + BETA0) * _credit_integral(y, u, log_y, hi_y) * log_y / x
    bad = ~np.isfinite(credit_int)
    if np.any(bad):
        raise NumericError(f"small-u quadrature failed at y={y[bad][0]}, u={u[bad][0]}")

    big_l = pi_lower_599(np.sqrt(x))
    a_low = 0.5 * big_l * (big_l - 1.0)
    big_w = r_ratio(y) * y / log_y
    b_up = 0.5 * (big_w - 1.0) * (big_w - 2.0)
    credit_m = (a_low - b_up) * log_y / x

    value = (main + second - credit_int - credit_m).reshape(shape)
    return float(value) if value.ndim == 0 else value


# The y values of the small-u grid: 1100, the error-window switch points, and
# a spread up to 1e12.
SMALL_U_GRID_YS = (1100, 1150, 1200, 1300, 1500, 1750, 2000, 2500, 3000, 4000,
                   5000, 7000, 9000, 9999.99, 10000, 12000, 15000, 20000, 30000,
                   50000, 1e5, 2e5, 5e5, 999999, 1e6, 3e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12)
# y's rows per call of `small_u_coefficient`: a quarter of the grid's
# temporaries at a time, 2.9 MB traced against 9.9 MB in one call.  One call
# per y repeats `_ei_series`'s numpy steps 32 times: 140 ms a grid against
# 35 ms, in-process on a 2-core Xeon VM.
SMALL_U_GRID_BATCH = 8


def small_u_grid_max():
    """Maximize the assembled small-u coefficient over the (y, u) grid.

    For each y of SMALL_U_GRID_YS, u takes 101 evenly spaced values in
    [2, 3] and the values where y^(u/2) crosses a window edge (the
    coefficient jumps down there, so the supremum sits just below the
    crossing).  The ragged grid is four array calls of
    `small_u_coefficient`, on SMALL_U_GRID_BATCH y's rows each, whose points
    do not depend on their batch; each y's row is the maximum over its
    slice, and the overall maximum is the first in (y, u) order that no
    later value exceeds.
    """
    base_us = np.linspace(2.0, 3.0, 101)
    grid = []
    for y in SMALL_U_GRID_YS:
        log_y = math.log(y)
        crossings = [2.0 * math.log(1e4) / log_y, 2.0 * math.log(1e6) / log_y]
        grid.append(np.sort(np.concatenate([base_us] + [[c - 1e-9, c] for c in crossings
                                                        if 2.0 < c < 3.0])))
    values = []
    for b in range(0, len(grid), SMALL_U_GRID_BATCH):
        us = grid[b:b + SMALL_U_GRID_BATCH]
        sizes = [len(row) for row in us]
        ys = np.repeat(np.array(SMALL_U_GRID_YS[b:b + SMALL_U_GRID_BATCH], dtype=float), sizes)
        values += np.split(small_u_coefficient(ys, np.concatenate(us)), np.cumsum(sizes)[:-1])
    best = (-math.inf, None, None)
    rows = []
    for y, us, row in zip(SMALL_U_GRID_YS, grid, values):
        i = int(np.argmax(row))
        val, u = float(row[i]), float(us[i])
        rows.append({"y": float(y), "max_coefficient": val, "at_u": u})
        if val > best[0]:
            best = (val, float(y), u)
    return best, rows


def small_u_scans(table: PrimeTable, *, target: float = DEFAULT_TARGET,
                  y_exhaustive_cap: int = SMALL_U_CAP):
    """Small-u's exhaustive scans: the intervals (p, q, q^3 - 1) of
    consecutive primes p < q with 241 <= p <= the cap, and their scans, in
    ascending order.

    Every scan reads its chunks from one presieve over the largest range
    (4.2 MB at the default cap, 45 MB at the paper's), advanced to the
    scan's primes, so that it strikes none itself.
    """
    meta = [(int(p), q, q ** 3 - 1) for p in table.primes_between(240, y_exhaustive_cap)
            for q in (table.next_prime(p),)]
    return meta, _scans(table, meta, target, rolling=True)


def verify_small_u(table: PrimeTable, *, target: float = DEFAULT_TARGET,
                   y_exhaustive_cap: int = SMALL_U_CAP,
                   parts: tuple | None = None) -> RegionCertificate:
    """The 2 <= u < 3 region: exhaustive scans for 241 <= y < q, q the first
    prime above the cap, assembled analytic bound on a grid for y >= 1100.

    The default cap keeps the exhaustive branch at desk scale, and leaves
    503 <= y < 1100 to neither branch; raising it to PAPER_SCALE_SMALL_U_CAP
    closes the gap.  Scans cover x < q^3 per interval [p, q), with the
    two-dimensional supremum convention for the multiplier.  The certificate
    is built from the results of `small_u_scans` and `small_u_grid_max`, its
    record's parts: `parts` is those results for this table, target and
    cap, in that order, computed elsewhere (each in a pool worker of a run);
    without it the grid runs first, then the scans.
    """
    if parts is None:
        grid = small_u_grid_max()
        parts = small_u_scans(table, target=target, y_exhaustive_cap=y_exhaustive_cap), grid
    (meta, scans), ((analytic_max, at_y, at_u), grid_rows) = parts
    rows, failures, exhaustive_max = _interval_rows(meta, scans, "x_cap")
    if exhaustive_max >= SMALL_U_EXHAUSTIVE_MAX:
        failures.append({"issue": "exhaustive milestone exceeded",
                         "max_ratio": exhaustive_max,
                         "milestone": SMALL_U_EXHAUSTIVE_MAX})

    if analytic_max >= min(C3_SMALL_U, target):
        failures.append({"issue": "analytic milestone exceeded",
                         "max_coefficient": analytic_max, "at_y": at_y, "at_u": at_u,
                         "milestone": min(C3_SMALL_U, target)})

    return _certificate(
        SMALL_U, "exhaustive interval scans to the cap + assembled prime-count bound on a grid",
        target - max(exhaustive_max, analytic_max), failures,
        {"target": target, "exhaustive_max": exhaustive_max, "analytic_max": analytic_max,
         "analytic_at": [at_y, at_u], "exhaustive_rows": len(rows)},
        rows=rows + [{"grid": grid_rows}],
        after_cap=meta[-1][1] if meta else SELBERG_MIN_Y)   # where the last scanned interval ends


# ---------------------------------------------------------------------------
# iteration region (3 <= u < 8)
# ---------------------------------------------------------------------------

def epsilon_k(table: PrimeTable, q0: int, k: int):
    """Exact eps_k(q0): max over primes q1 in (q0, q0^(1+1/k)] of
    -1/log(q0) + 1/log(q1) + sum_{q0 <= p <= q1} 1/(p log p).

    Returns (eps, q1 at the max).
    """
    if k < 1 or q0 < 2:
        raise DomainError(f"epsilon_k needs k >= 1 and q0 >= 2, got k={k}, q0={q0}")
    ps = table.primes_between(0, q0 ** (1.0 + 1.0 / k) + 1e-9)  # raises past the limit
    i = table.pi(q0)                                            # q1 runs over ps[i:]
    if i == len(ps):
        raise DomainError(f"no prime in (q0, q0^(1+1/k)] for q0={q0}, k={k}")
    # sums of 1/(p log p) accumulated from p = 2 upward: float rounding depends on the order
    prefix = np.cumsum(1.0 / (ps * np.log(ps.astype(np.float64))))
    base = prefix[i - 1] - 1.0 / (q0 * math.log(q0))             # prefix below q0
    vals = -1.0 / math.log(q0) + 1.0 / np.log(ps[i:].astype(np.float64)) + prefix[i:] - base
    best = int(np.argmax(vals))
    return float(vals[best]), int(ps[i + best])


# The iteration's tail bound rests on q - theta(q-) < 1.95 sqrt(q), which is
# false at q = 1423 and 1427 (ratios 2.053 and 1.964): every prime q0 below
# ITERATION_TAIL_FROM gets its exact eps_3, and the tail applies from there.
ITERATION_TAIL_FROM = 1500


def iteration_tail_epsilon(q0: float) -> float:
    """Upper bound 1.95 / (sqrt(q0) (log q0)^2) for eps_3(q0), valid for
    q0 >= ITERATION_TAIL_FROM."""
    if not ITERATION_TAIL_FROM <= q0 < math.inf:  # nan fails it too
        raise DomainError(f"tail bound used only for q0 >= {ITERATION_TAIL_FROM}, got {q0}")
    return THETA_DEFECT_SMALL / (math.sqrt(q0) * math.log(q0) ** 2)


ITERATION_TAIL_PROBES = (1511, 10007, 100003, 1000003, 10**8 + 7, 10**10 + 19, 10**14 + 31)


def verify_iteration(table: PrimeTable, *, target: float = DEFAULT_TARGET) -> RegionCertificate:
    """Bootstrap c_3 -> c_8 via c_3 (1 + eps_3(q0) log q0)^5 < target.

    eps_3 is computed exactly for every prime 241 <= q0 < ITERATION_TAIL_FROM
    (1500), which takes the primes to 1499^(4/3), about 17,200; from there
    the tail bound 1.95/(sqrt(q0) (log q0)^2) applies, and the resulting chain
    value is decreasing in q0, so probe evaluations certify the whole tail.
    """
    failures = []
    rows = []
    margin = math.inf
    worst = None
    for q0 in table.primes_between(240, ITERATION_TAIL_FROM - 1):
        q0 = int(q0)
        eps, q1 = epsilon_k(table, q0, 3)
        chain = C3_SMALL_U * (1.0 + eps * math.log(q0)) ** 5
        m = target - chain
        rows.append({"q0": q0, "eps3": eps, "q1": q1, "chain": chain})
        if m < margin:
            margin = m
            worst = {"k": 3, "c_k": C3_SMALL_U, "q0": q0, "q1": q1, "eps_k": eps}
        if chain >= target:
            failures.append({"q0": q0, "issue": "chain exceeds target", "chain": chain})

    tail_rows = []
    for q0 in ITERATION_TAIL_PROBES:
        eps = iteration_tail_epsilon(q0)
        chain = C3_SMALL_U * (1.0 + eps * math.log(q0)) ** 5
        tail_rows.append({"q0": q0, "eps3_tail": eps, "chain": chain})
        margin = min(margin, target - chain)
        if chain >= target:
            failures.append({"q0": q0, "issue": "tail chain exceeds target", "chain": chain})

    return _certificate(
        ITERATION, f"geometric chain c3 -> c8 with exact eps_3 below {ITERATION_TAIL_FROM}, "
                   "theta-defect tail above",
        margin, failures,
        {"target": target, "exact_range": [241, rows[-1]["q0"]], "worst": worst,
         "tail_rule": "eps3 < 1.95 / (sqrt(q0) (log q0)^2), decreasing in q0",
         "tail_probes": list(ITERATION_TAIL_PROBES)},
        rows=[{"exact": rows[:4] + [{"...": len(rows)}], "tail": tail_rows}])


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

AFTER_CAP = "first prime above small_u_cap"


@dataclass(frozen=True)
class Region:
    """One certificate: its name in the report and in `verify --region`, its
    (y, u) boxes, the module global that verifies it (looked up when it runs;
    see `_call`) and the constants (module globals, by name) it assumes and
    establishes.  A box side is (lo, hi, ends): hi None is no upper end,
    AFTER_CAP the first prime above the run's small-u cap, and `ends` "[)",
    "[]", "(]" or "()".  The verifier is given that cap if `takes_cap`.

    `parts` names the module globals whose results the verifier builds its
    certificate from, each with whether it is called as the verifier is or
    with no arguments.  On a pool each part is a task, in this order, and the
    verifier is handed their results as `parts`; else it calls them itself."""
    name: str
    boxes: tuple
    verifier: str
    assumes: tuple[str, ...] = ()
    establishes: tuple[str, ...] = ()
    takes_cap: bool = False
    parts: tuple[tuple[str, bool], ...] = ()


_U_ABOVE_2 = (2, None, "[)")     # y <= sqrt(x)
_U_SMALL = (2, 3, "[)")

# The regions in report order.  At the default cap the band 503 <= y < 1100,
# 2 <= u < 3 falls between small-u's exhaustive and analytic boxes.
REGIONS = (
    Region(SMALL_Y, (((3, 71, "[)"), _U_ABOVE_2),), "verify_small_y"),
    Region(MID_Y, (((71, SELBERG_MIN_Y, "[)"), _U_ABOVE_2),), "verify_mid_y"),
    Region(SELBERG_FINITE, (((SELBERG_MIN_Y, CLOSED_FORM_MIN_Y, "[]"), (7.5, None, "[)")),),
           "verify_selberg"),
    Region(SELBERG_CLOSED, (((CLOSED_FORM_MIN_Y, None, "[)"), (7.5, None, "[)")),),
           "verify_selberg_closed", establishes=("CLOSED_FACTOR_LIMIT", "CLOSED_COEF_LIMIT")),
    # the scans first: they are the longest task of the run
    Region(SMALL_U, (((SELBERG_MIN_Y, AFTER_CAP, "[)"), _U_SMALL),
                     ((SMALL_U_GRID_YS[0], None, "[)"), _U_SMALL)), "verify_small_u",
           establishes=("C3_SMALL_U", "SMALL_U_EXHAUSTIVE_MAX"), takes_cap=True,
           parts=(("small_u_scans", True), ("small_u_grid_max", False))),
    Region(ITERATION, (((SELBERG_MIN_Y, None, "[)"), (3, 8, "[)")),), "verify_iteration",
           assumes=("C3_SMALL_U",)),
)
REGION_ORDER = tuple(region.name for region in REGIONS)


def _certificate(name: str, method: str, margin: float, failures: list, params: dict,
                 rows=None, after_cap: int | None = None) -> RegionCertificate:
    """The certificate `name`, verified if it has no failures, with `params`
    followed by what its record states (AFTER_CAP read as `after_cap`)."""
    region = next(region for region in REGIONS if region.name == name)
    params = {**params, "boxes": [{"y": [after_cap if end is AFTER_CAP else end for end in y],
                                   "u": list(u)} for y, u in region.boxes],
              "assumes": {c: globals()[c] for c in region.assumes},
              "establishes": {c: globals()[c] for c in region.establishes}}
    return RegionCertificate(name, method, margin, not failures, params, failures, rows or [])


@dataclass(frozen=True)
class PipelineConfig:
    target: float = DEFAULT_TARGET
    small_u_cap: int = SMALL_U_CAP
    parallelism: int = 1
    regions: tuple[str, ...] = REGION_ORDER


def _call(name: str, region: Region, table: PrimeTable, config: PipelineConfig, **kwargs):
    """The module global `name`, looked up when it runs, so that a wrapper
    installed on this module before a pool starts reaches its workers, called
    as `region`'s verifier is, with `kwargs` besides."""
    cap = {"y_exhaustive_cap": config.small_u_cap} if region.takes_cap else {}
    return globals()[name](table, target=config.target, **cap, **kwargs)


# The prime table of a pool worker, handed to it once by the pool's initializer.
_worker_table: PrimeTable | None = None


def _serve(table: PrimeTable) -> None:
    global _worker_table
    _worker_table = table


def _task(region: Region, part: tuple[str, bool] | None, config: PipelineConfig):
    """In a pool worker, on the table the initializer handed it: the result
    of `part`, one of `region`'s parts, or, if None, `region`'s certificate."""
    if part is None:
        return _call(region.verifier, region, _worker_table, config)
    name, called_as_verifier = part
    return _call(name, region, _worker_table, config) if called_as_verifier else globals()[name]()


def run_full_pipeline(config: PipelineConfig | None = None) -> BoundReport:
    """Run the selected regions and aggregate their certificates.

    Each region gives one certificate, and the report holds those of the
    selected regions in REGION_ORDER; its config names them.  The verdict
    is the conjunction of theirs, and does not depend on the parallelism.
    A task is one part of a selected region's record or, for a region
    without parts, its verifier.  On a pool of min(parallelism, tasks,
    usable CPUs) worker processes the parts are submitted first, then the
    other regions, each in record order, and each region with parts gets its
    certificate here, from its verifier given their results.  Below two
    workers the verifiers run one after the other in this process.  A
    parallelism that is not an integer >= 1 raises DomainError, and a
    small_u_cap of 1290 and up, whose small-u scans would pass the sieve's
    cap DEFAULT_LIMIT_CAP at x < q^3, q > small_u_cap, raises ResourceError,
    both before the prime table is built; a pool worker that dies raises
    ResourceError naming the first task left without a result.
    """
    config = config or PipelineConfig()
    selected = config.regions
    if not selected or len(set(selected)) < len(selected) or not set(selected) <= set(REGION_ORDER):
        raise DomainError(f"regions must be distinct names from {REGION_ORDER}, got {selected}")
    if not math.isfinite(config.target):
        raise DomainError(f"target must be finite, got {config.target}")
    if not isinstance(config.parallelism, numbers.Integral) or config.parallelism < 1:
        raise DomainError(f"parallelism must be an integer >= 1, got {config.parallelism!r}")
    if (config.small_u_cap + 1) ** 3 - 1 > DEFAULT_LIMIT_CAP:
        raise ResourceError(f"small_u_cap {config.small_u_cap} scans past the sieve's cap "
                            f"{DEFAULT_LIMIT_CAP}, to at least {(config.small_u_cap + 1) ** 3 - 1}")
    regions = [region for region in REGIONS if region.name in selected]
    # the parts, then the regions without parts, each in record order, so that
    # the longest tasks start first
    tasks = [(region, part) for region in regions for part in region.parts] \
        + [(region, None) for region in regions if not region.parts]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(config.parallelism, len(tasks), cpus or 1)
    # one table whichever regions run: past the Selberg sweep's 5e5 (and so past
    # the iteration's 1499^(4/3)) and past the first prime above small-u's cap,
    # which the check above keeps below 1290
    table = build_prime_table(CLOSED_FORM_MIN_Y + 1000)

    if workers < 2:
        certs = [_call(region.verifier, region, table, config) for region in regions]
    else:
        done = {}
        with ProcessPoolExecutor(max_workers=workers, initializer=_serve,
                                 initargs=(table,)) as pool:
            futures = [pool.submit(_task, region, part, config) for region, part in tasks]
            for (region, part), future in zip(tasks, futures):
                try:
                    done[region.name, part] = future.result()
                except BrokenProcessPool as exc:
                    task = region.name if part is None else f"{region.name} {part[0]}"
                    raise ResourceError(f"a pool worker died before task {task} "
                                        "gave its result") from exc
        certs = [_call(region.verifier, region, table, config,
                       parts=tuple(done[region.name, part] for part in region.parts))
                 if region.parts else done[region.name, None] for region in regions]
    table1 = next((list(c.rows) for c in certs if c.region == SMALL_Y), [])
    config_dict = {**asdict(config), "regions": [c.region for c in certs]}   # JSON-stable form
    return BoundReport(certs, table1, all(c.verified for c in certs), config_dict)
