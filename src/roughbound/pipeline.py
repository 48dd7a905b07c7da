"""Region-by-region verification that Phi(x, y) < target * x / log y.

The (x, y) plane with 3 <= y <= sqrt(x) is decomposed into six regions, each
verified by its own method, and every verifier returns a RegionCertificate
recording the method, the worst margin (normalized by x / log y), and any
witnesses of failure.  The default target is .6.

  small-y         3 <= y < 71,    scan below per-interval elementary bounds
  mid-y           71 <= y < 241,  scan below pre-sieved truncation bounds
  selberg-finite  241 <= y <= 5e5, u >= 7.5, explicit sieve per prime pair
  selberg-closed  y >= 5e5, u >= 7.5, closed-form sieve evaluation
  small-u         y >= 241, 2 <= u < 3, exhaustive below a cap + assembled
                  prime-count bound on a (y, u) grid above it
  iteration       y >= 241, 3 <= u < 8, geometric bootstrap from the small-u
                  constant

All region work is pure and deterministic.  A run opens one task pool
(`_task_pool`): each interval scan, the Selberg sweep, the small-u grid and
the iteration is a task on it, and the calling process only submits tasks
and assembles certificates.  The pool's workers receive the prime table once,
and below two workers the pool is inline (no processes), as it is for a
verifier called without a pool.  A scan task names its presieve, if any, and
each process builds a named presieve on first use and keeps it until its
pool closes.  The report does not depend on the
parallelism setting, `PipelineConfig.parallelism`.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import nullcontext
from contextvars import ContextVar
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
from .errors import DomainError, InfeasibleError, NumericError
from .phi import DEFAULT_EXHAUSTIVE_CAP, KEPT_VIOLATIONS, scan_rough_interval
from .primes import Presieve, PrimeTable, build_prime_table
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
REGION_ORDER = (SMALL_Y, MID_Y, SELBERG_FINITE, SELBERG_CLOSED, SMALL_U, ITERATION)

DEFAULT_TARGET = 0.6
# Exhaustive small-u scans run to y <= SMALL_U_CAP by default; the paper
# scale runs them to 1100, where the analytic grid takes over (132 scans,
# about 30 s on one core).
SMALL_U_CAP = 500
PAPER_SCALE_SMALL_U_CAP = 1100
CLOSED_GRID_TOP = 1e12
# Milestones established by the small-u region and consumed by the iteration.
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


@dataclass(frozen=True)
class PipelineConfig:
    target: float = DEFAULT_TARGET
    small_u_cap: int = SMALL_U_CAP
    parallelism: int = 1
    regions: tuple[str, ...] = REGION_ORDER


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


class _PoolState:
    """What the tasks of one pool share in one process: the prime table, and
    the last presieve a scan task named, built on first use."""

    def __init__(self, table: PrimeTable):
        self.table = table
        self._presieve: tuple[tuple[int, int], Presieve] | None = None

    def presieve(self, name: tuple[int, int] | None) -> Presieve | None:
        """The presieve of the primes <= y over [0, x_cap], for name (y, x_cap)."""
        if name is None:
            return None
        if self._presieve is None or self._presieve[0] != name:
            self._presieve = None              # free the old one before building its successor
            y, x_cap = name
            self._presieve = (name, Presieve(self.table.primes[:self.table.pi(y)], x_cap))
        return self._presieve[1]


# The state of the pool a task runs in: set once in each worker process by
# the pool's initializer, and in the calling thread around an inline pool.
_POOL: ContextVar[_PoolState] = ContextVar("roughbound_pool")


def _serve(table: PrimeTable) -> None:
    _POOL.set(_PoolState(table))


class _InlinePool:
    """The executor interface without processes: a task runs in the calling
    thread as it is submitted."""

    def __init__(self, table: PrimeTable):
        self._table = table

    def __enter__(self):
        self._token = _POOL.set(_PoolState(self._table))
        return self

    def __exit__(self, *exc):
        _POOL.reset(self._token)
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def map(self, fn, iterable):
        return [fn(item) for item in iterable]


def _task_pool(table: PrimeTable, parallelism: int, tasks: int):
    """A pool for `tasks` tasks on min(parallelism, tasks, usable CPUs) worker
    processes, each handed `table` once by the initializer; inline below two."""
    if parallelism < 1:
        raise DomainError(f"parallelism must be >= 1, got {parallelism}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(parallelism, tasks, cpus or 1)
    if workers < 2:
        return _InlinePool(table)
    return ProcessPoolExecutor(max_workers=workers, initializer=_serve, initargs=(table,))


# Tasks look up the function they run as a module global when they run, so a
# wrapper installed on this module before the pool starts reaches its workers.

def _scan_task(task):
    y_lo, y_hi, x_cap, target, presieve = task
    state = _POOL.get()
    return scan_rough_interval(state.table, y_lo, y_hi, x_cap, target=target,
                               presieve=state.presieve(presieve))


def _selberg_task(target):
    return verify_selberg(target, _POOL.get().table)


def _grid_task():
    return small_u_grid_max()


def _iteration_task(target):
    return verify_iteration(_POOL.get().table, target=target)


# ---------------------------------------------------------------------------
# small-y region
# ---------------------------------------------------------------------------

def verify_small_y(target: float, table: PrimeTable, *, pool=None) -> RegionCertificate:
    """Reproduce the reference small-y table and scan every interval for
    violations of the target.

    For each interval of consecutive primes [p, q) below 71 the elementary
    inclusion-exclusion bound takes over at a computable x-bound; below it the
    rough numbers are streamed directly.  The interval [2, 3) is special: its
    statistic exceeds .6 at x = 9, and the certificate instead asserts that
    every violation there has x < 10.

    The scans run on `pool`, a run's task pool, or else in this process.
    """
    reproduce = abs(target - DEFAULT_TARGET) < 1e-15
    meta = []
    for (p, q, printed, is_rounded, printed_max) in REFERENCE_SMALL_Y_ROWS:
        try:
            xb = elementary_x_bound(p, target, table)
        except InfeasibleError:
            xb = None  # elementary bound can never reach this target
        meta.append((p, q, printed, is_rounded, printed_max, xb))

    with nullcontext(pool) if pool else _InlinePool(table) as pool:
        scans = list(pool.map(_scan_task, [(p, q, printed - 1, target, None)
                                           for p, q, printed, *_ in meta]))

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

    return RegionCertificate(
        region=SMALL_Y,
        method="interval scans below elementary inclusion-exclusion x-bounds",
        margin=margin,
        verified=not failures,
        params={"target": target, "cap": DEFAULT_EXHAUSTIVE_CAP, "rows": len(out_rows),
                "reproduction": reproduce},
        failures=failures,
        rows=out_rows,
    )


# ---------------------------------------------------------------------------
# mid-y region
# ---------------------------------------------------------------------------

def verify_mid_y(target: float, table: PrimeTable, *, pool=None) -> RegionCertificate:
    """Exhaustively check 71 <= y < 241 below the pre-sieved truncation bounds.

    For each prime interval [p, q) the depth-4 Bonferroni bound (with the
    14/15 remainder refinement) takes over at an x-bound verified to stay
    below the 3e7 cap; one streaming pass covers all smaller x.  The scans
    run as in `verify_small_y`.
    """
    ps = [int(p) for p in table.primes_between(70, 240)]
    meta = []
    bound_failures = []
    for p in ps:
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

    with nullcontext(pool) if pool else _InlinePool(table) as pool:
        scans = list(pool.map(_scan_task, [(p, q, xb - 1, target, None) for p, q, xb in meta]))

    rows = []
    failures = list(bound_failures)
    margin = math.inf
    for (p, q, xb), scan in zip(meta, scans):
        rows.append({"y_lo": p, "y_hi": q, "x_bound": xb,
                     "max_ratio": scan.sup_max,
                     "witness_n": scan.sup_witness[0], "witness_j": scan.sup_witness[1],
                     "violations": scan.violation_count})
        margin = min(margin, target - scan.sup_max)
        if scan.violation_count:
            failures.append({"interval": [p, q], "issue": "target violated",
                             "witnesses": [list(v) for v in scan.violations[:8]]})

    return RegionCertificate(
        region=MID_Y,
        method="interval scans below pre-sieved Bonferroni x-bounds (14/15 remainder)",
        margin=margin,
        verified=not failures,
        params={"target": target, "cap": DEFAULT_EXHAUSTIVE_CAP, "intervals": len(rows),
                "max_x_bound": max(r["x_bound"] for r in rows)},
        failures=failures,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Selberg regions (u >= 7.5)
# ---------------------------------------------------------------------------

def verify_selberg(target: float, table: PrimeTable):
    """Both sieve branches; returns (finite certificate, closed certificate)."""
    sweep = selberg_sweep(table, lo=SELBERG_MIN_Y, hi=CLOSED_FORM_MIN_Y, target=target)
    bad = sweep[~((sweep.margin > 0) & (sweep.f_value < 1))]
    failures = [
        {"y": y, "q": q, "issue": "nonpositive margin", "coefficient": coefficient}
        for y, q, _, _, coefficient, _ in bad.tolist()
    ]
    worst = sweep[int(np.argmin(sweep.margin))]
    finite = RegionCertificate(
        region=SELBERG_FINITE,
        method="explicit sieve at x = p^7.5 per consecutive-prime pair, grid-optimized epsilon",
        margin=float(worst.margin),
        verified=not failures,
        params={"target": target, "pairs": len(sweep),
                "y_range": [int(sweep.y[0]), int(sweep.y[-1])],
                "worst_y": int(worst.y), "worst_epsilon": float(worst.epsilon),
                "worst_f": float(worst.f_value),
                "sieve_level_rule": "D = .03 x / (log y)^3",
                "remainder_coefficient": SELBERG_REMAINDER_COEFF},
        failures=failures,
    )

    ys = np.geomspace(CLOSED_FORM_MIN_Y, CLOSED_GRID_TOP, 41)
    factors = [closed_form_factor(float(y)) for y in ys]
    coefs = [final_large_y_bound(float(y)) for y in ys]
    decreasing = all(a > b for a, b in zip(factors, factors[1:]))
    closed_failures = []
    if factors[0] >= CLOSED_FACTOR_LIMIT:
        closed_failures.append({"issue": "factor limit", "factor": factors[0]})
    if coefs[0] >= CLOSED_COEF_LIMIT:
        closed_failures.append({"issue": "coefficient limit", "coefficient": coefs[0]})
    if not decreasing:
        closed_failures.append({"issue": "factor not decreasing across grid"})
    if max(coefs) >= target:
        closed_failures.append({"issue": "target violated", "coefficient": max(coefs)})
    closed = RegionCertificate(
        region=SELBERG_CLOSED,
        method="closed-form sieve bound at x = y^7.5, epsilon = 1/log y",
        margin=target - max(coefs),
        verified=not closed_failures,
        params={"target": target, "grid": [float(ys[0]), float(ys[-1]), len(ys)],
                "factor_at_500k": factors[0], "factor_limit": CLOSED_FACTOR_LIMIT,
                "coefficient_at_500k": coefs[0], "coefficient_limit": CLOSED_COEF_LIMIT,
                "factor_decreasing": decreasing,
                "equality_note": "x = y^7.5 checked; larger x follows from the same proof"},
        failures=closed_failures,
        rows=[{"y": float(y), "factor": f, "coefficient": c}
              for y, f, c in zip(ys, factors, coefs)],
    )
    return finite, closed


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
    the small-u grid it is within 7e-15 of adaptive quadrature at 1e-12.
    """
    y, u = np.broadcast_arrays(np.asarray(y, dtype=float), np.asarray(u, dtype=float))
    bad = (u < 2) | (u > 3)
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


def small_u_grid_max():
    """Maximize the assembled small-u coefficient over the (y, u) grid.

    For each y of SMALL_U_GRID_YS, u takes 101 evenly spaced values in
    [2, 3] and the values where y^(u/2) crosses a window edge (the
    coefficient jumps down there, so the supremum sits just below the
    crossing).  Each y is one array call of `small_u_coefficient` over its
    103 or so u values; the maximum is the first in (y, u) order that no
    later value exceeds.
    """
    base_us = np.linspace(2.0, 3.0, 101)
    best = (-math.inf, None, None)
    rows = []
    for y in SMALL_U_GRID_YS:
        log_y = math.log(y)
        crossings = [2.0 * math.log(1e4) / log_y, 2.0 * math.log(1e6) / log_y]
        us = np.sort(np.concatenate([base_us] + [[c - 1e-9, c] for c in crossings
                                                 if 2.0 < c < 3.0]))
        values = small_u_coefficient(float(y), us)
        i = int(np.argmax(values))
        val, u = float(values[i]), float(us[i])
        rows.append({"y": float(y), "max_coefficient": val, "at_u": u})
        if val > best[0]:
            best = (val, float(y), u)
    return best, rows


def verify_small_u(table: PrimeTable, *, target: float = DEFAULT_TARGET,
                   y_exhaustive_cap: int = SMALL_U_CAP, pool=None) -> RegionCertificate:
    """The 2 <= u < 3 region: exhaustive scans for 241 <= y <= cap, assembled
    analytic bound on a grid for y >= 1100.

    The default cap keeps the exhaustive branch at desk scale; raising it to
    PAPER_SCALE_SMALL_U_CAP closes the gap to the analytic branch in about
    30 s on one core.  Scans cover x < q^3 per interval [p, q), with the
    two-dimensional supremum convention for the multiplier.  Every scan
    starts its segments from one presieve of the primes <= 241 over the
    largest range, which each process of the pool builds on first use
    (4.2 MB at the default cap, 45 MB at the paper's).  The grid is a task
    submitted before the scans, and all of them run as in `verify_small_y`.
    """
    ps = [int(p) for p in table.primes_between(240, y_exhaustive_cap)]
    meta = [(p, table.next_prime(p)) for p in ps]
    # every scan strikes the primes <= 241 first: each process sieves them once
    presieve = (ps[0], meta[-1][1] ** 3 - 1) if ps else None

    with nullcontext(pool) if pool else _InlinePool(table) as pool:
        grid = pool.submit(_grid_task)
        scans = list(pool.map(_scan_task, [(p, q, q ** 3 - 1, target, presieve)
                                           for p, q in meta]))
        (analytic_max, at_y, at_u), grid_rows = grid.result()

    rows = []
    failures = []
    exhaustive_max = -math.inf
    for (p, q), scan in zip(meta, scans):
        rows.append({"y_lo": p, "y_hi": q, "x_cap": scan.x_cap,
                     "max_ratio": scan.sup_max,
                     "witness_n": scan.sup_witness[0], "witness_j": scan.sup_witness[1],
                     "violations": scan.violation_count})
        exhaustive_max = max(exhaustive_max, scan.sup_max)
        if scan.violation_count:
            failures.append({"interval": [p, q], "issue": "target violated",
                             "witnesses": [list(v) for v in scan.violations[:8]]})
    if exhaustive_max >= SMALL_U_EXHAUSTIVE_MAX:
        failures.append({"issue": "exhaustive milestone exceeded",
                         "max_ratio": exhaustive_max,
                         "milestone": SMALL_U_EXHAUSTIVE_MAX})

    if analytic_max >= min(C3_SMALL_U, target):
        failures.append({"issue": "analytic milestone exceeded",
                         "max_coefficient": analytic_max, "at_y": at_y, "at_u": at_u,
                         "milestone": min(C3_SMALL_U, target)})

    return RegionCertificate(
        region=SMALL_U,
        method="exhaustive interval scans to the cap + assembled prime-count bound on a grid",
        margin=target - max(exhaustive_max, analytic_max),
        verified=not failures,
        params={"target": target, "exhaustive_cap_y": y_exhaustive_cap,
                "exhaustive_max": exhaustive_max,
                "exhaustive_milestone": SMALL_U_EXHAUSTIVE_MAX,
                "analytic_max": analytic_max, "analytic_at": [at_y, at_u],
                "analytic_milestone": C3_SMALL_U,
                "analytic_y_range": [1100, "unbounded (grid to 1e12)"],
                "exhaustive_rows": len(rows)},
        failures=failures,
        rows=rows + [{"grid": grid_rows}],
    )


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
    i = int(np.searchsorted(ps, q0, side="right"))              # q1 runs over ps[i:]
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
    if q0 < ITERATION_TAIL_FROM:
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

    return RegionCertificate(
        region=ITERATION,
        method=f"geometric chain c3 -> c8 with exact eps_3 below {ITERATION_TAIL_FROM}, "
               "theta-defect tail above",
        margin=margin,
        verified=not failures,
        params={"target": target, "c3": C3_SMALL_U, "exact_range": [241, rows[-1]["q0"]],
                "worst": worst,
                "tail_rule": "eps3 < 1.95 / (sqrt(q0) (log q0)^2), decreasing in q0",
                "tail_probes": list(ITERATION_TAIL_PROBES)},
        failures=failures,
        rows=[{"exact": rows[:4] + [{"...": len(rows)}], "tail": tail_rows}],
    )


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

def _required_limit(config: PipelineConfig) -> int:
    limit = 300
    if SMALL_U in config.regions:
        limit = max(limit, 2 * config.small_u_cap + 100)
    if ITERATION in config.regions:
        # epsilon_k(q0, 3) reads the primes to q0^(4/3)
        limit = max(limit, math.ceil((ITERATION_TAIL_FROM - 1) ** (4 / 3)) + 100)
    if SELBERG_FINITE in config.regions or SELBERG_CLOSED in config.regions:
        limit = max(limit, CLOSED_FORM_MIN_Y + 1000)
    return limit


def run_full_pipeline(config: PipelineConfig | None = None, *,
                      table: PrimeTable | None = None) -> BoundReport:
    """Run the selected region verifiers and aggregate their certificates.

    The overall verdict is the conjunction of the per-region verdicts; output
    is independent of the parallelism setting.  Every region works on the
    run's one task pool: small-y's scans, the Selberg sweep and the
    iteration go first, then mid-y's and small-u's scans (small-u's grid
    just before them); each exhaustive verifier assembles its certificate as
    its scans' results arrive.
    """
    config = config or PipelineConfig()
    regions = config.regions
    for r in regions:
        if r not in REGION_ORDER:
            raise DomainError(f"unknown region {r!r}")
    if not math.isfinite(config.target):
        raise DomainError(f"target must be finite, got {config.target}")
    if table is None:
        table = build_prime_table(_required_limit(config))
    selberg = SELBERG_FINITE in regions or SELBERG_CLOSED in regions
    # one task per analytic computation and per scan of the verifiers below
    tasks = (selberg + (ITERATION in regions)
             + (len(REFERENCE_SMALL_Y_ROWS) if SMALL_Y in regions else 0)
             + (len(table.primes_between(70, 240)) if MID_Y in regions else 0)
             + (len(table.primes_between(240, config.small_u_cap)) + 1 if SMALL_U in regions else 0))

    certs: list[RegionCertificate] = []
    with _task_pool(table, config.parallelism, tasks) as pool:
        # small-y's short scans finish before the analytic tasks are queued
        if SMALL_Y in regions:
            certs.append(verify_small_y(config.target, table, pool=pool))
        if selberg:
            selberg_certs = pool.submit(_selberg_task, config.target)
        if ITERATION in regions:
            iteration = pool.submit(_iteration_task, config.target)
        if MID_Y in regions:
            certs.append(verify_mid_y(config.target, table, pool=pool))
        if SMALL_U in regions:
            certs.append(verify_small_u(table, target=config.target,
                                        y_exhaustive_cap=config.small_u_cap, pool=pool))
        if selberg:
            certs += [c for c in selberg_certs.result() if c.region in regions]
        if ITERATION in regions:
            certs.append(iteration.result())

    certs.sort(key=lambda c: REGION_ORDER.index(c.region))
    table1 = []
    for c in certs:
        if c.region == SMALL_Y:
            table1 = [r for r in c.rows]
    config_dict = asdict(config)
    config_dict["regions"] = list(config.regions)  # JSON-stable form
    return BoundReport(
        certificates=certs,
        table1=table1,
        verdict=all(c.verified for c in certs),
        config=config_dict,
    )
