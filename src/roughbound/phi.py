"""Exact rough-number counting by three independent methods, plus interval scans.

Phi(x, y) is the number of integers in [1, x] with no prime factor <= y
(1 is always counted).  `phi_direct` strikes a segmented bitmask, or the
count can be reproduced by full inclusion-exclusion (`phi_legendre`) and,
for y^2 <= x < y^3, by the prime-pair identity (`phi_two_prime`).  The same
bitmask engine streams rough numbers with their running index to compute the
interval max statistics used by the verification pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfRangeError, ResourceError
from .primes import PrimeTable

DEFAULT_EXHAUSTIVE_CAP = 30_000_000
ROUGH_SEGMENT = 1 << 22
KEPT_VIOLATIONS = 64     # violation witnesses a scan keeps; the rest are only counted


@dataclass(frozen=True)
class PhiQuery:
    """Canonical form of a (x, y) query: the count depends only on canonical_y."""

    x: int
    y: float
    canonical_y: int | None

    @property
    def degenerate(self) -> bool:
        return self.canonical_y is None


def canonicalize(x: int, y: float, table: PrimeTable) -> PhiQuery:
    """Replace y by the largest prime <= y (None when y < 2)."""
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    return PhiQuery(x=int(x), y=float(y), canonical_y=table.prev_prime(y))


def _strike_primes(table: PrimeTable, y) -> np.ndarray:
    if y > table.limit:
        raise OutOfRangeError(f"need primes up to {y} but table stops at {table.limit}")
    return table.primes[: table._count_upto(y)]


def _rough_mask(lo: int, hi: int, strike) -> np.ndarray:
    """Boolean mask over [lo, hi) marking integers free of the given primes."""
    mask = np.ones(hi - lo, dtype=bool)
    if lo == 0:
        mask[0] = False  # 0 is not counted; 1 survives every strike
    for p in strike:
        p = int(p)
        start = ((lo + p - 1) // p) * p
        if start < hi:
            mask[start - lo :: p] = False
    return mask


def phi_direct(x: int, y: float, table: PrimeTable, *,
               cap: int = DEFAULT_EXHAUSTIVE_CAP) -> int:
    """Exact Phi(x, y) by a segmented sieve strike.  Degenerate cases:
    Phi(x, y) = floor(x) for y < 2 and Phi(0, y) = 0."""
    x = int(x)
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    if x > cap:
        raise ResourceError(f"x={x} exceeds the exhaustive cap {cap}; raise cap to at least {x}")
    if x == 0:
        return 0
    if y < 2:
        return x
    strike = _strike_primes(table, min(y, x))
    count = 0
    for lo in range(0, x + 1, ROUGH_SEGMENT):
        hi = min(lo + ROUGH_SEGMENT, x + 1)
        count += int(np.count_nonzero(_rough_mask(lo, hi, strike)))
    return count


def phi_legendre(x: int, y: float, table: PrimeTable, *, budget: int = 4_000_000) -> int:
    """Exact Phi(x, y) by the memoized inclusion-exclusion recursion
    phi(n, a) = n - sum_{i <= a} phi(n // p_i, i-1), whose call depth is at
    most log2(x) rather than pi(y)."""
    x = int(x)
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    if x == 0:
        return 0
    if y < 2:
        return x
    ps = [int(p) for p in _strike_primes(table, min(y, x))]
    memo: dict[tuple[int, int], int] = {}

    def rec(n: int, a: int) -> int:
        if a == 0:
            return n
        if n == 0:
            return 0
        if ps[a - 1] >= n:
            # every prime <= n is among the first a primes: only 1 survives
            return 1
        key = (n, a)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(memo) >= budget:
            raise ResourceError(f"inclusion-exclusion memo exceeded budget {budget}")
        val = n
        for i in range(a):
            val -= rec(n // ps[i], i)
        memo[key] = val
        return val

    return rec(x, len(ps))


def phi_two_prime(x: int, y: float, table: PrimeTable) -> int:
    """Exact Phi(x, y) on y^2 <= x < q^3, q the first prime above y.

    On that range every survivor has at most two prime factors (the smallest
    triple product of primes > y is q^3), so
    Phi = pi(x) - M(x, y) + sum over y < p <= sqrt(x) of pi(x // p)
    with M = pi(rx)(pi(rx)-1)/2 - (pi(y)-1)(pi(y)-2)/2, rx = sqrt(x).
    """
    x = int(x)
    q = table.next_prime(y)
    if not (y * y <= x < q * q * q):
        raise DomainError(
            f"prime-pair identity needs y^2 <= x < q^3 (q={q} first prime above y), "
            f"got x={x}, y={y}"
        )
    if x > table.limit:
        raise ResourceError(
            f"prime-pair method needs pi up to x={x}; table stops at {table.limit}"
        )
    root = math.isqrt(x)
    z = table.pi(root)
    w = table.pi(y)
    m = z * (z - 1) // 2 - (w - 1) * (w - 2) // 2
    ps = table.primes_between(y, root)
    if len(ps):
        quotients = x // ps
        tail = int(np.sum(np.searchsorted(table.primes, quotients, side="right")))
    else:
        tail = 0
    return table.pi(x) - m + tail


@dataclass(frozen=True)
class MaxStatRow:
    """One scanned y-interval: max of (j log y_hi)/n over rough n >= y_hi^2."""

    y_lo: int
    y_hi: int
    x_bound: int
    max_stat: float
    witness_n: int
    witness_j: int


@dataclass(frozen=True)
class IntervalScan:
    """Full scan result for y in [y_lo, y_hi), streaming y_lo-rough n <= x_cap.

    table_max uses the fixed tabulation convention: n >= y_hi^2 with
    multiplier log(y_hi).  sup_max covers the genuine two-dimensional
    supremum of Phi(x,y) log(y)/x over y in the interval and x >= y^2: for
    n below y_hi^2 the binding constraint is y <= sqrt(x), so the multiplier
    is log(sqrt(n)) there.  Violations are sup-convention ratios >= target.
    """

    y_lo: int
    y_hi: int
    x_cap: int
    rough_count: int
    table_max: float
    table_witness: tuple[int, int]
    sup_max: float
    sup_witness: tuple[int, int]
    violations: tuple[tuple[int, int, float], ...]
    violation_count: int


def scan_rough_interval(table: PrimeTable, y_lo: int, y_hi: int, x_cap: int, *,
                        target: float | None = None,
                        cap: int | None = None) -> IntervalScan:
    """Stream y_lo-rough integers n <= x_cap with their 1-based index j.

    The sup statistic covers n >= y_lo^2; the first KEPT_VIOLATIONS
    violations are kept as witnesses and all of them are counted.
    """
    x_cap = int(x_cap)
    if x_cap < 1:
        raise DomainError(f"x_cap must be >= 1, got {x_cap}")
    if cap is not None and x_cap > cap:
        raise ResourceError(f"scan to {x_cap} exceeds the exhaustive cap {cap}")
    strike = _strike_primes(table, y_lo)
    log_q = math.log(y_hi)
    q2 = int(y_hi) * int(y_hi)
    lo_bound = int(y_lo) * int(y_lo)

    j_offset = 0
    best_table = (-1.0, 0, 0)
    best_sup = (-1.0, 0, 0)
    violations: list[tuple[int, int, float]] = []
    violation_count = 0

    for lo in range(0, x_cap + 1, ROUGH_SEGMENT):
        hi = min(lo + ROUGH_SEGMENT, x_cap + 1)
        mask = _rough_mask(lo, hi, strike)
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            continue
        ns = idx.astype(np.int64) + lo
        js = j_offset + np.arange(1, idx.size + 1, dtype=np.int64)
        j_offset += idx.size

        sel = ns >= q2
        if np.any(sel):
            ratios = js[sel] * log_q / ns[sel]
            k = int(np.argmax(ratios))
            if ratios[k] > best_table[0]:
                best_table = (float(ratios[k]), int(ns[sel][k]), int(js[sel][k]))

        sel2 = ns >= lo_bound
        if np.any(sel2):
            nv = ns[sel2]
            jv = js[sel2]
            mult = np.where(nv >= q2, log_q, 0.5 * np.log(nv))
            ratios2 = jv * mult / nv
            k = int(np.argmax(ratios2))
            if ratios2[k] > best_sup[0]:
                best_sup = (float(ratios2[k]), int(nv[k]), int(jv[k]))
            if target is not None:
                bad = np.flatnonzero(ratios2 >= target)
                violation_count += int(bad.size)
                for b in bad[: max(0, KEPT_VIOLATIONS - len(violations))]:
                    violations.append((int(nv[b]), int(jv[b]), float(ratios2[b])))

    return IntervalScan(
        y_lo=int(y_lo), y_hi=int(y_hi), x_cap=x_cap, rough_count=j_offset,
        table_max=best_table[0], table_witness=(best_table[1], best_table[2]),
        sup_max=best_sup[0], sup_witness=(best_sup[1], best_sup[2]),
        violations=tuple(violations), violation_count=violation_count,
    )


def max_statistic(y_lo: int, y_hi: int, x_bound: int, table: PrimeTable, *,
                  cap: int = DEFAULT_EXHAUSTIVE_CAP) -> MaxStatRow:
    """Tabulated max statistic for the interval [y_lo, y_hi): the supremum of
    j log(y_hi) / n over rough n with y_hi^2 <= n < x_bound."""
    if x_bound < y_lo * y_lo:
        raise DomainError(f"x_bound {x_bound} below y_lo^2 = {y_lo * y_lo}")
    scan = scan_rough_interval(table, y_lo, y_hi, x_bound - 1, cap=cap)
    return MaxStatRow(
        y_lo=int(y_lo), y_hi=int(y_hi), x_bound=int(x_bound),
        max_stat=scan.table_max, witness_n=scan.table_witness[0],
        witness_j=scan.table_witness[1],
    )
