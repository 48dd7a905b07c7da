"""Exact rough-number counting by three independent methods, plus interval scans.

Phi(x, y) is the number of integers in [1, x] with no prime factor <= y
(1 is always counted).  `phi_direct` strikes a segmented bitmask, or the
count can be reproduced by full inclusion-exclusion (`phi_legendre`) and,
for y^2 <= x < y^3, by the prime-pair identity (`phi_two_prime`).  A
segmented mod-30 wheel sieve streams rough numbers with their running index
to compute the interval max statistics used by the verification pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfRangeError, ResourceError
from .primes import PrimeTable

DEFAULT_EXHAUSTIVE_CAP = 30_000_000
ROUGH_SEGMENT = 1 << 20
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


_WHEELS: dict[int, tuple[int, np.ndarray, np.ndarray, np.ndarray]] = {}


def _wheel(strike, x_cap: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The wheel of the struck primes among 2, 3, 5: its modulus w, the
    residues coprime to w, -r^-1 mod w indexed by residue r, and the int32
    offsets i*w + r of a (rows, residues) mask in row-major order, for as
    many rows as a scan to x_cap uses.  Cached per wheel; a longer scan
    grows the offsets up to one ROUGH_SEGMENT."""
    w = math.prod(int(p) for p in strike[:3])
    rows = min(ROUGH_SEGMENT // w, x_cap // w + 1)
    cached = _WHEELS.get(w)
    if cached is None or cached[3].size < rows * cached[1].size:
        residues = np.array([r for r in range(w) if math.gcd(r, w) == 1], dtype=np.int64)
        neg_inv = np.zeros(w, dtype=np.int64)
        for r in residues.tolist():
            neg_inv[r] = -pow(r, -1, w) % w
        offsets = (np.arange(rows, dtype=np.int32)[:, None] * w
                   + residues.astype(np.int32)).ravel()
        cached = _WHEELS[w] = (w, residues, neg_inv, offsets)
    return cached


def _better(best, ratios, ns, js):
    """`best`, or the first maximum of `ratios` with its (n, j) if larger."""
    i = int(np.argmax(ratios))
    return (float(ratios[i]), int(ns[i]), int(js[i])) if ratios[i] > best[0] else best


def scan_rough_interval(table: PrimeTable, y_lo: int, y_hi: int, x_cap: int, *,
                        target: float | None = None,
                        cap: int | None = None) -> IntervalScan:
    """Stream y_lo-rough integers n <= x_cap with their 1-based index j.

    The sup statistic covers n >= y_lo^2; the first KEPT_VIOLATIONS
    violations are kept as witnesses and all of them are counted.  Each
    witness is the first n attaining its maximum.

    A segment is a (rows, k) mask over the k residues coprime to the wheel
    of the struck primes among 2, 3, 5; every larger prime strikes one slice
    per residue class.  From max(y_hi^2, y_lo^2) on, both statistics are
    j log(y_hi) / n, so a segment there locates its maximum on j / n and
    evaluates the exact ratio only on near-ties of it.
    """
    x_cap = int(x_cap)
    if x_cap < 1:
        raise DomainError(f"x_cap must be >= 1, got {x_cap}")
    if y_hi < 2:  # log(y_hi) > 0 keeps the argmax of j/n that of j log(y_hi)/n
        raise DomainError(f"y_hi must be >= 2, got {y_hi}")
    if cap is not None and x_cap > cap:
        raise ResourceError(f"scan to {x_cap} exceeds the exhaustive cap {cap}")
    strike = _strike_primes(table, y_lo)
    w, residues, neg_inv, offsets = _wheel(strike, x_cap)
    ps = strike[3:, None]                      # the struck primes above the wheel
    inv = (1 + ps * neg_inv[ps % w]) // w      # w^-1 mod p
    log_q = math.log(y_hi)
    q2 = int(y_hi) * int(y_hi)
    lo_bound = int(y_lo) * int(y_lo)

    j_offset = 0
    best_table = (-1.0, 0, 0)
    best_sup = (-1.0, 0, 0)
    violations: list[tuple[int, int, float]] = []
    violation_count = 0

    def note_violations(ratios, ns, js):
        nonlocal violation_count
        bad = np.flatnonzero(ratios >= target)
        violation_count += int(bad.size)
        for b in bad[: max(0, KEPT_VIOLATIONS - len(violations))]:
            violations.append((int(ns[b]), int(js[b]), float(ratios[b])))

    span = (ROUGH_SEGMENT // w) * w
    for base in range(0, x_cap + 1, span):
        width = min(span, x_cap + 1 - base)
        mask = np.ones((-(-width // w), residues.size), dtype=bool)
        starts = (-(base + residues) % ps) * inv % ps
        for p, row in zip(ps[:, 0].tolist(), starts.tolist()):
            for c, s in enumerate(row):
                mask[s::p, c] = False
        flat = mask.ravel()[: width // w * residues.size
                            + int(np.searchsorted(residues, width % w))]
        if base == 0 and w == 1:
            flat[0] = False  # 0 is not counted; 1 survives every strike
        ns = np.add(offsets.take(np.flatnonzero(flat)), base, dtype=np.int64)
        j0 = j_offset + 1                      # the index j of ns[0]
        j_offset += ns.size

        i_q2, i_lo = np.searchsorted(ns, (q2, lo_bound)).tolist()
        if i_q2 < i_lo:                        # y_hi < y_lo: table only below y_lo^2
            nv, jv = ns[i_q2:i_lo], np.arange(j0 + i_q2, j0 + i_lo, dtype=np.int64)
            best_table = _better(best_table, jv * log_q / nv, nv, jv)
        elif i_lo < i_q2:                      # sup only below y_hi^2, multiplier log sqrt(n)
            nv, jv = ns[i_lo:i_q2], np.arange(j0 + i_lo, j0 + i_q2, dtype=np.int64)
            ratios = jv * (0.5 * np.log(nv)) / nv
            best_sup = _better(best_sup, ratios, nv, jv)
            if target is not None:
                note_violations(ratios, nv, jv)
        split = max(i_q2, i_lo)
        ns, j0 = ns[split:], j0 + split
        if ns.size:
            r = np.arange(j0, j0 + ns.size, dtype=np.float64)
            r /= ns
            near = np.flatnonzero(r >= r.max() * (1 - 1e-13))
            nn, jn = ns[near], near + j0
            ratios = jn * log_q / nn
            best_table = _better(best_table, ratios, nn, jn)
            best_sup = _better(best_sup, ratios, nn, jn)
            if target is not None and ratios.max() >= target:
                js = np.arange(j0, j0 + ns.size, dtype=np.int64)
                note_violations(js * log_q / ns, ns, js)

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
