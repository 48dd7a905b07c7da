"""Exact rough-number counting by three independent methods, plus interval scans.

Phi(x, y) is the number of integers in [1, x] with no prime factor <= y
(1 is always counted).  `phi_direct` counts the survivors of the library's
one sieve, the segmented mod-30 wheel `primes.rough_segments` (segments of
`primes.ROUGH_SEGMENT` bytes), or the count can be reproduced by full
inclusion-exclusion (`phi_legendre`) and, for y^2 <= x < y^3, by the
prime-pair identity (`phi_two_prime`).  The interval scans read the same
sieve row by row and expand to (n, index) pairs only the rows that can hold
the interval max statistics used by the verification pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OutOfRangeError, ResourceError
from .primes import PrimeTable, rough_segments, wheel_row

DEFAULT_EXHAUSTIVE_CAP = 30_000_000
KEPT_VIOLATIONS = 64     # violation witnesses a scan keeps; the rest are only counted
STREAMED = 1 << 15       # a scan's first integers, where row bounds are too loose to prune


def _strike_primes(table: PrimeTable, y) -> np.ndarray:
    if y > table.limit:
        raise OutOfRangeError(f"need primes up to {y} but table stops at {table.limit}")
    return table.primes[: table._count_upto(y)]


def phi_direct(x: int, y: float, table: PrimeTable, *,
               cap: int = DEFAULT_EXHAUSTIVE_CAP) -> int:
    """Exact Phi(x, y): the survivors of the wheel sieve `rough_segments`,
    counted.  Degenerate cases: Phi(x, y) = floor(x) for y < 2 and
    Phi(0, y) = 0."""
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
    return sum(int(np.count_nonzero(mask)) for _, mask in rough_segments(strike, x))


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

    try:
        return rec(x, len(ps))
    finally:
        del rec   # rec holds itself through its closure: free memo now, not at the next gc


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

    The segments come from the wheel sieve `rough_segments`, whose masks are
    read in rows of 32 residues.  Rows holding an n below max(y_hi^2,
    y_lo^2), or among the scan's first STREAMED integers, are expanded to
    every (n, j).  Above that split both
    statistics are j log(y_hi) / n, and a row's survivor count gives the j of
    its last survivor, j_end.  Each survivor of a row then has
    j / n <= j_end / (the row's smallest n), so only the rows whose bound
    reaches the largest j / n known so far (less 1e-13) are expanded, and
    the exact ratio is evaluated on their survivors alone.  From earlier
    segments that floor counts only up to the j / n of the target, so every
    violation is still found.
    """
    x_cap = int(x_cap)
    if x_cap < 1:
        raise DomainError(f"x_cap must be >= 1, got {x_cap}")
    if y_hi < 2:  # log(y_hi) > 0 keeps the order of j/n that of j log(y_hi)/n
        raise DomainError(f"y_hi must be >= 2, got {y_hi}")
    if cap is not None and x_cap > cap:
        raise ResourceError(f"scan to {x_cap} exceeds the exhaustive cap {cap}")
    strike = _strike_primes(table, y_lo)
    step, residues = wheel_row(strike)         # integers per row, and its residues
    log_q = math.log(y_hi)
    q2 = int(y_hi) * int(y_hi)
    lo_bound = int(y_lo) * int(y_lo)
    split = max(q2, lo_bound)
    streamed = max(split, STREAMED)
    reach = 0.0                                # largest j / n seen above the split
    # a survivor whose j / n is below this (less 1e-13) is no violation
    reach_cap = math.inf if target is None else target / log_q

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

    def offer(ns, js) -> float:
        """Fold survivors, ascending in n, into both statistics; the largest
        ratio among those above the split, or -1."""
        nonlocal best_table, best_sup, reach
        i_q2, i_lo = np.searchsorted(ns, (q2, lo_bound)).tolist()
        if i_q2 < i_lo:                        # y_hi < y_lo: table only below y_lo^2
            nv, jv = ns[i_q2:i_lo], js[i_q2:i_lo]
            best_table = _better(best_table, jv * log_q / nv, nv, jv)
        elif i_lo < i_q2:                      # sup only below y_hi^2, multiplier log sqrt(n)
            nv, jv = ns[i_lo:i_q2], js[i_lo:i_q2]
            ratios = jv * (0.5 * np.log(nv)) / nv
            best_sup = _better(best_sup, ratios, nv, jv)
            if target is not None:
                note_violations(ratios, nv, jv)
        above = max(i_q2, i_lo)
        if above == ns.size:
            return -1.0
        ns, js = ns[above:], js[above:]
        ratios = js * log_q / ns
        i = int(np.argmax(ratios))
        reach = max(reach, js[i] / ns[i])
        best_table = _better(best_table, ratios, ns, js)
        best_sup = _better(best_sup, ratios, ns, js)
        return float(ratios[i])

    for base, mask in rough_segments(strike, x_cap):
        # rows holding an n below `streamed` are expanded in full
        head = min(len(mask), max(0, -(-(streamed - base - int(residues[0])) // step)))
        cells = np.flatnonzero(mask[:head])
        top = offer(base + step * (cells >> 5) + residues[cells & 31],
                    np.arange(j_offset + 1, j_offset + cells.size + 1))
        j_offset += cells.size
        if head < len(mask):
            # survivors per row: its four 8-byte popcounts summed by one multiply
            count = (np.bitwise_count(mask[head:].view(np.uint64)).view(np.uint32)
                     * 0x01010101 >> 24)[:, 0]
            j_end = np.cumsum(count, dtype=np.int64)
            j_end += j_offset
            n_min = np.arange(base + head * step + residues[0], base + (len(mask) + 1) * step,
                              step, dtype=np.float64)
            # Some survivor above the split reaches the floor: an earlier one,
            # or the last survivor of a row, whose n is below the next row's
            # n_min.  The `lead` rows before the first survivor here carry the
            # j of an earlier one, which may lie below the split.  Every
            # survivor whose j / n is within 1e-13 of the largest so far is
            # in a kept row, so the first maximum of the exact ratio is too,
            # and so is every violation.
            lead = int(np.searchsorted(j_end, j_offset, "right"))
            floor = max(min(reach, reach_cap),
                        (j_end[lead:] / n_min[lead + 1:]).max(initial=0.0))
            idx = np.flatnonzero(j_end / n_min[:-1] >= floor * (1 - 1e-13))
            cells = np.flatnonzero(mask[head + idx])
            rr = cells >> 5                    # the survivor's row, as an index into idx
            top = max(top, offer((base + step * (head + idx))[rr] + residues[cells & 31],
                                 (j_end[idx] - np.cumsum(count[idx]))[rr]
                                 + np.arange(1, rr.size + 1)))
            j_offset = int(j_end[-1])

        if target is not None and top >= target:
            cells = np.flatnonzero(mask)       # every survivor of the segment
            ns = base + step * (cells >> 5) + residues[cells & 31]
            js = np.arange(j_offset - cells.size + 1, j_offset + 1)
            above = int(np.searchsorted(ns, split))
            ns, js = ns[above:], js[above:]
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
