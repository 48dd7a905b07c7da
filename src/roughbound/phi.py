"""Exact rough-number counting by three independent methods, plus interval scans.

Phi(x, y) is the number of integers in [1, x] with no prime factor <= y
(1 is always counted).  `phi_direct` sums the block counts of the library's
one sieve, a `primes.Presieve` of [0, x]: `Presieve.block_counts`, the
survivors per block of SCAN_BLOCK rows of `primes.rough_rows`, the tail
included, is the library's one survivor count.  The count can be
reproduced by inclusion-exclusion down to a table mod 30030, with no sieve
(`phi_legendre`), and, for y^2 <= x < y^3, by the prime-pair identity
(`phi_two_prime`).

The interval scans read the same rows and block counts, and prune by one
rule on every level.  A unit of `width` integers, with first cell n_min and
the j_end-th survivor its last, bounds the j / n of its survivors: the
j_end-th lies below the next unit's first cell, so it attains
j / n > j_end / (n_min + width), a lower bound, and none exceeds
j_end / n_min, an upper bound.  `keep` raises a floor by the lower bounds
of flat ascending units and keeps those whose upper bound reaches it; the
units are the blocks, the sub-blocks of 4 rows of the kept blocks, the
rows of the kept sub-blocks, and the rows of the tail.  A range of at most
CHUNK_ROWS rows is all tail, and asks for no block counts.  Only the rows
that can hold the interval max statistics used by the verification
pipeline, or a violation of its target, are expanded to (n, index) pairs.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .primes import (
    DEFAULT_LIMIT_CAP,
    SCAN_BLOCK,
    Presieve,
    PrimeTable,
    rough_rows,
    sub_block_counts,
)

DEFAULT_EXHAUSTIVE_CAP = 30_000_000
LEGENDRE_BUDGET = 4_000_000  # memo entries phi_legendre may hold
_BASE_PRIMES = (2, 3, 5, 7, 11, 13)   # phi_legendre's recursion ends in tables mod their products
KEPT_VIOLATIONS = 64     # violation witnesses a scan keeps; the rest are only counted
_SLICE = 1 << 15         # blocks per slice of a scan's block level: 2 MB of presieve
_PREFIX8 = np.uint32(0x01010101)  # times this, 8-bit lanes of a uint32 become their prefix sums


def _finite(x) -> int:
    """x truncated to an int; a nan or infinite x raises DomainError."""
    if not -math.inf < x < math.inf:  # nan fails it too
        raise DomainError(f"x must be finite, got {x}")
    return int(x)


def phi_direct(x: int, y: float, table: PrimeTable, *,
               cap: int = DEFAULT_EXHAUSTIVE_CAP) -> int:
    """Exact Phi(x, y): the survivors of a `Presieve` of [0, x] by the primes
    <= y, each struck once over the whole range, as the sum of its
    `block_counts`.  The presieve takes x / 30
    bytes, x / 24 for 3 <= y < 5 and x / 16 for 2 <= y < 3.  x must be at
    most `cap`, which counts only up to the sieve's ceiling DEFAULT_LIMIT_CAP.
    Degenerate cases: Phi(x, y) = floor(x) for y < 2 and Phi(0, y) = 0."""
    x = _finite(x)
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    cap = min(cap, DEFAULT_LIMIT_CAP)
    if x > cap:
        raise ResourceError(f"x={x} exceeds the exhaustive cap {cap}; " + (
            f"raise cap to at least {x}" if x <= DEFAULT_LIMIT_CAP else "the sieve stops there"))
    if x == 0:
        return 0
    if y < 2:
        return x
    return int(Presieve(table.primes_between(0, min(y, x)), x).block_counts().sum(dtype=np.int64))


@functools.cache
def _base_tables() -> tuple[tuple[int, int, array], ...]:
    """(M, phi(M), T) for a = 0, ..., 6: M the product of the first a primes
    (of _BASE_PRIMES), phi(M) Euler's totient and T[r], for 0 <= r < M, how
    many m in [1, r] are coprime to M, so that phi(n, a) = (n // M) phi(M) +
    T[n % M].  Counted by gcd, with no sieve, so that `phi_legendre` checks
    the sieve; 65 KB, built on first use (about 2 ms), not at import."""
    tables = []
    for a in range(len(_BASE_PRIMES) + 1):
        modulus = math.prod(_BASE_PRIMES[:a])
        coprime = np.gcd(np.arange(modulus, dtype=np.uint16), np.uint16(modulus)) == 1
        coprime[0] = False   # T[0] = 0, also mod 1
        tables.append((modulus, math.prod(p - 1 for p in _BASE_PRIMES[:a]),
                       array("H", np.cumsum(coprime, dtype=np.uint16).tobytes())))
    return tuple(tables)


def phi_legendre(x: int, y: float, table: PrimeTable) -> int:
    """Exact Phi(x, y) by the memoized inclusion-exclusion recursion
    phi(n, a) = phi(n, a-1) - phi(n // p_a, a-1), with no sieve.

    It ends at a <= 6, the primes up to 13, in one table lookup mod their
    product (the base case of Lagarias, Miller and Odlyzko, "Computing
    pi(x): the Meissel-Lehmer method", 1985): phi(n, 6) = (n // 30030) *
    5760 + T[n % 30030], and likewise mod 2310, 210, 30, 6, 2 and 1 for
    a = 5, ..., 0 (`_base_tables`).  Above, phi(n, a) = phi(n, 6) -
    sum_{6 < i <= a} phi(n // p_i, i-1), and once p_a >= n only 1
    survives.  The call depth is at most log2(x) rather than pi(y), and the
    memo of the values above the tables holds at most LEGENDRE_BUDGET
    entries."""
    x = _finite(x)
    if x < 0:
        raise DomainError(f"x must be >= 0, got {x}")
    if x == 0:
        return 0
    if y < 2:
        return x
    a = table.pi(min(y, x))                    # refuses a nan y and one past the table
    bases = _base_tables()
    base = len(bases) - 1                      # 6: the primes up to 13
    if a <= base:                              # one lookup, and no recursion to set up
        modulus, totient, counts = bases[a]
        return x // modulus * totient + counts[x % modulus]
    ps = table.primes[:a].tolist()
    top, top_totient, top_counts = bases[base]
    memo: dict[tuple[int, int], int] = {}

    def rec(n: int, a: int) -> int:
        if a <= base:
            modulus, totient, counts = bases[a]
            return n // modulus * totient + counts[n % modulus]
        if ps[a - 1] >= n:
            # every prime <= n is among the first a primes: only 1 survives
            return 1
        key = (n, a)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(memo) >= LEGENDRE_BUDGET:
            raise ResourceError(f"inclusion-exclusion memo exceeded budget {LEGENDRE_BUDGET}")
        val = n // top * top_totient + top_counts[n % top]
        for i in range(base, a):
            val -= rec(n // ps[i], i)
        memo[key] = val
        return val

    try:
        return rec(x, a)
    finally:
        del rec   # rec holds itself through its closure: free memo now, not at the next gc


def phi_two_prime(x: int, y: float, table: PrimeTable) -> int:
    """Exact Phi(x, y) on y^2 <= x < q^3, q the first prime above y.

    On that range every survivor has at most two prime factors (the smallest
    triple product of primes > y is q^3), so
    Phi = pi(x) - M(x, y) + sum over y < p <= sqrt(x) of pi(x // p)
    with M = pi(rx)(pi(rx)-1)/2 - (pi(y)-1)(pi(y)-2)/2, rx = sqrt(x).
    """
    x = _finite(x)
    if not y * y <= x:  # before next_prime, which may find no prime above a huge y
        raise DomainError(f"prime-pair identity needs y^2 <= x < q^3, got x={x}, y={y}")
    if x == 0:  # the formula counts n = 1, which needs x >= 1
        return 0
    q = table.next_prime(y)
    if not x < q * q * q:
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
    # none when no prime lies in (y, sqrt(x)]; each below 2^30, but x may be 2^31: divided
    # in int64, then searched in the table's dtype, so that the table is not cast
    quotients = (np.int64(x) // table.primes_between(y, root)).astype(table.primes.dtype)
    return table.pi(x) - m + int(table.primes.searchsorted(quotients, "right").sum())


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
                        presieve: Presieve | None = None) -> IntervalScan:
    """Stream y_lo-rough integers n <= x_cap with their 1-based index j,
    for y_lo < y_hi.

    The sup statistic covers n >= y_lo^2; the first KEPT_VIOLATIONS
    violations are kept as witnesses and all of them are counted.  Each
    witness is the first n attaining its maximum.

    The scan reads `presieve`, which must hold exactly the primes <= y_lo
    over at least [0, x_cap], or else a `Presieve` built for the scan, as
    the packed rows of 32 residues of `rough_rows`, trimmed at x_cap.  Two
    running first maxima, over the band [y_lo^2, y_hi^2) and over the
    n >= y_hi^2, give both statistics at the end; from y_hi^2 on
    both are j log(y_hi) / n, so only the survivors whose j / n reaches a
    floor need be expanded to (n, j) pairs.  The floor is a j / n some
    survivor n >= y_hi^2 attains (less 1e-13), capped at the target's
    j / n, so that every violation is expanded too.

    Bounds come from counts.  If j_end survivors lie below the cell m, the
    j_end-th lies below m, so it attains j / n > j_end / m; and every
    survivor at or past a cell n_min, up to the j_end-th, has
    j / n <= j_end / n_min.  One closure, `keep`, applies them to flat
    ascending units of `width` integers, with first cells n_min and the
    j_end-th survivor their last.  It raises the floor by the lower bounds
    j_end / (n_min + width) of the units past y_hi^2, those whose j_end
    exceeds j_head (the survivors below the first row past y_hi^2), capped
    at the target's j / n; then it keeps the units whose upper bound
    j_end / n_min reaches that floor, and those that hold an n in
    [y_lo^2, y_hi^2).  Each level calls it once, only inside the units the
    level above keeps:

    1. Blocks of SCAN_BLOCK rows (8 uint64 words, 1,920 integers on the
       wheel of 30), the whole blocks of `rough_rows`, one view of the
       presieve, a slice of _SLICE blocks at a time, in ascending order.
       Their counts are the presieve's `block_counts`, kept by the strike
       through `Presieve.advance`; a cumsum gives each block's j_end.  The
       blocks that lie wholly below y_lo^2 are dropped, and one `take`
       gathers a slice's kept blocks.
    2. Sub-blocks of 4 rows (two uint64 words), in the kept blocks, their
       running counts the block's popcounts summed in the 16-bit lanes of
       one uint64.
    3. Rows, in the kept sub-blocks, their running counts in 8-bit lanes.
       The kept rows are unpacked, and their survivors are folded into the
       maxima.

    `narrow` makes the units of levels 2 and 3 by flattening the four
    parts of each kept unit row-major, so that both their j_end and their
    first cells ascend.  The tail, trimmed at x_cap, comes last, and by
    its rows alone: the cumsum of their popcounts gives each row's j_end,
    and the rows `keep` keeps are unpacked.  It is 1 to SCAN_BLOCK rows
    past CHUNK_ROWS rows, and up to them the whole range, such as a
    `max_statistic` row's, which then asks for no block counts.  The floor
    only prunes: the maxima, witnesses and violations are those of every
    survivor, folded in ascending order.
    """
    if not 1 <= x_cap < math.inf:  # nan fails it too
        raise DomainError(f"x_cap must be finite and >= 1, got {x_cap}")
    x_cap = int(x_cap)
    if target is not None and not math.isfinite(target):
        raise DomainError(f"target must be finite, got {target}")
    if y_hi < 2:  # log(y_hi) > 0 keeps the order of j/n that of j log(y_hi)/n
        raise DomainError(f"y_hi must be >= 2, got {y_hi}")
    strike = table.primes_between(0, y_lo)     # refuses a nan y_lo and one past the table
    if not all(isinstance(y, (int, np.integer)) or isinstance(y, float) and y.is_integer()
               for y in (y_lo, y_hi)):
        raise DomainError(f"y_lo and y_hi must be integers, got y_lo={y_lo}, y_hi={y_hi}")
    if not y_hi > y_lo:
        raise DomainError(f"need y_hi > y_lo, got y_lo={y_lo}, y_hi={y_hi}")
    log_q = math.log(y_hi)
    q2 = int(y_hi) * int(y_hi)
    lo_bound = int(y_lo) * int(y_lo)
    # a survivor whose j / n is below this (less 1e-13) is no violation
    floor_cap = math.inf if target is None else target / log_q

    band = above = (-1.0, 0, 0)                # first maxima: in [y_lo^2, y_hi^2), from y_hi^2 on
    violations: list[tuple[int, int, float]] = []
    violation_count = 0

    def fold(best, ratios, ns, js):
        """`best` with the survivors (ns, js) and their ratios folded in,
        and their violations noted."""
        nonlocal violation_count
        if not ns.size:
            return best
        if target is not None:
            bad = np.flatnonzero(ratios >= target)
            violation_count += int(bad.size)
            for b in bad[: max(0, KEPT_VIOLATIONS - len(violations))]:
                violations.append((int(ns[b]), int(js[b]), float(ratios[b])))
        return _better(best, ratios, ns, js)

    if presieve is None:
        presieve = Presieve(strike, x_cap)
    elif not np.array_equal(presieve.strike, strike):
        raise DomainError(f"the presieve's primes are not the first {len(strike)}, "
                          f"the primes <= y_lo = {y_lo}")
    step, residues = presieve.step, presieve.residues
    n_one = int(residues[0])                   # the first cell of row 0
    span = SCAN_BLOCK * step                   # integers per block
    whole, tail = rough_rows(presieve, x_cap)  # a view of the whole blocks, a copy of the rest
    blocks = whole.reshape(-1, SCAN_BLOCK)
    last, r0 = len(blocks), len(whole)         # the whole blocks, and the tail's first row
    counts = presieve.block_counts()[:last] if last else np.zeros(0, dtype=np.int16)
    tail_count = np.bitwise_count(tail)
    j_tail = tail_count.astype(np.float64)     # the survivors up to each row's end, less j below
    np.cumsum(j_tail, out=j_tail)              # exact; in place: a casting cumsum is 2x slower
    head = -(-(q2 - n_one) // step)            # rows [0, head) hold an n below y_hi^2
    # the survivors below the first row past y_hi^2
    j_head = int(counts[:-(-head // SCAN_BLOCK)].sum(dtype=np.int64))
    if head > r0:
        j_head += int(j_tail[min(head - r0, len(tail)) - 1])

    def keep(j_end, n_min, width, floor):
        """The one pruning rule, on ascending units of `width` integers
        with first cells n_min and the j_end-th survivor their last.  The
        floor is raised by the lower bounds j_end / (n_min + width) of the
        units past y_hi^2, those whose j_end passes j_head, and capped at
        floor_cap; then a unit is kept if its upper bound j_end / n_min
        reaches that floor or it holds an n in [y_lo^2, y_hi^2).  Returns
        the kept units' indices and the raised floor."""
        lead = int(j_end.searchsorted(j_head, "right"))
        lower = n_min[lead:] + width           # the cells after the units past y_hi^2
        np.divide(j_end[lead:], lower, out=lower)
        floor = min(max(floor, lower.max(initial=0.0)), floor_cap)
        del lower                              # freed before the upper bounds' temporaries
        kept = j_end >= n_min * (floor * (1 - 1e-13))
        kept[slice(*n_min.searchsorted((lo_bound // width * width + n_one, q2)).tolist())] = True
        return np.flatnonzero(kept), floor

    def narrow(j_end, n_min, prefix, width, floor):
        """`keep` on the four parts of `width` integers of ascending units,
        with first cells n_min and the j_end-th survivor their last, and
        running survivor counts `prefix` (units, 4).  Flattened row-major,
        the parts' j_end and first cells ascend.  Returns the kept parts as
        flat indices into `prefix`, their j_end and n_min, and the floor."""
        js = prefix.astype(np.float64)         # the parts' j_end, exact
        js += (j_end - js[:, 3])[:, None]
        ns = n_min[:, None] + np.arange(0, 4 * width, width)
        js, ns = js.ravel(), ns.ravel()
        idx, floor = keep(js, ns, width, floor)
        return idx, js[idx], ns[idx], floor

    def expand(words, count, j_end, n_min):
        """Fold in the survivors of the ascending rows packed in `words`,
        with first cells n_min and `count` survivors each, the last of them
        the j_end-th."""
        nonlocal band, above
        cells = np.flatnonzero(np.unpackbits(words.view(np.uint8)).view(bool))
        rr = cells >> 5                        # the survivor's row
        ns = (n_min - n_one)[rr] + residues[cells & 31]   # exact in float64
        js = (j_end - np.cumsum(count))[rr] + np.arange(1, rr.size + 1)
        lo, hi = ns.searchsorted((lo_bound, q2)).tolist()
        nv, jv = ns[lo:hi], js[lo:hi]
        band = fold(band, jv * (0.5 * np.log(nv)) / nv, nv, jv)
        nv, jv = ns[hi:], js[hi:]
        above = fold(above, jv * log_q / nv, nv, jv)

    # n_first[b0 + i] - b0 span, over a slice's blocks; a float arange, as n_min
    # below: an int one multiplied by a float takes about 5x as long
    firsts = np.arange(n_one, min(_SLICE, last) * span + n_one, span, dtype=np.float64)
    floor, j = 0.0, 0
    for b0 in range(0, last, _SLICE):
        bj = counts[b0:b0 + _SLICE].astype(np.float64)   # survivors up to each block end, exact
        np.cumsum(bj, out=bj)
        bj += j
        j = int(bj[-1])
        n_first = firsts[:len(bj)] + b0 * span
        cand, floor = keep(bj, n_first, span, floor)
        cand = cand[cand >= lo_bound // span - b0]   # not wholly below y_lo^2
        if not cand.size:
            continue
        words = np.take(blocks, b0 + cand, axis=0)   # the candidate blocks' rows
        idx, j_end, n_min, floor = narrow(bj[cand], n_first[cand], sub_block_counts(words),
                                          4 * step, floor)
        words = words.reshape(-1, 4)[idx]      # the kept sub-blocks' rows
        count = np.bitwise_count(words)        # uint8; their running sums fit the 8-bit lanes
        prefix = (count.view(np.uint32) * _PREFIX8).view(np.uint8).reshape(-1, 4)
        idx, j_end, n_min, floor = narrow(j_end, n_min, prefix, step, floor)
        expand(words.ravel()[idx], count.ravel()[idx], j_end, n_min)

    # the tail, row by row
    j_tail += j                                # each row's j_end
    n_min = np.arange(r0 * step + n_one, (r0 + len(tail)) * step, step, dtype=np.float64)
    idx, _ = keep(j_tail, n_min, step, floor)
    expand(tail[idx], tail_count[idx], j_tail[idx], n_min[idx])
    rough_count = int(j_tail[-1])

    # band precedes the n >= y_hi^2: it holds the first maximum of both on a tie
    sup_best = band if band[0] >= above[0] else above
    return IntervalScan(
        y_lo=int(y_lo), y_hi=int(y_hi), x_cap=x_cap, rough_count=rough_count,
        table_max=above[0], table_witness=above[1:],
        sup_max=sup_best[0], sup_witness=sup_best[1:],
        violations=tuple(violations), violation_count=violation_count,
    )


def max_statistic(y_lo: int, y_hi: int, x_bound: int, table: PrimeTable) -> MaxStatRow:
    """Tabulated max statistic for the interval [y_lo, y_hi): the supremum of
    j log(y_hi) / n over rough n with y_hi^2 <= n < x_bound, which needs
    x_bound > y_hi^2."""
    if not x_bound > y_hi * y_hi:  # nan fails it too
        raise DomainError(f"x_bound {x_bound} must exceed y_hi^2 = {y_hi * y_hi}")
    if x_bound - 1 > DEFAULT_EXHAUSTIVE_CAP:
        raise ResourceError(f"scan to {x_bound - 1} exceeds the exhaustive cap "
                            f"{DEFAULT_EXHAUSTIVE_CAP}")
    scan = scan_rough_interval(table, y_lo, y_hi, x_bound - 1)
    return MaxStatRow(
        y_lo=int(y_lo), y_hi=int(y_hi), x_bound=int(x_bound),
        max_stat=scan.table_max, witness_n=scan.table_witness[0],
        witness_j=scan.table_witness[1],
    )
