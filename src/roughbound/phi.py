"""Exact rough-number counting by three independent methods, plus interval scans.

Phi(x, y) is the number of integers in [1, x] with no prime factor <= y
(1 is always counted).  `phi_direct` counts the survivors of the library's
one sieve, a `primes.Presieve` of [0, x] read out by `primes.rough_chunks`
(CHUNK_ROWS rows of 32 bits at a time), or the count can be reproduced by
full inclusion-exclusion (`phi_legendre`) and, for y^2 <= x < y^3, by the
prime-pair identity (`phi_two_prime`).  The interval scans read the same
chunks on two levels.  Popcounts of blocks of SCAN_BLOCK rows over the whole
range give bj[b], the survivors up to the end of block b.  The bj[b]-th
survivor lies below the next block's first cell n_first[b + 1], so it
attains j / n > bj[b] / n_first[b + 1], a lower bound; no survivor of block
b exceeds bj[b] / n_first[b], an upper bound.  Only inside the blocks whose
upper bound reaches the best lower bound are the rows counted and bounded
the same way, and only the rows that can hold the interval max statistics
used by the verification pipeline, or a violation of its target, are
expanded to (n, index) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError
from .primes import CHUNK_ROWS, DEFAULT_LIMIT_CAP, SCAN_BLOCK, Presieve, PrimeTable, rough_chunks

DEFAULT_EXHAUSTIVE_CAP = 30_000_000
LEGENDRE_BUDGET = 4_000_000  # memo entries phi_legendre may hold
KEPT_VIOLATIONS = 64     # violation witnesses a scan keeps; the rest are only counted
_BYTE_LANES = np.uint64(0x00FF00FF00FF00FF)


def phi_direct(x: int, y: float, table: PrimeTable, *,
               cap: int = DEFAULT_EXHAUSTIVE_CAP) -> int:
    """Exact Phi(x, y): the survivors of a `Presieve` of [0, x] by the primes
    <= y, each struck once over the whole range, read out by `rough_chunks`
    and counted by popcount.  The presieve takes x / 30 bytes, x / 24 for
    3 <= y < 5 and x / 16 for 2 <= y < 3.  x must be at most `cap`, which
    counts only up to the sieve's ceiling DEFAULT_LIMIT_CAP.  Degenerate
    cases: Phi(x, y) = floor(x) for y < 2 and Phi(0, y) = 0."""
    x = int(x)
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
    presieve = Presieve(table.primes_between(0, min(y, x)), x)
    return sum(int(np.bitwise_count(rows).sum()) for _, rows in rough_chunks(presieve, x))


def phi_legendre(x: int, y: float, table: PrimeTable) -> int:
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
    ps = [int(p) for p in table.primes_between(0, min(y, x))]
    memo: dict[tuple[int, int], int] = {}

    def rec(n: int, a: int) -> int:
        if a == 0:
            return n
        if ps[a - 1] >= n:
            # every prime <= n is among the first a primes: only 1 survives
            return 1
        key = (n, a)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(memo) >= LEGENDRE_BUDGET:
            raise ResourceError(f"inclusion-exclusion memo exceeded budget {LEGENDRE_BUDGET}")
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
    quotients = x // table.primes_between(y, root)   # none when no prime lies in (y, sqrt(x)]
    return table.pi(x) - m + int(np.sum(np.searchsorted(table.primes, quotients, side="right")))


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


def _block_counts(words: np.ndarray) -> np.ndarray:
    """Survivors per block of the packed rows `words`, SCAN_BLOCK uint32
    rows a block.  A block's 8 uint64 words have popcounts of at most 64,
    which are the 8 bytes of one uint64; they are added in lanes, byte pairs
    into 16-bit lanes and those into the low 16 bits."""
    v = np.bitwise_count(words.view(np.uint64)).view(np.uint64).ravel()
    v = (v & _BYTE_LANES) + (v >> 8 & _BYTE_LANES)   # four sums, each at most 128
    v += v >> 16
    return ((v + (v >> 32)) & 0xFFFF).view(np.int64)


def scan_rough_interval(table: PrimeTable, y_lo: int, y_hi: int, x_cap: int, *,
                        target: float | None = None,
                        presieve: Presieve | None = None) -> IntervalScan:
    """Stream y_lo-rough integers n <= x_cap with their 1-based index j,
    for y_lo < y_hi.

    The sup statistic covers n >= y_lo^2; the first KEPT_VIOLATIONS
    violations are kept as witnesses and all of them are counted.  Each
    witness is the first n attaining its maximum.

    The scan reads `presieve`, which must hold exactly the primes <= y_lo
    over at least [0, x_cap], or else a `Presieve` built for the scan, in
    the chunks of packed rows of 32 residues of `rough_chunks`, trimmed at
    x_cap.  Two running first maxima, over the band [y_lo^2, y_hi^2) and
    over the n >= y_hi^2, give both statistics at the end; from y_hi^2 on
    both are j log(y_hi) / n, so only the survivors whose j / n reaches a
    floor need be expanded to (n, j) pairs.  The floor is a j / n some
    survivor n >= y_hi^2 attains (less 1e-13), capped at the target's
    j / n, so that every violation is expanded too.

    Bounds come from counts.  If j_end survivors lie below the cell m, the
    j_end-th lies below m, so it attains j / n > j_end / m; and every
    survivor at or past a cell n_min, up to the j_end-th, has
    j / n <= j_end / n_min.  The scan counts on two levels:

    1. Blocks of SCAN_BLOCK rows (8 uint64 words, 1,920 integers on the
       wheel of 30), a chunk at a time: bj[b], the survivors up to the end
       of block b, by popcount, and n_first[b], the block's first cell.
       The bj[b]-th survivor lies in block b or below, so below
       n_first[b + 1]: bj[b] / n_first[b + 1] is a lower bound on the j / n
       it attains.  It lies at or past y_hi^2 once bj[b] exceeds the count
       of the blocks that hold an n below y_hi^2.  The largest such bound
       over the whole range is the floor.  A block is a candidate if it
       holds an n in [y_lo^2, y_hi^2) or if its upper bound
       bj[b] / n_first[b] reaches the floor.
    2. Rows, only in the candidate blocks: the same two bounds per row,
       with the floor raised by the rows' lower bounds.  The rows that hold
       an n in [y_lo^2, y_hi^2) and those whose upper bound reaches the
       floor are unpacked, and their survivors are folded into the maxima.

    A range within one chunk, such as a `max_statistic` row, goes straight
    to the row level over all its rows: its block level would cost more than
    it saves (about 70 us a scan; see the README).
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
    rows = x_cap // step + 1                   # the rows that hold [0, x_cap]
    chunks = rough_chunks(presieve, x_cap)

    def expand(words, n_min, count, j_end, j_head, floor):
        """The row level: fold in the survivors of the ascending rows packed
        in `words`, with first cells n_min and `count` survivors each, the
        last of them the j_end-th, if the row can reach the floor or holds
        an n in [y_lo^2, y_hi^2).  A row whose j_end passes j_head ends at
        or past y_hi^2.  Returns the raised floor."""
        nonlocal band, above
        lead = int(j_end.searchsorted(j_head, "right"))
        floor = min(max(floor, (j_end[lead:] / (n_min[lead:] + step)).max(initial=0.0)),
                    floor_cap)
        keep = j_end >= n_min * (floor * (1 - 1e-13))
        keep[slice(*n_min.searchsorted((lo_bound // step * step + n_one, q2)).tolist())] = True
        idx = np.flatnonzero(keep)
        cells = np.flatnonzero(np.unpackbits(words[idx].view(np.uint8)).view(bool))
        rr = cells >> 5                        # the survivor's row, as an index into idx
        ns = (n_min[idx] - n_one)[rr] + residues[cells & 31]   # exact in float64
        js = (j_end[idx] - np.cumsum(count[idx], dtype=np.int64))[rr] + np.arange(1, rr.size + 1)
        lo, hi = ns.searchsorted((lo_bound, q2)).tolist()
        nv, jv = ns[lo:hi], js[lo:hi]
        band = fold(band, jv * (0.5 * np.log(nv)) / nv, nv, jv)
        nv, jv = ns[hi:], js[hi:]
        above = fold(above, jv * log_q / nv, nv, jv)
        return floor

    if rows <= CHUNK_ROWS:                     # one chunk: no block level, see above
        words = next(chunks)[1][:rows]         # less its padding
        count = np.bitwise_count(words)
        j_end = np.cumsum(count, dtype=np.int64)
        n_min = np.arange(n_one, rows * step, step, dtype=np.float64)
        head = min(rows, -(-(q2 - n_one) // step))   # rows [0, head) hold an n below y_hi^2
        expand(words, n_min, count, j_end, int(j_end[head - 1]), 0.0)
        rough_count = int(j_end[-1])
    else:
        span = SCAN_BLOCK * step               # integers per block
        # n_first[b0 + i] - b0 span, over the blocks of a chunk and the next one's first
        firsts = np.arange(CHUNK_ROWS // SCAN_BLOCK + 1) * float(span) + n_one
        row_firsts = np.arange(SCAN_BLOCK) * float(step)           # a row's n_min - its block's
        head = -(-(q2 - n_one) // span)        # blocks [0, head) hold an n below y_hi^2, head >= 1
        band_lo = lo_bound // span             # the first block that holds an n >= y_lo^2

        # each chunk with the survivors below it and at least the upper bound of each of its blocks
        counted = []
        rough_count = j_head = 0
        floor = 0.0
        for first, words in chunks:
            b0 = first // SCAN_BLOCK
            bj = np.cumsum(_block_counts(words)) + rough_count
            n_first = firsts[:len(bj) + 1] + b0 * span
            lower = bj / n_first[1:]
            # upper / lower = n_first[b + 1] / n_first[b], largest at the chunk's first block;
            # a chunk that holds a block below y_hi^2 is always read
            top = lower.max() * n_first[1] / n_first[0] if b0 >= head else math.inf
            counted.append((b0, words, rough_count, top))
            rough_count = int(bj[-1])
            if b0 < head <= b0 + len(bj):
                j_head = int(bj[head - 1 - b0])
            if b0 + len(bj) >= head:           # the blocks whose count passes j_head
                floor = max(floor, lower[bj.searchsorted(j_head, "right"):].max(initial=0.0))
        floor = min(floor, floor_cap)

        for b0, words, j0, top in counted:
            reach = floor * (1 - 1e-13)
            if top < reach:
                continue
            # the chunk's counts again, read only for a chunk with a candidate
            bj = np.cumsum(_block_counts(words)) + j0
            n_first = firsts[:len(bj)] + b0 * span
            candidate = bj >= n_first * reach
            candidate[max(0, band_lo - b0):max(0, head - b0)] = True
            cand = np.flatnonzero(candidate)
            words = words.reshape(-1, SCAN_BLOCK)[cand].ravel()
            count = np.bitwise_count(words)
            j_end = np.cumsum(count, dtype=np.int64)
            j_end += np.repeat(bj[cand] - j_end[SCAN_BLOCK - 1::SCAN_BLOCK], SCAN_BLOCK)
            n_min = (n_first[cand, None] + row_firsts).ravel()
            floor = expand(words, n_min, count, j_end, j_head, floor)

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
