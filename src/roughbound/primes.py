"""The library's one sieve, and the table of primes it builds.

A `Presieve` is [0, x_cap] sieved by a set of small primes: the integers up
to x_cap that are free of them, kept packed, one bit per residue of a wheel.
`_strike` is the sieve's one way to strike primes, and each caller strikes
each prime once, over its whole range: consecutive small primes in groups,
one AND with their shared periodic pattern a group, and primes from
_STRIDED on by strided slices of their 8 wheel columns.  A presieve strikes
its primes when it is built, and `Presieve.advance` strikes more into the
same bytes, so one presieve can serve scans by ever longer sets.
`rough_rows` strikes nothing: it is the one reader of a presieve's bytes,
and hands its range out as packed rows, a read-only view of its whole
blocks of SCAN_BLOCK rows and a tail of the rest, a copy trimmed at x_cap.
`build_prime_table` reads every prime of its table off it: the primes above
sqrt(limit) off a presieve by the primes below, and those, level by level,
off smaller presieves, down to one on the wheel of 1 that strikes nothing.
`phi.scan_rough_interval` streams its survivors.

A presieve also keeps its survivors <= x_cap per block of SCAN_BLOCK rows,
Phi per block, the tail included (`Presieve.block_counts`).  They are the
library's one survivor count: `phi.phi_direct` and `build_prime_table` sum
them, and the scans bound by them.  They are counted by popcount
(`sub_block_counts`) of `rough_rows` when first asked for, and kept
current by the strike itself:
striking a prime p removes exactly p m for each survivor m <= x_cap // p
(Legendre's identity Phi(N, p) = Phi(N, p-) - Phi(N / p, p-), p- the
prime before p), so `advance` takes each new prime's p m off the counts
instead of counting the whole range again.  The m come from one sorted
list of small survivors, read once off the bits; after each prime it is
cut at x_cap // p and rid of p's multiples, and so stays current by itself.

A :class:`PrimeTable` stores every prime up to a limit and nothing else: it
keeps no prefix sums, and a sum over primes is taken over a slice of the
list.  The primes are int32, 4 bytes each, which holds every prime up to
the cap 2^31; `build_prime_table` fills them in place, into one array sized
by the sum of the presieve's block counts, so that the build never holds
them twice.  A search of the table or of a slice of it passes its key as
np.int32, the table's dtype: any other key makes numpy cast the whole
array on each call.
A built table is immutable and safe to share between concurrent readers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, OutOfRangeError, ResourceError

# Guard against accidentally sieving into tens of gigabytes of primes, and
# against a presieve past [0, 2^31]: x_cap / W bytes on the wheel of W
# integers per turn, at 2^31 about 72 MB on the wheel of 30 (y >= 5), 89 MB on
# that of 6 (3 <= y < 5) and 134 MB on that of 2 (2 <= y < 3).
DEFAULT_LIMIT_CAP = 1 << 31
PRESIEVED = 4            # struck primes above the wheel kept in its cached pattern
CHUNK_ROWS = 1 << 15     # the most rows read by rows alone, with no block counts (faster on
                         # short ranges), and the rows per popcount or unpack pass: 128 KB
SCAN_BLOCK = 16          # rows per block of the block counts: 1,920 integers on the wheel of 30
_PIECE_CELLS = 1 << 15   # cells unpacked, or survivors taken off the counts, at a time: 256 KB as int64
_BYTE_PAIRS = np.uint64(0x00FF00FF00FF00FF)   # the even bytes of a uint64
_PREFIX16 = np.uint64(0x0001000100010001)     # times this, 16-bit lanes become their prefix sums


_WHEELS: dict[int, tuple[int, np.ndarray, np.ndarray, np.ndarray]] = {}
_TILE = 4096  # bytes a periodic pattern covers at least: a wheel's, and a strike's on a longer range
# From this prime on, over ranges of at least _STRIDED_BYTES bytes, strided
# columns beat an AND pass: on a 2-core Xeon VM, from 317 at 1 MB, 509 at
# 4.2 MB and 600 at 45 MB; below 256 KB the 8 slices' set-up costs more.
_STRIDED = 600
_STRIDED_BYTES = 1 << 18


def _wheel(strike) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The wheel of the struck primes among 2, 3, 5, in turns of 8 residues.

    Returns the turn width W (8, 16, 24 or 30 integers); the first 32
    residues coprime to the wheel, which span four turns; -r^-1 mod W
    indexed by r; and the packed turns (see `Presieve`) with the next PRESIEVED struck primes already
    struck, in whole periods (their product) of at least _TILE bytes in
    all, so that repeating the pattern over a range is not one copy per
    turn.  Cached per wheel and count of presieved primes.
    """
    key = min(len(strike), 3 + PRESIEVED)      # the wheel and the presieved primes
    if key not in _WHEELS:
        wheel = [int(p) for p in strike[:3]]
        w = math.prod(wheel)
        width = 8 * w // math.prod(p - 1 for p in wheel)
        residues = np.array([r for r in range(4 * width) if math.gcd(r, w) == 1], dtype=np.int64)
        neg_inv = np.array([-pow(r, -1, width) % width if math.gcd(r, width) == 1 else 0
                            for r in range(width)], dtype=np.int64)
        period = math.prod(int(p) for p in strike[3:key])
        pattern = np.full(period * max(1, _TILE // period), 0xFF, dtype=np.uint8)
        _strike(pattern, strike[3:key], (width, residues, neg_inv))
        _WHEELS[key] = (width, residues, neg_inv, pattern)
    return _WHEELS[key]


def _strike(turns: np.ndarray, ps: np.ndarray, wheel: tuple) -> None:
    """Clear the multiples of each prime of `ps`, ascending, from the packed
    `turns`, which start at 0, on `wheel` (a `_wheel` tuple).

    The multiples of p in column c are the turns s_c + k p, so p bytes with
    the bits of its 8 multiples cleared repeat along the range.  Consecutive
    primes whose product P is at most a sixteenth of the range make one
    group: their patterns are ANDed into one of P bytes, repeated to at
    least _TILE bytes (or the range, if shorter) so that a short period is
    not one numpy inner loop every P bytes, and the group is one AND over
    the range.  A prime from _STRIDED on, over a range of at least
    _STRIDED_BYTES, clears its 8 columns by strided slices instead: 8 n / p
    bytes touched, not n.
    """
    if not len(ps):
        return
    width, residues, neg_inv = wheel[:3]
    col = ps[:, None]
    inv = (1 + col * neg_inv[col % width]) // width   # width^-1 mod p
    starts = (-residues[:8] * inv) % col   # turn of the first multiple per column
    n, tile = len(turns), min(_TILE, len(turns))
    grouped = int(ps.searchsorted(np.int32(_STRIDED))) if n >= _STRIDED_BYTES else len(ps)
    ps, starts = ps.tolist(), starts.tolist()
    i = 0
    while i < grouped:
        period, j = ps[i], i + 1
        while j < grouped and period * ps[j] <= n >> 4:
            period *= ps[j]
            j += 1
        pattern = None
        for p, first in zip(ps[i:j], starts[i:j]):
            one = bytearray(b"\xff") * p
            for c, s in enumerate(first):
                one[s] &= ~(0x80 >> c)
            if pattern is None:   # whole periods, at least `tile` bytes
                pattern = np.frombuffer(one * (period // p * -(-tile // period)), dtype=np.uint8)
            else:
                rows = pattern.reshape(-1, p)
                rows &= np.frombuffer(one, dtype=np.uint8)
        whole = n - n % len(pattern)
        if whole:
            rows = turns[:whole].reshape(-1, len(pattern))
            rows &= pattern
        tail = turns[whole:]
        tail &= pattern[:n - whole]
        i = j
    for p, first in zip(ps[grouped:], starts[grouped:]):
        for c, s in enumerate(first):
            column = turns[s::p]
            column &= ~(0x80 >> c) & 0xFF


class Presieve:
    """[0, x_cap] sieved by the primes `strike`, read out by `rough_rows`.

    `strike` must be the primes up to some bound, ascending; it may be empty.
    The survivors are kept packed, one bit per residue of the wheel of the
    struck primes among 2, 3, 5 (see `_wheel`): byte i of `turns` is turn i
    (the integers i*W + residues[c]), column c in bit 7 - c, the byte order
    of `np.packbits` on a C-order mask.  A row of `rough_rows` is four
    turns: `step` = 4W integers, and `residues`, the 32 residues of its
    cells in ascending order.  That is x_cap / W bytes, W = 30,
    24, 16 or 8 on the wheels of 30, 6, 2 and 1: the wheel's cached pattern
    repeated, then struck by the rest of `strike` in place.  `advance` strikes more
    primes into the same bytes.  0 is never set.  The bits past x_cap, up
    to the end of the last row of 32 residues, are not trimmed; `rough_rows`
    trims them off its tail.  A negative or non-finite x_cap raises
    DomainError, and one past DEFAULT_LIMIT_CAP ResourceError, before
    anything is allocated.
    """

    def __init__(self, strike: np.ndarray, x_cap: int):
        if not 0 <= x_cap < math.inf:  # nan fails it too
            raise DomainError(f"a presieve needs a finite x_cap >= 0, got {x_cap}")
        if x_cap > DEFAULT_LIMIT_CAP:
            raise ResourceError(f"a presieve of [0, {x_cap}] exceeds the cap {DEFAULT_LIMIT_CAP}")
        self.x_cap = int(x_cap)
        width, self.residues, _, pattern = _wheel(strike)
        self.step = 4 * width                  # integers per row of 32 residues
        rows = -(-(self.x_cap + 1) // self.step)   # the whole rows `rough_rows` reads
        self.turns = np.concatenate((pattern,) * -(-4 * rows // len(pattern)))[:4 * rows]
        if not len(strike):
            self.turns[0] &= 0x7F  # 0 is not counted; 1 survives every strike
        self.strike = strike[:3 + PRESIEVED]
        self._counts = None   # survivors per block, once `block_counts` is asked
        self._small = None    # the survivors m by which `advance` takes p m off the counts
        self.advance(strike)

    def block_counts(self) -> np.ndarray:
        """The survivors <= x_cap per block of SCAN_BLOCK rows of
        `rough_rows(self, self.x_cap)`, the tail's last block short (as if
        zero padded), as a read-only int16 array: at most 512 a block.
        Counted on the first call, the whole blocks by `sub_block_counts`,
        CHUNK_ROWS rows at a time, and the tail by its rows' popcounts
        summed per block, which costs a small presieve a few numpy calls;
        kept current by `advance` from then on."""
        if self._counts is None:
            whole, tail = rough_rows(self, self.x_cap)
            starts = np.arange(0, len(tail), SCAN_BLOCK)   # the tail's blocks
            counts = np.empty(len(whole) // SCAN_BLOCK + len(starts), dtype=np.int16)
            for r in range(0, len(whole), CHUNK_ROWS):
                end = min(r + CHUNK_ROWS, len(whole))
                counts[r // SCAN_BLOCK:end // SCAN_BLOCK] = sub_block_counts(whole[r:end])[:, 3]
            np.add.reduceat(np.bitwise_count(tail), starts, dtype=np.int16,
                            out=counts[len(whole) // SCAN_BLOCK:])
            self._counts = counts
        counts = self._counts.view()
        counts.flags.writeable = False
        return counts

    def advance(self, strike: np.ndarray) -> None:
        """Strike, in place, the primes of `strike` beyond this presieve's
        own, which must be its first primes, on the same wheel, and take
        what they strike off the block counts if these are kept; refused,
        the bytes and the counts stay as they are."""
        if strike[:len(self.strike)].tolist() != self.strike.tolist():
            raise DomainError("the presieve's primes are not the first of the struck primes")
        if min(len(strike), 3) != min(len(self.strike), 3):
            raise DomainError(f"a presieve on the wheel of {self.strike.tolist()} cannot "
                              f"advance to the wheel of {strike[:3].tolist()}")
        new = strike[len(self.strike):]
        if self._counts is not None and len(new):
            self._uncount(new.tolist())
        _strike(self.turns, new, _wheel(strike))
        self.strike = strike

    def _uncount(self, ps: list[int]) -> None:
        """Take off the block counts the survivors that the primes `ps`,
        ascending and above the presieve's own, strike.  Striking p removes
        p m for each survivor m <= x_cap // p of the primes below p, and
        nothing else: each p m is taken off its block's count.  The m run
        over one sorted list of the survivors up to x_cap // ps[0], read
        once off the bytes; after each p it is cut at x_cap // p, which no
        later prime reaches past, and p's multiples, struck by p, are
        deleted from it by position: they are the p m for the m of the list
        up to its last // p, with no pass over the rest.  With a first new
        prime below 64 the list would rival the presieve itself, five times
        its bytes with p = 7: the counts are dropped instead, to be counted
        afresh when next asked."""
        span = SCAN_BLOCK * self.step
        if self._small is None:
            if ps[0] < 64:
                self._counts = None
                return
            # sized by the counts of the blocks that hold them; below x_cap / 64 < 2^31
            small = np.empty(int(self._counts[:self.x_cap // ps[0] // span + 1].sum(dtype=np.int64)),
                             dtype=np.int32)
            end = _write_survivors(self, self.x_cap // ps[0], small, _PIECE_CELLS // 32)
            self._small = small[:end]
        for p in ps:   # int32 keys: an int64 key would cast the whole list
            small = self._small[:int(self._small.searchsorted(np.int32(self.x_cap // p), "right"))]
            for lo in range(0, len(small), _PIECE_CELLS):
                np.subtract.at(self._counts,
                               np.multiply(small[lo:lo + _PIECE_CELLS], p, dtype=np.int64) // span,
                               np.int16(1))
            if len(small):   # p's multiples p m, m <= small[-1] // p: each m is a survivor too
                m = small[:int(small.searchsorted(small[-1] // np.int32(p), "right"))]
                small = np.delete(small, small.searchsorted(m * np.int32(p)))
            self._small = small


def sub_block_counts(words: np.ndarray) -> np.ndarray:
    """The running survivor counts of the four sub-blocks of 4 rows in each
    block of SCAN_BLOCK rows of the packed rows `words` (see `rough_rows`),
    as (blocks, 4) uint16: column k counts sub-blocks 0 to k, and column 3
    the whole block.  A block's 8 uint64 words have popcounts of at most 64,
    which are the 8 bytes of one uint64; byte pairs are added into four
    16-bit lanes, and the multiply turns these into their prefix sums."""
    v = np.bitwise_count(words.view(np.uint64)).view(np.uint64).ravel()
    v = (v & _BYTE_PAIRS) + (v >> 8 & _BYTE_PAIRS)   # four sums, each at most 128
    v *= _PREFIX16
    return v.view(np.uint16).reshape(-1, 4)


def rough_rows(presieve: Presieve, x_cap: int) -> tuple[np.ndarray, np.ndarray]:
    """[0, x_cap] sieved by the primes of `presieve`: packed uint32 rows `(whole, tail)`.

    Row i is the four turns (see `Presieve`) 4i to 4i + 3, so
    `np.unpackbits(rows.view(np.uint8))` gives its 32 cells in the order of
    `presieve.residues`, and cell c of row i stands for i * step +
    residues[c], step = `presieve.step`.  A cell is set if that integer is at
    most x_cap and has no factor in `presieve.strike`; 0 is never set, 1
    always is.  Of the R rows through x_cap's, `whole` is a read-only view of
    the presieve's first L, whole blocks of SCAN_BLOCK rows, and `tail` a
    fresh array of rows [L, R) with the cells past x_cap cleared: L = 0 up
    to CHUNK_ROWS rows, and past them the most blocks that leave `tail` 1 to
    SCAN_BLOCK rows.  x_cap is truncated to an integer, as `Presieve` does; a
    negative or non-finite x_cap, and a presieve whose range stops below
    x_cap, are refused.
    """
    if not 0 <= x_cap < math.inf:  # nan fails it too
        raise DomainError(f"rows need a finite x_cap >= 0, got {x_cap}")
    x_cap = int(x_cap)
    if presieve.x_cap < x_cap:
        raise DomainError(f"the presieve stops at {presieve.x_cap}, below x_cap {x_cap}")
    step = presieve.step
    rows = x_cap // step + 1                   # the rows that hold [0, x_cap]
    last = (rows - 1) // SCAN_BLOCK * SCAN_BLOCK if rows > CHUNK_ROWS else 0
    whole = presieve.turns[:4 * last].view(np.uint32)
    whole.flags.writeable = False
    size = x_cap + 1 - last * step             # the tail's integers, and its cells:
    cut = size // step * 32 + int(np.searchsorted(presieve.residues, size % step))
    tail = np.zeros(4 * (rows - last), dtype=np.uint8)
    tail[:cut >> 3] = presieve.turns[4 * last:4 * last + (cut >> 3)]
    if cut & 7:   # a byte cut at x_cap, masked as a scalar: on a one-byte slice, `&=` is 10x slower
        tail[cut >> 3] = presieve.turns[4 * last + (cut >> 3)] & (0xFF00 >> (cut & 7) & 0xFF)
    return whole, tail.view(np.uint32)


class PrimeTable:
    """Immutable store of the primes <= limit, as one int32 array `primes`:
    4 bytes a prime, and int32 holds every prime up to DEFAULT_LIMIT_CAP =
    2^31, the largest 2^31 - 1.

    Every lookup (`pi`, `primes_between`, `next_prime`) counts the primes
    <= t as the primes <= floor(t), searched with an np.int32 key.  A
    search of the table, or of a slice of it, must pass its key in the
    table's dtype: with a Python int, an int64 or a float key numpy casts
    the whole array to the key's type on each call, 14.9 MB at 3e7.
    A nan key raises DomainError.
    """

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = int(limit)
        self.primes = primes
        self.primes.setflags(write=False)

    # -- queries ---------------------------------------------------------

    def _count_upto(self, t) -> int:
        if t != t:  # nan compares false with every bound below
            raise DomainError("query at nan")
        if t >= self.limit:  # also +inf and ints beyond int64
            return len(self.primes)
        if t < 2:
            return 0
        return int(self.primes.searchsorted(np.int32(math.floor(t)), "right"))   # below 2^31

    def _check_range(self, t) -> None:
        if t > self.limit:
            raise OutOfRangeError(f"query at {t} exceeds sieve limit {self.limit}")

    def pi(self, t) -> int:
        """Number of primes <= t."""
        self._check_range(t)
        return self._count_upto(t)

    def primes_between(self, lo, hi) -> np.ndarray:
        """Primes p with lo < p <= hi, as a read-only array view."""
        self._check_range(hi)
        i0 = self._count_upto(lo)
        i1 = self._count_upto(hi)
        return self.primes[i0:i1]

    def next_prime(self, t) -> int:
        """Smallest prime > t."""
        i = self._count_upto(t)
        if i >= len(self.primes):
            raise OutOfRangeError(f"no prime above {t} within limit {self.limit}")
        return int(self.primes[i])


def _write_survivors(presieve: Presieve, x_cap: int, out: np.ndarray,
                     piece: int = CHUNK_ROWS) -> int:
    """Write the survivors of `presieve` up to x_cap into `out`, ascending
    from its start, and return how many: one piece of at most `piece` rows
    of `rough_rows`'s `whole`, then `tail`, unpacked at a time, so that
    nothing but `out` grows with the range."""
    whole, tail = rough_rows(presieve, x_cap)
    end = 0
    for first, rows in ((0, whole), (len(whole), tail)):
        for r in range(0, len(rows), piece):
            cells = np.flatnonzero(np.unpackbits(rows[r:r + piece].view(np.uint8)).view(bool))
            ns = cells >> 5
            ns += first + r
            ns *= presieve.step
            ns += presieve.residues[cells & 31]
            out[end:end + len(ns)] = ns
            end += len(ns)
    return end


def _primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, as int32: the primes <= sqrt(limit) by this
    function, then the survivors above them, read off a `Presieve` of
    [0, limit] by those primes.  Below 4 there are no primes <= sqrt(limit),
    and the presieve on the wheel of 1 strikes nothing.

    The table is filled in place: one int32 array, sized by the sum of the
    presieve's block counts, takes the survivors piece by piece after room
    for the small primes, so that the build holds the primes once, beside
    the presieve, its block counts and one piece.  The first survivor is
    1, which is no prime: the small primes are written one cell to the
    right of that room, ending over the 1, and the table is the array
    from its second cell."""
    root = math.isqrt(limit)
    small = _primes_upto(root) if root >= 2 else np.zeros(0, dtype=np.int32)
    presieve = Presieve(small, limit)
    survivors = int(presieve.block_counts().sum(dtype=np.int64))
    primes = np.empty(len(small) + survivors, dtype=np.int32)
    _write_survivors(presieve, limit, primes[len(small):])
    primes[1:len(small) + 1] = small
    return primes[1:]


def build_prime_table(limit: int) -> PrimeTable:
    """All primes <= limit, every one read off the library's one sieve (see
    `_primes_upto`).  A finite float limit is truncated to an int, as
    `Presieve` does.  A limit below 2 or nan raises DomainError, and one
    past DEFAULT_LIMIT_CAP ResourceError, before anything is allocated."""
    if not limit >= 2:  # nan fails it too
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > DEFAULT_LIMIT_CAP:  # before the presieves of sqrt(limit) and of limit
        raise ResourceError(f"sieve limit {limit} exceeds the cap {DEFAULT_LIMIT_CAP}")
    limit = int(limit)
    return PrimeTable(limit, _primes_upto(limit))


def mertens_product(table: PrimeTable, y) -> float:
    """Product of (1 - 1/p) over primes p <= y.

    Factors are multiplied in ascending-prime order for determinism.
    """
    if not y >= 2:
        raise DomainError(f"mertens_product needs y >= 2, got {y}")
    ps = table.primes_between(0, y)
    # multiply.reduce walks the array left to right: ascending primes.
    return float(np.multiply.reduce(1.0 - 1.0 / ps.astype(np.float64)))
