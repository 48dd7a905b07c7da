"""The library's one sieve, and the table of primes it builds.

`rough_segments` is a segmented mod-30 wheel sieve: it marks the integers up
to a cap that are free of a given set of small primes, one segment of
ROUGH_SEGMENT bits at a time, and is the only sieve over segments.  Every
array of the sieve is packed, one bit per wheel residue, and `_strike` is its
one way to strike a prime.  Each segment starts as a copy of a packed
source: the wheel's cached periodic pattern, or a `Presieve`, a range struck
once by the first primes of the set, which scans by the same or longer sets
can share and which `Presieve.advance` extends in place.  `build_prime_table`
reads the primes above sqrt(limit) off it, `phi.phi_direct` counts its
survivors and `phi.scan_rough_interval` streams them.

A :class:`PrimeTable` stores every prime up to a limit and nothing else: it
keeps no prefix sums, and a sum over primes is taken over a slice of the
list.  A built table is immutable and safe to share between concurrent
readers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, OutOfRangeError, ResourceError

# Guard against accidentally sieving into tens of gigabytes of primes.
DEFAULT_LIMIT_CAP = 1 << 31
ROUGH_SEGMENT = 1 << 20  # residues (bits) per segment of `rough_segments`
PRESIEVED = 4            # struck primes above the wheel kept in its cached pattern


def _simple_sieve(n: int) -> np.ndarray:
    """All primes <= n by a plain in-memory sieve (used for base primes)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


_WHEELS: dict[int, tuple[int, int, np.ndarray, np.ndarray, np.ndarray, int]] = {}


def _wheel(strike, x_cap: int = 0) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray, int]:
    """The wheel of the struck primes among 2, 3, 5, in turns of 8 residues.

    Returns the wheel modulus w; the turn width W (8, 16, 24 or 30 integers);
    the first 32 residues coprime to w, which span four turns; -r^-1 mod W
    indexed by r; and the packed turns (see `Presieve`) with the next
    PRESIEVED struck primes already struck, periodic with `period` turns
    (their product).  Turn i, column c of a segment starting at base stands
    for base + i*W + residues[c].  Cached per wheel; a longer sieve grows the
    pattern to the period plus the turns of one ROUGH_SEGMENT.
    """
    key = min(len(strike), 3 + PRESIEVED)      # the wheel and the presieved primes
    if key not in _WHEELS:
        wheel = [int(p) for p in strike[:3]]
        w = math.prod(wheel)
        width = 8 * w // math.prod(p - 1 for p in wheel)
        residues = np.array([r for r in range(4 * width) if math.gcd(r, w) == 1], dtype=np.int64)
        neg_inv = np.array([-pow(r, -1, width) % width if math.gcd(r, width) == 1 else 0
                            for r in range(width)], dtype=np.int64)
        _WHEELS[key] = (w, width, residues, neg_inv, np.empty(0, dtype=np.uint8),
                        math.prod(int(p) for p in strike[3:key]))
    w, width, residues, neg_inv, pattern, period = _WHEELS[key]
    turns = period + min(ROUGH_SEGMENT // 8, x_cap // width + 4)
    if len(pattern) < turns:
        pattern = np.full(turns, 0xFF, dtype=np.uint8)
        _strike(pattern, strike[3:key], _WHEELS[key], 0)
        _WHEELS[key] = (w, width, residues, neg_inv, pattern, period)
    return _WHEELS[key]


def wheel_row(strike) -> tuple[int, np.ndarray]:
    """The layout of a `rough_segments` row: the integers one row spans, and
    the 32 residues of its bits."""
    width, residues = _wheel(strike)[1:3]
    return 4 * width, residues


_TILE = 4096  # bytes a strike's periodic pattern is repeated to, at most


def _strike(turns: np.ndarray, ps: np.ndarray, wheel: tuple, first_turn: int) -> None:
    """Clear the multiples of each prime of `ps` from the packed `turns`,
    which start at turn `first_turn` of `wheel` (a `_wheel` tuple).

    A prime p is one AND with a periodic pattern: p bytes with the bits of
    its 8 multiples cleared, repeated to about _TILE bytes so that a short
    period is not one numpy inner loop every p bytes.
    """
    _, width, residues, neg_inv, *_ = wheel
    col = ps[:, None]
    inv = (1 + col * neg_inv[col % width]) // width   # width^-1 mod p
    starts = (-residues[:8] * inv - first_turn) % col  # turn of the first multiple per column
    n = len(turns)
    for p, first in zip(ps.tolist(), starts.tolist()):
        pattern = bytearray(b"\xff") * p
        for c, s in enumerate(first):
            pattern[s] &= ~(0x80 >> c)
        pattern = np.frombuffer(pattern * max(1, min(_TILE, n) // p), dtype=np.uint8)
        whole = n - n % len(pattern)
        if whole:
            rows = turns[:whole].reshape(-1, len(pattern))
            rows &= pattern
        tail = turns[whole:]
        tail &= pattern[:n - whole]


def _extends(strike: np.ndarray, struck: np.ndarray) -> bool:
    """Whether `struck` are the first primes of `strike`."""
    return len(struck) <= len(strike) and np.array_equal(struck, strike[:len(struck)])


class Presieve:
    """[0, x_cap] sieved by the primes `strike`, for `rough_segments` to start
    segments of a sieve by more primes from.

    The survivors are kept packed, one bit per residue of the wheel of 30:
    byte i of `turns` is turn i (the integers 30i + residues[c]), column c
    in bit 7 - c, the byte order of `np.packbits` on a C-order mask.  That
    is x_cap / 30 bytes: the wheel's periodic pattern repeated, then struck
    by the primes above it in place.  `advance` strikes more primes into
    the same bytes, so one presieve can serve scans by ever longer sets.
    The bits past x_cap are not trimmed; a segment trims its own tail.
    """

    def __init__(self, strike: np.ndarray, x_cap: int):
        if len(strike) < 3 + PRESIEVED:
            raise DomainError(f"a presieve strikes at least the {3 + PRESIEVED} primes up to 17, "
                              f"got {len(strike)}")
        self.x_cap = int(x_cap)
        _, width, _, _, pattern, period = _wheel(strike)
        rows = -(-(self.x_cap + 1) // (4 * width))   # the whole rows `rough_segments` reads
        self.turns = np.resize(pattern[:period], 4 * rows)
        self.strike = strike[:3 + PRESIEVED]
        self.advance(strike)

    def advance(self, strike: np.ndarray) -> None:
        """Strike, in place, the primes of `strike` beyond this presieve's
        own, which must be its first primes; refused, the bytes stay as
        they are."""
        if not _extends(strike, self.strike):
            raise DomainError("the presieve's primes are not the first of the struck primes")
        _strike(self.turns, strike[len(self.strike):], _wheel(strike), 0)
        self.strike = strike


def rough_segments(strike: np.ndarray, x_cap: int, presieve: Presieve | None = None):
    """Sieve [0, x_cap] by the primes `strike`, a segment at a time.

    `strike` must be the primes up to some bound, ascending.  Yields, for
    each segment in ascending order, its base and a fresh uint32 array of
    packed rows: row i is the four turns (see `Presieve`) 4i to 4i + 3, so
    `np.unpackbits(rows.view(np.uint8))` gives its 32 cells in the order of
    the residues of `wheel_row`, and cell c of row i stands for
    base + i*step + residues[c].  A cell is set if that integer is at most
    x_cap and has no factor in `strike`.  0 is never set; 1 always is.

    A segment covers ROUGH_SEGMENT residues coprime to the wheel of the
    struck primes among 2, 3, 5 (see `_wheel`), one bit each.  It starts as
    a copy of a packed source, and `_strike` strikes every prime the source
    has not struck.  The source is the wheel's periodic
    pattern, or `presieve` if given: its primes must be the first of
    `strike`, and its range must reach x_cap.
    """
    wheel = _wheel(strike, x_cap)
    w, width, residues, _, source, period = wheel
    struck = min(len(strike), 3 + PRESIEVED)   # the primes the source has struck
    if presieve is not None:
        struck = len(presieve.strike)
        if not _extends(strike, presieve.strike):
            raise DomainError("the presieve's primes are not the first of the struck primes")
        if presieve.x_cap < x_cap:
            raise DomainError(f"the presieve stops at {presieve.x_cap}, below x_cap {x_cap}")
        # every segment starts within the presieve, so `% period` leaves its turn as is
        source, period = presieve.turns, len(presieve.turns)
    step = 4 * width                           # integers per row of 32 residues
    span = ROUGH_SEGMENT // 8 * width
    for base in range(0, x_cap + 1, span):
        size = min(span, x_cap + 1 - base)
        start = base // width % period
        turns = source[start:start + -(-size // step) * 4].copy()
        _strike(turns, strike[struck:], wheel, base // width)
        cut = size // step * 32 + int(np.searchsorted(residues, size % step))  # first cell past x_cap
        turns[cut >> 3:(cut >> 3) + 1] &= 0xFF00 >> (cut & 7) & 0xFF
        turns[(cut >> 3) + 1:] = 0
        if base == 0 and w == 1:
            turns[0] &= 0x7F  # 0 is not counted; 1 survives every strike
        yield base, turns.view(np.uint32)


class PrimeTable:
    """Immutable store of the primes <= limit.

    Every lookup (`pi`, `power_sum`, `primes_between`, `next_prime`) counts
    the primes <= t as the primes <= floor(t), searched with an int key: a
    float key would make numpy cast the whole table to float64 on each call.
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
        return int(np.searchsorted(self.primes, math.floor(t), side="right"))

    def _check_range(self, t) -> None:
        if t > self.limit:
            raise OutOfRangeError(f"query at {t} exceeds sieve limit {self.limit}")

    def pi(self, t) -> int:
        """Number of primes <= t."""
        self._check_range(t)
        return self._count_upto(t)

    def power_sum(self, k: int, lo, t) -> float:
        """Sum of (1/p)^k over primes lo < p <= t, for k in 1..4."""
        if k not in (1, 2, 3, 4):
            raise DomainError(f"power_sum supports k in 1..4, got {k}")
        self._check_range(t)
        i0 = self._count_upto(lo)
        i1 = self._count_upto(t)
        ps = self.primes[i0:i1].astype(np.float64)
        return float(np.sum((1.0 / ps) ** k))

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


def build_prime_table(limit: int) -> PrimeTable:
    """All primes <= limit: the primes <= sqrt(limit) by a plain sieve, then
    the survivors of `rough_segments` above them, read off a `Presieve` of
    [0, limit] by those primes once there are enough of them."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > DEFAULT_LIMIT_CAP:
        raise ResourceError(f"sieve limit {limit} exceeds the cap {DEFAULT_LIMIT_CAP}")
    small = _simple_sieve(math.isqrt(limit))
    step, residues = wheel_row(small)
    # strike each prime once over the whole range, not once per segment
    presieve = Presieve(small, limit) if len(small) >= 3 + PRESIEVED else None

    def survivors():
        for base, rows in rough_segments(small, limit, presieve):
            cells = np.flatnonzero(np.unpackbits(rows.view(np.uint8)).view(bool))
            ns = cells >> 5
            ns *= step
            ns += residues[cells & 31]
            ns += base
            yield ns[1:] if base == 0 else ns  # 1 survives but is no prime

    return PrimeTable(limit, np.concatenate([small, *survivors()]))


def mertens_product(table: PrimeTable, y) -> float:
    """Product of (1 - 1/p) over primes p <= y.

    Factors are multiplied in ascending-prime order for determinism.
    """
    if not y >= 2:
        raise DomainError(f"mertens_product needs y >= 2, got {y}")
    table._check_range(y)
    ps = table.primes[: table._count_upto(y)]
    # multiply.reduce walks the array left to right: ascending primes.
    return float(np.multiply.reduce(1.0 - 1.0 / ps.astype(np.float64)))
