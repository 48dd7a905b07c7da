"""The library's one sieve, and the table of primes it builds.

`rough_segments` is a segmented mod-30 wheel sieve: it marks the integers up
to a cap that are free of a given set of small primes, one ROUGH_SEGMENT-byte
mask at a time, and is the only sieve over segments.  Each mask starts from a
packed source, one bit per wheel residue: the wheel's cached periodic pattern,
or a `Presieve`, a range the sieve itself struck once by the first primes of
the set, which many scans by longer sets can share.  `build_prime_table`
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
ROUGH_SEGMENT = 1 << 20  # bytes of mask per segment of `rough_segments`
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
    indexed by r; and the packed pattern (see `Presieve`) of turns with the
    next PRESIEVED struck primes already struck, periodic with `period` turns
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
        unpacked = np.ones((turns, 8), dtype=bool)
        for p in strike[3:key].tolist():
            for c, r in enumerate(residues[:8].tolist()):
                unpacked[-r * pow(width, -1, p) % p::p, c] = False
        _WHEELS[key] = (w, width, residues, neg_inv, np.packbits(unpacked), period)
    return _WHEELS[key]


def wheel_row(strike) -> tuple[int, np.ndarray]:
    """The layout of a `rough_segments` mask: the integers one row spans, and
    the 32 residues of its columns."""
    width, residues = _wheel(strike)[1:3]
    return 4 * width, residues


class Presieve:
    """[0, x_cap] sieved once by the primes `strike`, for `rough_segments`
    to start segments of a sieve by more primes from.

    The survivors are kept packed, one bit per residue of the wheel of 30:
    byte i of `turns` is turn i (the integers 30i + residues[c]), column c
    in bit 7 - c, the byte order of `np.packbits` on a C-order mask.  That
    is x_cap / 30 bytes, filled in place one segment at a time.
    """

    def __init__(self, strike: np.ndarray, x_cap: int):
        if len(strike) < 3 + PRESIEVED:
            raise DomainError(f"a presieve strikes at least the {3 + PRESIEVED} primes up to 17, "
                              f"got {len(strike)}")
        self.strike = strike
        self.x_cap = int(x_cap)
        step = wheel_row(strike)[0]            # a segment holds whole rows of `step` integers
        self.turns = np.empty(-(-(self.x_cap + 1) // step) * 4, dtype=np.uint8)
        for base, mask in rough_segments(strike, self.x_cap):
            self.turns[base // step * 4:][:mask.size // 8] = np.packbits(mask)


def rough_segments(strike: np.ndarray, x_cap: int, presieve: Presieve | None = None):
    """Sieve [0, x_cap] by the primes `strike`, a segment at a time.

    `strike` must be the primes up to some bound, ascending.  Yields, for
    each segment in ascending order, its base and a fresh (rows, 32) bool
    mask: row i, column c stands for base + i*step + residues[c] (see
    `wheel_row`) and is True if that integer is at most x_cap and has no
    factor in `strike`.  0 is never marked; 1 always is.

    The mask holds at most ROUGH_SEGMENT bytes, one per residue coprime to
    the wheel of the struck primes among 2, 3, 5 (see `_wheel`).  It starts
    as the unpacked bits of a packed source, and every prime the source has
    not struck strikes one slice per residue class.  The source is the
    wheel's periodic pattern, or `presieve` if given: its primes must be the
    first of `strike`, and its range must reach x_cap.
    """
    w, width, residues, neg_inv, source, period = _wheel(strike, x_cap)
    struck = min(len(strike), 3 + PRESIEVED)   # the primes the source has struck
    if presieve is not None:
        struck = len(presieve.strike)
        if not (struck <= len(strike) and np.array_equal(presieve.strike, strike[:struck])):
            raise DomainError("the presieve's primes are not the first of the struck primes")
        if presieve.x_cap < x_cap:
            raise DomainError(f"the presieve stops at {presieve.x_cap}, below x_cap {x_cap}")
        # every segment starts within the presieve, so `% period` leaves its turn as is
        source, period = presieve.turns, len(presieve.turns)
    ps = strike[struck:, None]                 # the struck primes left to strike
    inv = (1 + ps * neg_inv[ps % width]) // width   # width^-1 mod p
    first_turn = -residues[:8] * inv % ps      # turn of the first multiple of p per column
    step = 4 * width                           # integers per row of 32 residues
    span = ROUGH_SEGMENT // 8 * width
    for base in range(0, x_cap + 1, span):
        size = min(span, x_cap + 1 - base)
        start = base // width % period
        turns = np.unpackbits(source[start:start + -(-size // step) * 4]).view(bool).reshape(-1, 8)
        for p, row in zip(ps[:, 0].tolist(), ((first_turn - base // width) % ps).tolist()):
            for c, s in enumerate(row):
                turns[s::p, c] = False
        mask = turns.reshape(-1, 32)
        mask.ravel()[size // step * 32 + int(np.searchsorted(residues, size % step)):] = False
        if base == 0 and w == 1:
            mask[0, 0] = False  # 0 is not counted; 1 survives every strike
        yield base, mask


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
    the survivors of `rough_segments` above them."""
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > DEFAULT_LIMIT_CAP:
        raise ResourceError(f"sieve limit {limit} exceeds the cap {DEFAULT_LIMIT_CAP}")
    small = _simple_sieve(math.isqrt(limit))
    step, residues = wheel_row(small)

    def survivors():
        for base, mask in rough_segments(small, limit):
            cells = np.flatnonzero(mask)
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
