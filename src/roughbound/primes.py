"""Segmented sieve of Eratosthenes and prime-indexed prefix aggregates.

A :class:`PrimeTable` stores every prime up to a limit together with prefix
arrays for theta(t) = sum of log p, sum of 1/p and sum of 1/(p log p).  All
queries are a binary search into the prime list plus an array lookup, so a
built table is immutable and safe to share between concurrent readers.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .errors import DomainError, OutOfRangeError, ResourceError

DEFAULT_SEGMENT = 1 << 20
# Guard against accidentally sieving into tens of gigabytes of masks.
DEFAULT_LIMIT_CAP = 1 << 31


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


class PrimeTable:
    """Immutable store of primes <= limit with prefix aggregates."""

    def __init__(self, limit: int, primes: np.ndarray):
        self.limit = int(limit)
        self.primes = primes
        self.primes.setflags(write=False)
        logs = np.log(primes.astype(np.float64))
        # Prefix sums are plain left-to-right float64 accumulation (ascending
        # primes).  Worst-case drift is ~n*eps*S ~ 1e-8 at limit 3e7, far below
        # the smallest margin consumed downstream (9.2e-4, selberg-closed).
        self._theta = np.cumsum(logs)
        self._recip = np.cumsum(1.0 / primes)
        self._plogp = np.cumsum(1.0 / (primes * logs))

    # -- queries ---------------------------------------------------------

    def _count_upto(self, t) -> int:
        return int(np.searchsorted(self.primes, t, side="right"))

    def _check_range(self, t) -> None:
        if t > self.limit:
            raise OutOfRangeError(f"query at {t} exceeds sieve limit {self.limit}")

    def pi(self, t) -> int:
        """Number of primes <= t."""
        self._check_range(t)
        return self._count_upto(t)

    def theta(self, t) -> float:
        """Chebyshev theta: sum of log p over primes p <= t (0 for t < 2)."""
        if t <= 0:
            raise DomainError(f"theta needs t > 0, got {t}")
        self._check_range(t)
        i = self._count_upto(t)
        return float(self._theta[i - 1]) if i else 0.0

    def recip_sum(self, t) -> float:
        """Sum of 1/p over primes p <= t."""
        self._check_range(t)
        i = self._count_upto(t)
        return float(self._recip[i - 1]) if i else 0.0

    def recip_plogp_sum(self, t) -> float:
        """Sum of 1/(p log p) over primes p <= t."""
        self._check_range(t)
        i = self._count_upto(t)
        return float(self._plogp[i - 1]) if i else 0.0

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

    def prev_prime(self, t):
        """Largest prime <= t, or None if t < 2."""
        i = self._count_upto(min(t, self.limit))
        return int(self.primes[i - 1]) if i else None

    def is_prime(self, n: int) -> bool:
        self._check_range(n)
        i = np.searchsorted(self.primes, n)
        return i < len(self.primes) and int(self.primes[i]) == n


def build_prime_table(
    limit: int,
    *,
    segment_size: int = DEFAULT_SEGMENT,
    limit_cap: int = DEFAULT_LIMIT_CAP,
) -> PrimeTable:
    """Sieve all primes <= limit in fixed-size segments.

    The segmentation is purely an implementation detail: any segment size
    produces the identical prime sequence and table.
    """
    if limit < 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    if limit > limit_cap:
        raise ResourceError(
            f"sieve limit {limit} exceeds the configured cap {limit_cap}; "
            f"pass limit_cap >= {limit} to allow it"
        )
    if segment_size < 2:
        raise DomainError("segment_size must be >= 2")

    base = _simple_sieve(math.isqrt(limit))
    chunks = []
    for lo in range(0, limit + 1, segment_size):
        hi = min(lo + segment_size, limit + 1)
        mask = np.ones(hi - lo, dtype=bool)
        if lo == 0:
            mask[:2] = False
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                mask[start - lo :: p] = False
        chunks.append(np.flatnonzero(mask).astype(np.int64) + lo)
    primes = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    return PrimeTable(limit, primes)


def mertens_sum(table: PrimeTable, y) -> float:
    """Sum of 1/p over primes p <= y, accumulated in ascending order."""
    if y < 2:
        raise DomainError(f"mertens_sum needs y >= 2, got {y}")
    return table.recip_sum(y)


def mertens_product(table: PrimeTable, y, excluded=frozenset()) -> float:
    """Product of (1 - 1/p) over primes p <= y not in ``excluded``.

    Factors are multiplied in ascending-prime order for determinism.
    """
    if y < 2:
        raise DomainError(f"mertens_product needs y >= 2, got {y}")
    table._check_range(y)
    ps = table.primes[: table._count_upto(y)]
    if excluded:
        excl = np.asarray(sorted(excluded), dtype=np.int64)
        if not np.all(np.isin(excl, ps)):
            raise DomainError("excluded set must consist of primes <= y")
        ps = ps[~np.isin(ps, excl)]
    if len(ps) == 0:
        return 1.0
    # multiply.reduce walks the array left to right: ascending primes.
    return float(np.multiply.reduce(1.0 - 1.0 / ps.astype(np.float64)))


def write_checkpoints(table: PrimeTable, path, thresholds) -> None:
    """Record (t, pi(t), theta(t)) rows as a plain CSV regression fixture."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "pi", "theta"])
        for t in thresholds:
            writer.writerow([int(t), table.pi(t), repr(table.theta(t))])


def read_checkpoints(path):
    """Load rows written by :func:`write_checkpoints`."""
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append((int(rec["t"]), int(rec["pi"]), float(rec["theta"])))
    return rows
