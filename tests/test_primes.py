import bisect
import csv
import importlib.util
import math
import os
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from roughbound import primes as primes_module
from roughbound.analytic import EULER_GAMMA, MEISSEL_MERTENS_B, r_ratio
from roughbound.errors import DomainError, OutOfRangeError, ResourceError
from roughbound.phi import phi_two_prime
from roughbound.pipeline import epsilon_k
from roughbound.primes import (
    CHUNK_ROWS,
    DEFAULT_LIMIT_CAP,
    SCAN_BLOCK,
    Presieve,
    PrimeTable,
    build_prime_table,
    mertens_product,
    rough_rows,
)

DATA = os.path.join(os.path.dirname(__file__), "data")
SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def read_checkpoints(path):
    """(t, pi(t), theta(t)) rows of the fixture written by
    scripts/make_prime_checkpoints.py."""
    with open(path, newline="") as fh:
        return [(int(rec["t"]), int(rec["pi"]), float(rec["theta"]))
                for rec in csv.DictReader(fh)]


def trial_division_primes(n):
    return [k for k in range(2, n + 1)
            if all(k % d for d in range(2, int(k ** 0.5) + 1))]


def test_build_small():
    t = build_prime_table(10)
    assert list(t.primes) == [2, 3, 5, 7]
    assert t.pi(10) == 4


def test_pi_100_vs_trial_division():
    t = build_prime_table(100)
    oracle = trial_division_primes(100)
    assert list(t.primes) == oracle
    assert t.pi(100) == len(oracle) == 25


@pytest.fixture(scope="module")
def table_30m():
    return build_prime_table(30_000_000)


def test_checkpoint_fixture(table_30m):
    # fixture generated once by an independent odd-only bytearray sieve
    rows = read_checkpoints(os.path.join(DATA, "pi_theta_checkpoints.csv"))
    assert rows, "fixture file missing"
    theta = np.cumsum(np.log(table_30m.primes.astype(np.float64)))
    for t, pi_t, theta_t in rows:
        assert table_30m.pi(t) == pi_t
        assert abs(theta[pi_t - 1] - theta_t) < 1e-9 * max(1.0, theta_t)


def test_float_lookups_allocate_no_table_copy(table_30m):
    # numpy casts all 1.86 M int32 primes to the key's type when the key is not
    # int32: 14.9 MB a call for a float, an int or an np.int64 key
    assert table_30m.primes.dtype == np.int32
    tracemalloc.start()
    try:
        for k in range(100):
            t = 241.5 + 299_999.25 * k
            for key in (t, int(t), np.int64(t)):
                table_30m.pi(key)
                table_30m.primes_between(5.0, key)
                table_30m.primes_between(key, 29_999_999)
                table_30m.next_prime(key)
            y = 2 + 49 * k      # y^2 <= x < q^3, q the first prime above y
            phi_two_prime(min(y * y + 999_999 * k, table_30m.next_prime(y) ** 3 - 1, 30_000_000),
                          y, table_30m)
        for q0 in (241, 1009, 1499):
            epsilon_k(table_30m, q0, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lookups_at_the_cap_edge():
    # a table at the cap 2^31 ending in 2^31 - 1, the largest int32, built by
    # hand from the primes below 2e6 so as not to take 420 MB: no lookup may
    # overflow, and each answer equals the same sum over the same list in
    # Python ints
    listed = bytearray_primes(2_000_000).tolist() + [2**31 - 1]
    table = PrimeTable(DEFAULT_LIMIT_CAP, np.array(listed, dtype=np.int32))
    assert DEFAULT_LIMIT_CAP == 2**31
    assert table.pi(2**31) == len(listed)
    assert table.pi(2**31 - 1.5) == len(listed) - 1
    assert table.next_prime(2**31 - 2) == 2**31 - 1
    assert table.primes_between(0, 2**31).tolist() == listed
    assert table.primes_between(np.int64(2**31 - 2), 2**31).tolist() == [2**31 - 1]

    def pi(t):
        return bisect.bisect_right(listed, t)

    x, y = 2**31, 1300                 # x < 1301^3, and x // p < 2e6 for p > y
    root = math.isqrt(x)
    z, w = pi(root), pi(y)
    want = (pi(x) - (z * (z - 1) // 2 - (w - 1) * (w - 2) // 2)
            + sum(pi(x // p) for p in listed if y < p <= root))
    assert phi_two_prime(x, y, table) == want


def concatenated_build(limit):
    """The table as built before it was filled in place: each level's
    survivors unpacked to int64 and concatenated after the primes below."""
    root = math.isqrt(limit)
    small = concatenated_build(root) if root >= 2 else np.zeros(0, dtype=np.int64)
    presieve = Presieve(small, limit)
    rows = np.concatenate(rough_rows(presieve, limit))
    cells = np.flatnonzero(np.unpackbits(rows.view(np.uint8)).view(bool))
    ns = (cells >> 5) * presieve.step + presieve.residues[cells & 31]
    return np.concatenate([small, ns[1:]])     # 1 survives but is no prime


@pytest.mark.parametrize("limit", [2, 3, 4, 1000, 3_000_000])
def test_build_in_place_equals_the_concatenated_int64_build(limit):
    primes = build_prime_table(limit).primes
    assert primes.dtype == np.int32
    assert primes.tolist() == concatenated_build(limit).tolist()


def test_build_errors():
    for limit in (1, 1.5, float("nan")):
        with pytest.raises(DomainError):
            build_prime_table(limit)
    # a finite float limit is truncated, as a presieve's x_cap is
    assert build_prime_table(1000.0).primes.tolist() == build_prime_table(1000).primes.tolist()
    with pytest.raises(ResourceError, match="exceeds the cap"):
        build_prime_table(DEFAULT_LIMIT_CAP + 1)  # raises before it allocates


def test_build_refuses_a_limit_past_the_cap_before_allocating():
    # the presieve of [0, sqrt(limit)] for its base primes alone would ask for
    # 33 GB here
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="sieve limit 10{24} exceeds the cap"):
            build_prime_table(10**24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_theta_below_x_up_to_1426(table_small):
    # theta stays below the identity line before 1427
    ps = table_small.primes_between(0, 1426)
    theta = np.cumsum(np.log(ps.astype(np.float64)))
    assert np.all(theta < ps)
    assert theta[-1] < 1426
def test_build_matches_trial_division_small_limits():
    # every wheel (1, 2, 6, 30) and every count of presieved primes
    oracle = trial_division_primes(300)
    for limit in range(2, 301):
        want = [p for p in oracle if p <= limit]
        assert build_prime_table(limit).primes.tolist() == want, limit


def bytearray_primes(n):
    """Primes <= n by a plain bytearray sieve, independent of the library."""
    mask = bytearray([1]) * (n + 1)
    mask[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    return np.flatnonzero(np.frombuffer(mask, dtype=np.uint8))


def test_build_matches_bytearray_sieve_beside_prime_squares():
    # at p^2 a level of the recursion for the base primes gains p
    oracle = bytearray_primes(320 ** 2 + 1)
    for p in oracle[oracle < 320].tolist():
        for limit in (p * p - 1, p * p, p * p + 1):
            assert np.array_equal(build_prime_table(limit).primes, oracle[oracle <= limit]), limit


def test_building_a_table_calls_the_public_builder_once(monkeypatch):
    # the base primes come from a private recursion, so a wrapper on the
    # public name sees one call per table
    calls = []
    build = primes_module.build_prime_table

    def counted(limit):
        calls.append(limit)
        return build(limit)

    monkeypatch.setattr(primes_module, "build_prime_table", counted)
    table = primes_module.build_prime_table(10**6)
    assert calls == [10**6]
    assert table.pi(10**6) == 78_498


_SPAN_30 = CHUNK_ROWS * 120     # integers in CHUNK_ROWS rows of the wheel of 30


def test_chunked_equals_unchunked():
    # three chunks of the wheel of 30 against one unchunked bytearray sieve
    limit = 3 * _SPAN_30 - 7
    assert np.array_equal(build_prime_table(limit).primes, bytearray_primes(limit))


def test_build_matches_bytearray_sieve_at_chunk_edge():
    oracle = bytearray_primes(_SPAN_30 + 31)
    for k in (-31, -30, -2, -1, 0, 1, 2, 30, 31):
        limit = _SPAN_30 + k
        assert np.array_equal(build_prime_table(limit).primes, oracle[oracle <= limit]), k


def primes_upto(primes, y):
    return primes[:int(np.searchsorted(primes, y, side="right"))]


def presieve_cells(presieve):
    """(n, survives) for every cell of `presieve` with n <= its x_cap."""
    step, residues = presieve.step, presieve.residues
    cells = np.arange(8 * presieve.turns.size)
    ns = (cells >> 5) * step + residues[cells & 31]
    keep = ns <= presieve.x_cap
    return ns[keep], np.unpackbits(presieve.turns).view(bool)[keep]


def row_survivors(presieve, x_cap):
    """The integers set in the rows of `rough_rows(presieve, x_cap)`,
    checking on the way that `whole` is a read-only uint32 view of the
    presieve's whole blocks, empty exactly when the R rows through x_cap's
    are at most CHUNK_ROWS, and that `tail` is a fresh uint32 array of the
    rest: all R rows, or 1 to SCAN_BLOCK of them after a non-empty `whole`.
    That the cells past x_cap are cleared the caller checks against a plain
    sieve."""
    step, residues = presieve.step, presieve.residues
    rows = int(x_cap) // step + 1        # the rows through x_cap's
    whole, tail = rough_rows(presieve, x_cap)
    assert whole.dtype == tail.dtype == np.uint32
    assert not whole.flags.writeable and len(whole) % SCAN_BLOCK == 0
    assert np.shares_memory(whole, presieve.turns) or not len(whole)
    assert (not len(whole)) == (rows <= CHUNK_ROWS)
    assert len(whole) + len(tail) == rows
    assert len(tail) <= SCAN_BLOCK or not len(whole)
    assert tail.flags.writeable and not np.shares_memory(tail, presieve.turns)
    found = []
    for first, words in ((0, whole), (len(whole), tail)):
        cells = np.flatnonzero(np.unpackbits(words.view(np.uint8)))
        found.append((first + (cells >> 5)) * step + residues[cells & 31])
    return np.concatenate(found)


def rough_oracle(primes, x_cap):
    """mask[n] for 0 <= n <= x_cap: n > 0 has no factor in `primes`."""
    mask = np.ones(x_cap + 1, dtype=bool)
    mask[0] = False
    for p in primes.tolist():
        mask[p::p] = False          # every multiple of p, p itself included
    return mask


@pytest.mark.parametrize("count", range(9))
def test_presieve_and_its_chunks_match_a_plain_sieve(table_small, count):
    # every wheel (1, 2, 6, 30) and every count of presieved primes, and one
    # prime struck above them
    strike = table_small.primes[:count]
    width = Presieve(strike, 1).step // 4
    span = CHUNK_ROWS * 4 * width         # integers in CHUNK_ROWS rows
    oracle = rough_oracle(strike, 2 * span + 1000)
    # x caps at and beside the edges of a turn, a row and CHUNK_ROWS rows,
    # and past twice that
    for x_cap in sorted({1, 2, 3, 29, 30, 31, width - 1, width, width + 1, 4 * width - 1,
                         4 * width, 4 * width + 1, 1_000_003, span - 1, span, span + 1,
                         2 * span + 1000}):
        presieve = Presieve(strike, x_cap)
        ns, survives = presieve_cells(presieve)
        assert np.array_equal(survives, oracle[ns]), (count, x_cap)
        assert np.array_equal(row_survivors(presieve, x_cap),
                              np.flatnonzero(oracle[:x_cap + 1])), (count, x_cap)
    # a presieve read short of its own end
    assert np.array_equal(row_survivors(presieve, span + 7),
                          np.flatnonzero(oracle[:span + 8])), count


def struck_cells(count, ps, n):
    """`_strike` of the primes `ps` over n set bytes on the wheel of the
    first `count` primes, as (n, survives) by `presieve_cells`."""
    width, residues, neg_inv, _ = primes_module._wheel(np.array([2, 3, 5][:count]))
    turns = np.full(n, 0xFF, dtype=np.uint8)
    primes_module._strike(turns, ps, (width, residues, neg_inv))
    return presieve_cells(SimpleNamespace(step=4 * width, residues=residues, turns=turns,
                                          x_cap=n * width - 1))


_GROUP = 16 * 7 * 11 * 13        # the fewest bytes on which 7, 11 and 13 make one group


# ranges shorter than most primes' period; on which 7 and 11 make a group but
# 13 does not, or 7, 11 and 13 do, ending inside a group period; primes just
# below and above the strided threshold, on ranges just too short for strided
# columns and just long enough; and with the threshold lowered so that 89
# and 97 make a group, that 97 is cut from 89's group, or that no group forms
@pytest.mark.parametrize("count", range(4))          # the wheels of 1, 2, 6 and 30
@pytest.mark.parametrize("lo, hi, n, strided", [
    (7, 100, 50, None), (7, 100, _GROUP - 1, None), (7, 100, _GROUP + 5, None),
    (577, 620, primes_module._STRIDED_BYTES - 1, None),
    (577, 620, primes_module._STRIDED_BYTES + 3, None),
    (89, 110, 16 * 89 * 97 + 3, 101), (89, 110, 16 * 89 * 97 + 3, 97),
    (89, 110, 16 * 89 * 97 - 1, 101),
])
def test_strike_matches_a_plain_sieve(monkeypatch, count, lo, hi, n, strided):
    ps = bytearray_primes(hi)
    ps = ps[ps >= lo]
    if strided is not None:
        monkeypatch.setattr(primes_module, "_STRIDED", strided)
        monkeypatch.setattr(primes_module, "_STRIDED_BYTES", n - 1000)
    ns, survives = struck_cells(count, ps, n)
    assert np.array_equal(survives, rough_oracle(ps, int(ns.max()))[ns])


@pytest.mark.parametrize("count", range(4))          # the wheels of 1, 2, 6 and 30
@pytest.mark.parametrize("rows, whole", [(CHUNK_ROWS, 0), (CHUNK_ROWS + 1, CHUNK_ROWS),
                                         (CHUNK_ROWS + 16, CHUNK_ROWS),
                                         (CHUNK_ROWS + 17, CHUNK_ROWS + 16)])
def test_rough_rows_split_into_whole_blocks_and_a_tail(table_small, count, rows, whole):
    # up to CHUNK_ROWS rows all are tail; past them the tail is 1 to SCAN_BLOCK rows
    strike = table_small.primes[:count]
    step = Presieve(strike, 1).step
    oracle = rough_oracle(strike, rows * step)
    presieve = Presieve(strike, rows * step)
    for x_cap in ((rows - 1) * step, rows * step - 1):   # the first and last integer of row R - 1
        assert np.array_equal(row_survivors(presieve, x_cap),
                              np.flatnonzero(oracle[:x_cap + 1])), x_cap
        assert len(rough_rows(presieve, x_cap)[0]) == whole


def test_chunks_but_the_last_are_read_only_views(table_small):
    # the whole blocks are a read-only view of the presieve; the tail is the caller's own
    presieve = Presieve(table_small.primes[:5], 2 * _SPAN_30 + 1000)
    before = presieve.turns.tobytes()
    whole, tail = rough_rows(presieve, 2 * _SPAN_30 + 1000)
    assert len(whole) == 2 * CHUNK_ROWS and len(tail) == 9
    with pytest.raises(ValueError, match="read-only"):
        whole[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        whole.view(np.uint8)[-1] = 0
    tail[:] = 0
    assert presieve.turns.tobytes() == before


@pytest.mark.parametrize("x_cap", [1, 119, 120, 1919, 1920, _SPAN_30 - 1, _SPAN_30,
                                   _SPAN_30 + 1, _SPAN_30 + 1919, _SPAN_30 + 1920])
def test_chunks_read_short_of_the_presieve(table_small, x_cap):
    # the presieve's bits run on past x_cap: the tail clears them and
    # ends at x_cap's row (see row_survivors)
    strike = table_small.primes[:3]
    presieve = Presieve(strike, 2 * _SPAN_30)
    assert np.array_equal(row_survivors(presieve, x_cap),
                          np.flatnonzero(rough_oracle(strike, x_cap)))


def test_short_presieve_refused_before_the_first_chunk(table_small):
    # refused at the call, before any row is handed out
    presieve = Presieve(table_small.primes[:3], 2 * _SPAN_30)
    with pytest.raises(DomainError, match=f"stops at {2 * _SPAN_30}, below x_cap"):
        rough_rows(presieve, 2 * _SPAN_30 + 1)


def popcount_blocks(presieve):
    """The survivors <= x_cap per block of SCAN_BLOCK rows over the
    presieve's whole rows, the last block zero padded, counted cell by cell
    off `presieve_cells`."""
    ns, survives = presieve_cells(presieve)
    blocks = -(-presieve.turns.size // (4 * SCAN_BLOCK))
    return np.bincount(ns[survives] // (SCAN_BLOCK * presieve.step), minlength=blocks)


# ranges ending inside a turn, inside a row, at a row's, a block's and a
# chunk's edges and past them, inside a last block of 9 rows (one chunk),
# of 6 rows after a chunk and of 9 rows after two, and at the end of a tail
# of one whole block
@pytest.mark.parametrize("x_cap", [45, 100, 119, 120, 121, 1919, 1920, 1921, 120_077,
                                   _SPAN_30 - 1, _SPAN_30, _SPAN_30 + 1, _SPAN_30 + 607,
                                   _SPAN_30 + 1919, 2 * _SPAN_30 + 1000])
def test_advancing_a_presieve_equals_building_it(table_small, x_cap):
    primes = table_small.primes
    stepped = Presieve(primes_upto(primes, 17), x_cap)
    counted = Presieve(primes_upto(primes, 17), x_cap)   # block counts kept from the start
    counted.block_counts()
    # by one prime (19, 71) and by many (67, 241, 499); from below 64 the
    # counts are dropped and counted afresh, above it they follow the strike
    for y in (19, 67, 71, 241, 499):
        strike = primes_upto(primes, y)
        stepped.advance(strike)
        counted.advance(strike)
        one_step = Presieve(primes_upto(primes, 17), x_cap)
        one_step.advance(strike)
        fresh = Presieve(strike, x_cap)
        assert (stepped.turns.tobytes() == one_step.turns.tobytes() == fresh.turns.tobytes()
                == counted.turns.tobytes()), y
        ns, survives = presieve_cells(fresh)
        assert np.array_equal(survives, rough_oracle(strike, x_cap)[ns]), y
        want = popcount_blocks(fresh)
        assert np.array_equal(counted.block_counts(), want), y
        assert np.array_equal(fresh.block_counts(), want), y
    assert not counted.block_counts().flags.writeable


@pytest.mark.parametrize("x_cap", [10_000, 1_000_003])
def test_advance_keeps_the_small_survivors_of_its_last_prime(table_small, x_cap):
    # after each prime p the list the counts are kept by holds the survivors
    # of the primes <= p up to x_cap // p, p's multiples deleted by position
    primes = table_small.primes
    presieve = Presieve(primes_upto(primes, 67), x_cap)
    presieve.block_counts()
    for y in (71, 73, 241, 499):
        strike = primes_upto(primes, y)
        presieve.advance(strike)
        p = int(strike[-1])
        assert np.array_equal(presieve._small, np.flatnonzero(rough_oracle(strike, x_cap // p))), y


def test_presieve_refuses_to_advance_by_primes_that_do_not_extend_its_own(table_small):
    primes = table_small.primes
    presieve = Presieve(primes_upto(primes, 71), 10_000)
    presieve.advance(primes_upto(primes, 73))      # counts kept from here on
    presieve.block_counts()
    presieve.advance(primes_upto(primes, 79))
    before, counts = presieve.turns.tobytes(), presieve.block_counts().copy()
    for strike in (primes_upto(primes, 73),                  # fewer primes
                   np.delete(primes_upto(primes, 113), 12),  # 41 missing
                   primes_upto(primes, 113)[1:]):            # 2 missing
        with pytest.raises(DomainError, match="not the first"):
            presieve.advance(strike)
        assert presieve.turns.tobytes() == before
        assert np.array_equal(presieve.block_counts(), counts)
        assert presieve.strike.tolist() == primes_upto(primes, 79).tolist()
    presieve.advance(primes_upto(primes, 113))      # and the counts still follow the strike
    assert np.array_equal(presieve.block_counts(), popcount_blocks(presieve))


@pytest.mark.parametrize("x_cap", [-1, -0.5, math.nan, math.inf, -math.inf])
def test_presieve_and_chunks_refuse_a_negative_or_non_finite_x_cap(table_small, x_cap):
    with pytest.raises(DomainError, match="x_cap >= 0"):
        Presieve(table_small.primes[:4], x_cap)
    with pytest.raises(DomainError, match="x_cap >= 0"):
        rough_rows(Presieve(table_small.primes[:4], 1000), x_cap)


def test_presieve_and_chunks_truncate_a_float_x_cap(table_small):
    strike = table_small.primes[:4]
    presieve = Presieve(strike, 999.5)
    assert presieve.x_cap == 999
    assert presieve.turns.tobytes() == Presieve(strike, 999).turns.tobytes()
    assert np.array_equal(row_survivors(presieve, 999.0),
                          np.flatnonzero(rough_oracle(strike, 999)))
    assert np.array_equal(row_survivors(presieve, 998.7),
                          np.flatnonzero(rough_oracle(strike, 998)))


@pytest.mark.parametrize("own, more", [(0, 1), (1, 2), (2, 3), (1, 3), (0, 8), (2, 5)])
def test_presieve_refuses_to_advance_across_wheels(table_small, own, more):
    # a smaller wheel's bits stand for other integers than the larger wheel's
    presieve = Presieve(table_small.primes[:own], 1000)
    before, counts = presieve.turns.tobytes(), presieve.block_counts().copy()
    with pytest.raises(DomainError, match="cannot advance to the wheel"):
        presieve.advance(table_small.primes[:more])
    assert presieve.turns.tobytes() == before
    assert np.array_equal(presieve.block_counts(), counts)
    assert len(presieve.strike) == own


def test_prime_sequence_invariants(table_small):
    ps = table_small.primes
    assert list(ps[:4]) == [2, 3, 5, 7]
    assert np.all(np.diff(ps) > 0)
    for p in map(int, ps[::97]):
        assert all(p % d for d in range(2, int(p ** 0.5) + 1))


# module-level table for hypothesis tests (session fixtures don't mix with @given)
_SMALL = build_prime_table(10_100)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0, max_value=10_100), st.floats(min_value=0, max_value=10_100))
def test_monotone_aggregates(a, b):
    lo, hi = sorted((a, b))
    assert _SMALL.pi(lo) <= _SMALL.pi(hi)


_FLOAT_PRIMES = _SMALL.primes.astype(np.float64)
_KEYS = st.one_of(
    st.floats(min_value=-20, max_value=_SMALL.limit + 20),                  # non-integers
    st.integers(-20, _SMALL.limit + 20).map(float),                         # integer-valued
    st.builds(lambda p, d: p + d, st.sampled_from(_SMALL.primes.tolist()),  # just off a prime
              st.sampled_from((-1e-9, 1e-9))),
    st.sampled_from((-math.inf, -1.0, 0.0, 1.0, 2.0, float(_SMALL.limit),
                     _SMALL.limit + 1e-9, _SMALL.limit + 1.0, math.inf)),
)


@settings(max_examples=300, deadline=None)
@given(_KEYS, _KEYS)
@example(math.inf, -math.inf)
@example(_SMALL.limit + 1e-9, 2.0)
@example(float(_SMALL.limit), 1.0)
@example(-1.0, 0.0)
def test_int_key_lookups_match_float_search(t, lo):
    # the int key floor(t) counts what a float64 search over the primes counts
    count = int(np.searchsorted(_FLOAT_PRIMES, t, side="right"))
    if t <= _SMALL.limit:
        assert _SMALL.pi(t) == count
        start = int(np.searchsorted(_FLOAT_PRIMES, lo, side="right"))
        assert _SMALL.primes_between(lo, t).tolist() == _SMALL.primes[start:count].tolist()
    else:
        with pytest.raises(OutOfRangeError):
            _SMALL.pi(t)
    if count < len(_FLOAT_PRIMES):
        assert _SMALL.next_prime(t) == _SMALL.primes[count]
    else:
        with pytest.raises(OutOfRangeError):
            _SMALL.next_prime(t)


def test_pnt_upper_dominates_pi_on_grid(table_1m):
    # pi(t) < (1 + beta0) li(t), the bound r_ratio carries
    ts = np.linspace(2, 1_000_000, 10_000)
    for t in ts:
        assert table_1m.pi(t) < r_ratio(float(t)) * t / math.log(t)


def test_mertens_sum_examples(table_1m):
    recip = np.cumsum(1.0 / table_1m.primes)
    assert recip[0] == 0.5
    v4 = recip[table_1m.pi(1e4) - 1] - math.log(math.log(1e4)) - MEISSEL_MERTENS_B
    assert 0 < v4 < 0.00624
    v6 = recip[table_1m.pi(1e6) - 1] - math.log(math.log(1e6)) - MEISSEL_MERTENS_B
    assert 0 < v6 < 0.00161


def test_mertens_product_examples(table_1m):
    assert mertens_product(table_1m, 12) == pytest.approx(16 / 77, rel=1e-12)
    y = 500_000
    assert mertens_product(table_1m, y) < math.exp(-EULER_GAMMA) / math.log(y)
    with pytest.raises(DomainError):
        mertens_product(table_1m, 1.5)


def test_next_prev_prime(table_small):
    assert table_small.next_prime(70) == 71
    # the prime below t is primes[pi(t) - 1]; none below 2
    assert table_small.primes[table_small.pi(70) - 1] == 67
    assert table_small.pi(1.5) == 0
    with pytest.raises(OutOfRangeError):
        table_small.next_prime(10_099)


def test_checkpoints_roundtrip(tmp_path, monkeypatch, table_small):
    # the fixture script writes checkpoints that read_checkpoints reads back
    spec = importlib.util.spec_from_file_location(
        "make_prime_checkpoints", os.path.join(SCRIPTS, "make_prime_checkpoints.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    path = tmp_path / "cp.csv"
    monkeypatch.setattr(script, "CHECKPOINTS", (10, 100, 9973))
    monkeypatch.setattr(sys, "argv", ["make_prime_checkpoints.py", str(path)])
    script.main()
    rows = read_checkpoints(path)
    ps = table_small.primes.tolist()
    assert rows == [(t, table_small.pi(t), math.fsum(math.log(p) for p in ps if p <= t))
                    for t in (10, 100, 9973)]
    assert [r[:2] for r in rows] == [(10, 4), (100, 25), (9973, 1229)]

