import gc
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from roughbound import phi
from roughbound.errors import DomainError, OutOfRangeError, ResourceError
from roughbound.phi import (
    KEPT_VIOLATIONS,
    IntervalScan,
    max_statistic,
    phi_direct,
    phi_legendre,
    phi_two_prime,
    scan_rough_interval,
)
from roughbound.pipeline import _scans
from roughbound.primes import CHUNK_ROWS, DEFAULT_LIMIT_CAP, Presieve, build_prime_table

_T = build_prime_table(10_100)


def brute_phi(x, y):
    # divisibility by any d <= y is equivalent to divisibility by a prime <= y
    count = 0
    for n in range(1, x + 1):
        if all(n % d for d in range(2, int(min(n, y)) + 1)):
            count += 1
    return count


def test_direct_examples():
    assert phi_direct(10, 1.5, _T) == 10
    assert phi_direct(10, 2, _T) == 5
    assert phi_direct(100, 7, _T) == brute_phi(100, 7)
    assert phi_direct(0, 5, _T) == 0


def test_direct_cap():
    with pytest.raises(ResourceError, match="exhaustive cap 100; raise cap to at least 1000"):
        phi_direct(1000, 3, _T, cap=100)
    # a cap past the sieve's ceiling counts only up to it
    with pytest.raises(ResourceError, match="exhaustive cap 2147483648; the sieve stops there"):
        phi_direct(DEFAULT_LIMIT_CAP + 1, 3, _T, cap=10**30)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2000), st.floats(min_value=0, max_value=50))
def test_direct_vs_bruteforce(x, y):
    assert phi_direct(x, y, _T) == brute_phi(x, y)


# integers in CHUNK_ROWS rows of 4 turns of the wheels of 1, 2, 6 and 30, the
# longest range `rough_rows` hands out as a tail alone
_SPANS = [CHUNK_ROWS * 4 * width for width in (8, 16, 24, 30)]


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(min_value=0, max_value=5000),
                 st.sampled_from(_SPANS).flatmap(
                     lambda span: st.integers(min_value=span - 1000, max_value=span + 1000))),
       st.one_of(st.sampled_from([1.5, 2, 2.5, 3, 4.9, 5, 7, 11, 13, 17, 19, 23]),
                 st.floats(min_value=2, max_value=40)))
@example(1, 3)                             # only 1: no struck prime, wheel of 1
@example(_SPANS[0], 2)                     # half of CHUNK_ROWS rows of the wheel of 2
@example(_SPANS[1] - 1, 2)                 # CHUNK_ROWS rows of the wheel of 2, exactly
@example(_SPANS[1], 2)                     # one integer past it: a tail of one row
@example(_SPANS[2] + 1, 3)                 # wheel of 6 past CHUNK_ROWS rows
@example(_SPANS[3], 5)                     # wheel of 30 past CHUNK_ROWS rows
@example(_SPANS[3] + 29, 7)                # presieved pattern of 7 alone
@example(_SPANS[3] - 7, 11)                # presieved pattern of 7 and 11
@example(_SPANS[3] + 1, 13)                # presieved pattern of 7, 11 and 13
@example(_SPANS[3] - 1, 17)                # the full presieved pattern
@example(_SPANS[3] + 1000, 23)             # struck primes in a tail of 9 rows
def test_direct_vs_legendre_across_wheels(x, y):
    assert phi_direct(x, y, _T) == phi_legendre(x, y, _T)


def test_legendre_examples():
    assert phi_legendre(30, 5, _T) == 8  # {1,7,11,13,17,19,23,29}
    assert phi_legendre(613, 11, _T) == phi_direct(613, 11, _T)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10_000), st.floats(min_value=2, max_value=2.999))
def test_legendre_single_prime(x, y):
    assert phi_legendre(x, y, _T) == x - x // 2


def test_legendre_many_primes():
    # pi(10^4) = 1229 primes: deeper than the interpreter's default recursion limit
    assert phi_legendre(10**6, 10**4, _T) == phi_direct(10**6, 10**4, _T) == 77270


def test_legendre_leaves_no_cyclic_garbage():
    # the memo is freed when the call returns, not at the next cyclic
    # collection: left to the collector, query-mix peak RSS was 9.5 MB higher
    gc.collect()
    gc.disable()
    try:
        assert phi_legendre(10**6, 50, _T) == phi_direct(10**6, 50, _T)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_legendre_budget(monkeypatch):
    # Phi(10^5, 100) holds 97 memo entries (Phi(10^4, 50), ending at the
    # table mod 30030, holds exactly 10)
    monkeypatch.setattr(phi, "LEGENDRE_BUDGET", 10)
    with pytest.raises(ResourceError, match="budget 10"):
        phi_legendre(100_000, 100, _T)


def test_base_tables_are_gcd_counts():
    # phi_legendre's base case: mod the product M of the first a primes,
    # T[r] counts the m in [1, r] coprime to M, and phi(M) the whole period
    tables = phi._base_tables()
    assert [(modulus, totient) for modulus, totient, _ in tables] == [
        (1, 1), (2, 1), (6, 2), (30, 8), (210, 48), (2310, 480), (30030, 5760)]
    for modulus, totient, counts in tables:
        assert len(counts) == modulus and counts.itemsize == 2
        count = 0
        for r in range(modulus):
            count += r > 0 and math.gcd(r, modulus) == 1
            assert counts[r] == count, (modulus, r)
        assert count + (modulus == 1) == totient


# y below 13 (fewer than the 6 base primes), at 13 (exactly them), and above;
# x beside multiples of 30030 (and so of 2310, 210, 30, 6 and 2), where the
# tables' quotients step
@pytest.mark.parametrize("y", [2, 3, 5, 7, 11, 12, 13, 16, 17, 19, 100, 500])
def test_legendre_equals_direct_around_its_base_case(y):
    xs = [1, 2, 12, 13, 14, 169, 1000, 30_029]
    xs += [k * 30030 + d for k in (1, 2, 7, 33) for d in (-1, 0, 1)]
    for x in xs:
        assert phi_legendre(x, y, _T) == phi_direct(x, y, _T), (x, y)


def test_cross_method_randomized():
    rng = np.random.default_rng(20240301)
    for _ in range(200):
        x = int(rng.integers(1, 100_000))
        y = float(rng.uniform(2, 50))
        assert phi_direct(x, y, _T) == phi_legendre(x, y, _T)


def test_two_prime_examples(table_1m):
    assert phi_two_prime(121, 11, table_1m) == phi_direct(121, 11, table_1m)
    assert phi_two_prime(500_000, 79, table_1m) == phi_direct(500_000, 79, table_1m)
    # every y below 2 in the domain y^2 <= x, x = 0 included
    for x in range(8):
        for y in (0, 0.5, 1, 1.5, 1.99):
            if y * y <= x:
                counts = {f(x, y, _T) for f in (phi_two_prime, phi_direct, phi_legendre)}
                assert counts == {x}, (x, y)


def test_two_prime_randomized(table_1m):
    rng = np.random.default_rng(7)
    done = 0
    while done < 50:
        y = int(rng.integers(11, 97))
        q = table_1m.next_prime(y)
        lo, hi = y * y, min(q ** 3, 10 ** 6)
        if lo >= hi:
            continue
        x = int(rng.integers(lo, hi))
        assert phi_two_prime(x, y, table_1m) == phi_direct(x, y, table_1m)
        done += 1


def test_two_prime_domain(table_1m):
    # validity stops at q^3: 17^3 = 4913 is the first triple product above 13
    assert phi_two_prime(4912, 13, table_1m) == phi_direct(4912, 13, table_1m)
    with pytest.raises(DomainError):
        phi_two_prime(4913, 13, table_1m)
    with pytest.raises(DomainError):
        phi_two_prime(10_000, 13, table_1m)
    with pytest.raises(DomainError):
        phi_two_prime(100, 11, table_1m)  # x < y^2
    with pytest.raises(DomainError, match="needs y\\^2 <= x"):
        phi_two_prime(100, 1e10, _T)  # x < y^2, and no prime above y in the table
    with pytest.raises(ResourceError):
        phi_two_prime(500_000, 79, _T)  # pi(x) beyond this table


def test_max_statistic_rows():
    r = max_statistic(11, 13, 613, _T)
    assert r.max_stat == pytest.approx(0.55424, abs=1e-5)
    assert (r.witness_n, r.witness_j) == (199, 43)
    r = max_statistic(3, 5, 51, _T)
    assert r.max_stat == pytest.approx(0.57940, abs=1e-5)
    assert (r.witness_n, r.witness_j) == (25, 9)
    r = max_statistic(2, 3, 22, _T)
    assert r.max_stat == pytest.approx(0.61035, abs=1e-5)
    assert (r.witness_n, r.witness_j) == (9, 5)
    with pytest.raises(ResourceError, match="exhaustive cap 30000000"):
        max_statistic(2, 3, 30_000_002, _T)


@pytest.mark.parametrize("y_lo, y_hi, x_bound", [(97, 101, 9500), (3, 5, 20), (3, 5, 25)])
def test_max_statistic_refuses_a_range_with_no_n_above_y_hi_squared(y_lo, y_hi, x_bound):
    # the tabulated n run over y_hi^2 <= n < x_bound: none, here
    with pytest.raises(DomainError, match="must exceed y_hi\\^2"):
        max_statistic(y_lo, y_hi, x_bound, _T)
    # one n more, and the maximum is the first rough n from y_hi^2 on
    r = max_statistic(y_lo, y_hi, y_hi * y_hi + 1, _T)
    assert r.witness_n >= y_hi * y_hi and r.max_stat > 0


def test_max_statistic_falls_below_target_after_9():
    scan = scan_rough_interval(_T, 2, 3, 21, target=0.6)
    assert scan.violation_count == 1
    assert scan.violations[0][0] == 9
    # every rough x >= 10 is below the target in this interval
    assert all(n < 10 for n, _, _ in scan.violations)


def _rough_mask(lo, hi, strike):
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


def reference_scan(table, y_lo, y_hi, x_cap, target=None):
    """The plain interval scan the wheel kernel replaced: strike every prime
    <= y_lo from consecutive integer segments and evaluate both statistics on
    every rough n.  Oracle for scan_rough_interval."""
    segment = 1 << 22
    strike = table.primes_between(0, y_lo)
    log_q = math.log(y_hi)
    q2 = int(y_hi) * int(y_hi)
    lo_bound = int(y_lo) * int(y_lo)

    j_offset = 0
    best_table = (-1.0, 0, 0)
    best_sup = (-1.0, 0, 0)
    violations = []
    violation_count = 0

    for lo in range(0, x_cap + 1, segment):
        hi = min(lo + segment, x_cap + 1)
        idx = np.flatnonzero(_rough_mask(lo, hi, strike))
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


_BLOCK_30 = phi.SCAN_BLOCK * 120          # integers in one scan block of the wheel of 30
_CHUNK_30 = CHUNK_ROWS * 120              # integers in CHUNK_ROWS rows of the wheel of 30
_SUB_30 = 4 * 120                         # integers in one sub-block of 4 rows of the wheel of 30


def _intervals(y_lo, y_hi_max):
    """(y_lo, y_hi) with y_lo drawn from `y_lo` and y_lo < y_hi <= y_hi_max."""
    return y_lo.flatmap(lambda lo: st.tuples(st.just(lo),
                                             st.integers(min_value=lo + 1, max_value=y_hi_max)))


@settings(max_examples=60, deadline=None)
@given(_intervals(st.one_of(st.sampled_from([1, 2, 3, 4, 5]),
                            st.integers(min_value=1, max_value=120)), 180),
       st.one_of(st.integers(min_value=1, max_value=20_000),
                 st.integers(min_value=_CHUNK_30 - 100, max_value=_CHUNK_30 + 100),
                 st.integers(min_value=1, max_value=2_300_000)),
       st.one_of(st.none(), st.floats(min_value=0.3, max_value=0.7)))
@example((1, 2), 1000, 0.5)                  # no struck prime: wheel of 1
@example((2, 3), (1 << 21) + 7, 0.3)         # wheel of 2, past CHUNK_ROWS rows, > KEPT_VIOLATIONS
@example((3, 5), (1 << 20) + 29, 0.5)        # wheel of 6, all tail
@example((3, 5), 3 << 20, 0.5)               # wheel of 6, one integer past CHUNK_ROWS rows
@example((5, 7), 2_000_003, 0.55)            # wheel of 30, x_cap not a multiple of 30
@example((97, 101), 1_500_001, None)         # y_lo^2 and y_hi^2 near the start, all tail
@example((5, 7), 8_000_003, 0.55)            # whole blocks and a tail, violations above y_hi^2
@example((7, 11), 1_000_000, 0.56)           # presieved pattern of 7 alone
@example((11, 13), 300_007, 0.55)            # presieved pattern of 7 and 11
@example((13, 17), 5_000_000, None)          # presieved pattern of 7, 11 and 13
@example((53, 59), 2_999_999, 0.6)           # maximum at small j, where row bounds are loose
@example((6247, 6254), 39_150_000, 0.3)      # the first bounded row past y_hi^2 is empty
@example((7, 11), 2100 * _BLOCK_30 - 100, None)   # the last row closes a block, cells past x_cap
@example((19, 23), 5 * _BLOCK_30 - 100, 0.55)     # the same, all tail
@example((23, 29), _CHUNK_30 - 1, 0.55)           # CHUNK_ROWS rows, all tail
@example((23, 29), _CHUNK_30, 0.55)               # one integer past it: a tail of one row
@example((241, 251), 251**3 - 1, 0.6)            # a default small-u scan
@example((19, 23), 7 * _SUB_30 - 1, 0.55)         # all tail, at the edges of sub-blocks
@example((19, 23), 7 * _SUB_30, 0.55)
@example((7, 11), _CHUNK_30 + _SUB_30 - 1, None)  # the tail ends a sub-block
@example((7, 11), _CHUNK_30 + _SUB_30, 0.56)      # and one integer past it
@example((11, 13), _CHUNK_30 + _BLOCK_30 - 1, 0.55)   # the tail ends a block
@example((11, 13), _CHUNK_30 + _BLOCK_30 + 1, None)
@example((13, 17), 2 * _CHUNK_30 - 1, 0.55)      # a tail of one whole block
@example((13, 17), 2 * _CHUNK_30 + 3 * _SUB_30, 0.55)   # a tail of three sub-blocks and a row
@example((1979, 1987), 5_000_000, 0.6)        # y_lo^2 and y_hi^2 in the whole blocks
@example((1979, 1987), 3_940_000, 0.6)        # y_hi^2 past x_cap
@example((2003, 2011), 4_000_000, 0.6)        # y_lo^2 and y_hi^2 past x_cap
@example((1979, 1987), 3_948_168, 0.6)        # y_hi^2 one past x_cap, a tail of six rows
@example((1979, 1987), 3_948_169, 0.6)        # y_hi^2 at x_cap
@example((1979, 1987), 3_948_200, 0.6)        # y_hi^2 inside the tail
@example((1987, 1993), 3_948_200, 0.6)        # y_lo^2 inside the tail
def test_scan_matches_reference(interval, x_cap, target):
    y_lo, y_hi = interval
    got = scan_rough_interval(_T, y_lo, y_hi, x_cap, target=target)
    assert got == reference_scan(_T, y_lo, y_hi, x_cap, target=target)


@settings(max_examples=40, deadline=None)
@given(_intervals(st.integers(min_value=1, max_value=180), 200),
       st.one_of(st.integers(min_value=1, max_value=20_000),
                 st.integers(min_value=_CHUNK_30 - 100, max_value=_CHUNK_30 + 200),
                 st.integers(min_value=1, max_value=2_300_000)),
       st.one_of(st.none(), st.floats(min_value=0.3, max_value=0.7)))
@example((17, 19), 2100 * _BLOCK_30, 0.55)    # to the presieve's end
@example((53, 59), 2_999_999, 0.6)
@example((179, 181), _CHUNK_30, None)
@example((2, 3), 20_000, 0.5)                 # wheel of 2
@example((7, 11), 2100 * _BLOCK_30 - 100, None)   # the last row closes a block, cells past x_cap
@example((23, 29), _CHUNK_30 - 1, 0.55)           # CHUNK_ROWS rows, all tail
@example((23, 29), _CHUNK_30, 0.55)               # one integer past it
def test_scan_from_a_presieve_equals_scan_without(interval, x_cap, target):
    # the pipeline's scans read a presieve of exactly their own primes, over
    # a longer range than their own
    y_lo, y_hi = interval
    want = scan_rough_interval(_T, y_lo, y_hi, x_cap, target=target)
    presieve = Presieve(_T.primes_between(0, y_lo), 2100 * _BLOCK_30)
    got = scan_rough_interval(_T, y_lo, y_hi, x_cap, target=target, presieve=presieve)
    assert got == want


# x caps at and beside the edges of sub-blocks and blocks, past CHUNK_ROWS rows
_EDGE_X_CAPS = st.builds(lambda base, k, d: base + k + d,
                         st.sampled_from([_CHUNK_30, 2 * _CHUNK_30]),
                         st.sampled_from([0, _SUB_30, 2 * _SUB_30, _BLOCK_30, 7 * _BLOCK_30,
                                          _CHUNK_30 // 2]),
                         st.integers(min_value=-2, max_value=2))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=40), st.lists(_EDGE_X_CAPS, min_size=1, max_size=4),
       st.one_of(st.none(), st.floats(min_value=0.5, max_value=0.6)))
@example(18, [_CHUNK_30 + _SUB_30, _CHUNK_30 + _SUB_30 - 1, 2 * _CHUNK_30 + _BLOCK_30], 0.55)
@example(3, [_CHUNK_30 + 1, 2 * _CHUNK_30 - 2], None)       # 7 and 11: counts taken afresh
@example(40, [2 * _CHUNK_30 + 2, _CHUNK_30 - 1, _CHUNK_30 + 7 * _BLOCK_30], 0.6)
def test_rolling_scans_equal_fresh_scans(first, x_caps, target):
    # consecutive prime intervals from one presieve, advanced from scan to
    # scan with its block counts, against scans that build their own
    ps = _T.primes[first:first + len(x_caps) + 1].tolist()
    intervals = [(p, q, x_cap) for p, q, x_cap in zip(ps, ps[1:], x_caps)]
    rolled = _scans(_T, intervals, target, rolling=True)
    for (y_lo, y_hi, x_cap), scan in zip(intervals, rolled):
        assert scan == scan_rough_interval(_T, y_lo, y_hi, x_cap, target=target)


def test_only_scans_past_one_chunk_ask_for_block_counts(monkeypatch):
    # a range of at most CHUNK_ROWS rows is all tail, read by its rows alone
    def refuse(self):
        raise AssertionError("block counts asked for")
    monkeypatch.setattr(Presieve, "block_counts", refuse)
    for x_cap in (1, 5 * _BLOCK_30 - 100, _CHUNK_30 - 1):
        assert scan_rough_interval(_T, 23, 29, x_cap) == reference_scan(_T, 23, 29, x_cap)
    with pytest.raises(AssertionError, match="block counts asked for"):
        scan_rough_interval(_T, 23, 29, _CHUNK_30)


def test_scan_counts_the_largest_default_small_u_range():
    # the rough count of the largest default small-u scan, every block of
    # which but its tail is counted in place
    x = 503**3 - 1
    assert scan_rough_interval(_T, 499, 503, x).rough_count == phi_direct(x, 499, _T, cap=x)


# the primes <= 17, sieved past CHUNK_ROWS rows
_PRIMES_TO_17 = Presieve(_T.primes_between(0, 17), _CHUNK_30 + 200)


@pytest.mark.parametrize("y_lo, x_cap, presieve, match", [
    (13, 1000, _PRIMES_TO_17, "not the first"),                # more primes than the scan's
    (19, 1000, Presieve(np.array([2, 3, 5, 7, 11, 13, 19]), 1000), "not the first"),  # 17 missing
    (17, _CHUNK_30 + 201, _PRIMES_TO_17, "stops at"),          # range ends below x_cap
    (19, 1000, _PRIMES_TO_17, "not the first 8, the primes <= y_lo = 19"),  # fewer primes
])
def test_scan_refuses_a_presieve_that_does_not_fit(y_lo, x_cap, presieve, match):
    with pytest.raises(DomainError, match=match):
        scan_rough_interval(_T, y_lo, y_lo + 2, x_cap, presieve=presieve)


def test_scan_rejects_y_hi_below_2():
    with pytest.raises(DomainError):
        scan_rough_interval(_T, 1, 1, 100)


@pytest.mark.parametrize("y_lo, y_hi, x_cap", [(31, 5, 60_000), (7, 7, 100)])
def test_scan_rejects_an_empty_interval(y_lo, y_hi, x_cap):
    with pytest.raises(DomainError, match="y_hi > y_lo"):
        scan_rough_interval(_T, y_lo, y_hi, x_cap)


@pytest.mark.parametrize("count", [
    lambda: phi_direct(100, math.nan, _T),
    lambda: phi_legendre(100, math.nan, _T),
    lambda: scan_rough_interval(_T, math.nan, 3, 100),
])
def test_nan_y_rejected(count):
    # nan compares false with everything, so no range check would catch it
    with pytest.raises(DomainError, match="nan"):
        count()


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("count", [phi_direct, phi_legendre, phi_two_prime])
def test_non_finite_x_rejected(count, x):
    # int(x) raised a bare ValueError (nan) or OverflowError (inf)
    with pytest.raises(DomainError, match="x must be finite"):
        count(x, 3, _T)


@pytest.mark.parametrize("count", [
    lambda: phi_direct(20_000, 20_000, _T),
    lambda: phi_direct(20_000, math.inf, _T),
    lambda: phi_legendre(20_000, 10_200, _T),
    lambda: scan_rough_interval(_T, 10_200, 10_300, 100),
    lambda: scan_rough_interval(_T, math.inf, 3, 100),
])
def test_primes_past_the_table_rejected(count):
    with pytest.raises(OutOfRangeError, match="exceeds sieve limit 10100"):
        count()


@pytest.mark.parametrize("count", [
    lambda: scan_rough_interval(_T, 5, 7.5, 100),
    lambda: scan_rough_interval(_T, 4.5, 7, 100),
    lambda: scan_rough_interval(_T, 5, math.inf, 100),
    lambda: max_statistic(5, 7.5, 100, _T),
])
def test_scan_refuses_non_integral_endpoints(count):
    # [5, 7.5) was scanned as [5, 7) with its statistic taken at log 7.5
    with pytest.raises(DomainError, match="must be integers"):
        count()


def test_scan_takes_integral_floats_and_numpy_ints():
    want = scan_rough_interval(_T, 5, 7, 100)
    assert scan_rough_interval(_T, 5.0, 7.0, 100) == want
    assert scan_rough_interval(_T, np.int64(5), np.int32(7), 100) == want


def test_scan_witness_reproduces_max():
    scan = scan_rough_interval(_T, 7, 11, 369)
    n, j = scan.table_witness
    assert j * math.log(11) / n == scan.table_max


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3000),
       st.floats(min_value=1, max_value=40), st.floats(min_value=1, max_value=40))
def test_monotone_in_y(x, y1, y2):
    lo, hi = sorted((y1, y2))
    assert phi_direct(x, lo, _T) >= phi_direct(x, hi, _T)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000),
       st.floats(min_value=1, max_value=40))
def test_monotone_in_x(x1, x2, y):
    lo, hi = sorted((x1, x2))
    assert phi_direct(lo, y, _T) <= phi_direct(hi, y, _T)


def test_buchstab_identity():
    # Phi(x, y) = Phi(x, z) + sum over primes y < p <= z of Phi(x/p, p-)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = int(rng.integers(500, 40_000))
        y = float(rng.uniform(2, 12))
        z = float(rng.uniform(y, math.sqrt(x)))
        rhs = phi_direct(x, z, _T)
        for p in map(int, _T.primes_between(y, z)):
            rhs += phi_direct(x // p, p - 1, _T)
        assert phi_direct(x, y, _T) == rhs


def prev_prime(y):
    """Largest prime <= y, or None if y < 2."""
    i = int(np.searchsorted(_T.primes, y, side="right"))
    return int(_T.primes[i - 1]) if i else None


def test_canonicalize():
    # Phi(x, y) depends on y only through the largest prime <= y
    assert prev_prime(9.5) == 7
    assert prev_prime(7.0) == 7
    assert prev_prime(1.2) is None      # no prime <= y: every integer is counted
    assert phi_direct(100, 1.2, _T) == 100
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = int(rng.integers(1, 5000))
        y = float(rng.uniform(2, 60))
        if prev_prime(y) == y:
            continue
        assert phi_direct(x, y, _T) == phi_direct(x, prev_prime(y), _T)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0, max_value=100))
def test_canonicalize_idempotent(x, y):
    q = prev_prime(y)
    if q is not None:
        assert prev_prime(float(q)) == q
        assert phi_direct(x, y, _T) == phi_direct(x, q, _T)
