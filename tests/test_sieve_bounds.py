import logging
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import roughbound
from roughbound import sieve_bounds
from divisor_oracles import selberg_divisor_sums, tau3_divisor_sum
from roughbound.analytic import EULER_GAMMA
from roughbound.errors import DomainError, InfeasibleError
from roughbound.phi import phi_direct, phi_legendre
from roughbound.pipeline import DEFAULT_TARGET
from roughbound.primes import build_prime_table, mertens_product
from roughbound.sieve_bounds import (
    EPSILON_BRACKET,
    PRESIEVE_DENSITY,
    SELBERG_D_COEFF,
    SELBERG_REMAINDER_COEFF,
    bonferroni_bound,
    bonferroni_x_bound,
    closed_form_factor,
    default_sieve_level,
    elementary_bound,
    elementary_x_bound,
    final_large_y_bound,
    lemma2_remainder,
    make_sieve_config,
    newton_elementary,
    optimize_epsilon,
    s_y_closed_form,
    selberg_sweep,
    selberg_upper,
)

_T = build_prime_table(10_100)


# -- elementary --------------------------------------------------------------

def test_elementary_bound_11_13_row():
    # interval [11, 13): bound .207793 x + 16 beats .6 x / log 13 from x = 613
    val = elementary_bound(613, 11, _T)
    assert val == pytest.approx((16 / 77) * 613 + 16, rel=1e-12)
    assert val < 0.6 * 613 / math.log(13)


def test_elementary_bound_degenerate():
    assert elementary_bound(10.3, 1.5, _T) == 11  # ceil clamp, pi(y) = 0
    assert elementary_bound(10, 1.9, _T) == 10


def test_elementary_dominates():
    assert elementary_bound(10**4, 12, _T) >= phi_direct(10**4, 12, _T)


def test_elementary_x_bounds():
    assert elementary_x_bound(11, 0.6, _T) == 613
    assert elementary_x_bound(3, 0.6, _T) == 51
    assert elementary_x_bound(2, 0.6, _T) == 22
    with pytest.raises(InfeasibleError):
        elementary_x_bound(67, 0.55, _T)  # product exceeds .55 / log 71


def test_elementary_beyond_float_range():
    # the least crossover at y = 300 lies past 2^53, where x0 - 1 rounds to x0
    with pytest.raises(InfeasibleError, match="past 2"):
        elementary_x_bound(300, 0.6, _T)
    # pi(8167) = 1025: the remainder 2^1024 overflows a float
    with pytest.raises(InfeasibleError, match="overflows"):
        elementary_x_bound(8167, 0.6, _T)
    with pytest.raises(InfeasibleError, match="overflows"):
        elementary_bound(1e6, 8167, _T)
    assert elementary_bound(1e6, 8161, _T) > 2.0 ** 1022   # pi(8161) = 1024: still finite


def test_elementary_x_bound_past_2_53_returns():
    # at y = 500 a crossover search stepping by 1 never ends: run it apart
    code = ("from roughbound.errors import InfeasibleError\n"
            "from roughbound.primes import build_prime_table\n"
            "from roughbound.sieve_bounds import elementary_x_bound\n"
            "try:\n"
            "    elementary_x_bound(500, 0.6, build_prime_table(1000))\n"
            "except InfeasibleError:\n"
            "    raise SystemExit(7)\n")
    src = os.path.dirname(os.path.dirname(roughbound.__file__))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 7, run.stderr


# -- Newton identities / Bonferroni ------------------------------------------

def test_newton_single_prime():
    e = newton_elementary(1 / 7, 1 / 49, 1 / 343, 1 / 2401)
    assert e[0] == pytest.approx(1 / 7)
    assert e[1] == pytest.approx(0, abs=1e-18)
    assert e[2] == pytest.approx(0, abs=1e-18)
    assert e[3] == pytest.approx(0, abs=1e-18)


def test_newton_prime_pair():
    ps = [7, 11]
    pows = [sum((1 / p) ** k for p in ps) for k in (1, 2, 3, 4)]
    e = newton_elementary(*pows)
    assert e[0] == pytest.approx(1 / 7 + 1 / 11)
    assert e[1] == pytest.approx(1 / 77, rel=1e-14)
    assert e[2] == pytest.approx(0, abs=1e-16)
    assert e[3] == pytest.approx(0, abs=1e-16)


def test_newton_vs_subset_enumeration():
    ps = [int(p) for p in _T.primes_between(5, 50)]
    vals = [1 / p for p in ps]
    pows = [sum(v ** k for v in vals) for k in (1, 2, 3, 4)]
    e = newton_elementary(*pows)
    for j in (1, 2, 3, 4):
        direct = sum(math.prod(c) for c in combinations(vals, j))
        assert e[j - 1] == pytest.approx(direct, rel=1e-13, abs=1e-14)


def test_bonferroni_from_direct_power_sums():
    # s(y) and b(y) at y = 50 from fsum power sums over 7..47, through the Newton identities
    ps = [int(p) for p in _T.primes_between(5, 50)]
    e1, e2, e3, e4 = newton_elementary(*(math.fsum((1 / p) ** k for p in ps) for k in (1, 2, 3, 4)))
    _, data = bonferroni_bound(1.0, 50, _T)
    assert data.s_y == pytest.approx(PRESIEVE_DENSITY * (1 - e1 + e2 - e3 + e4), rel=1e-14)
    assert data.b_y == sum(math.comb(len(ps), i) for i in range(5))


def test_bonferroni_edge_single_prime():
    # y = 7: the only sieving prime beyond the pre-sieve is 7 itself
    bound, data = bonferroni_bound(100.0, 7, _T)
    assert data.b_y == 2  # C(1,0) + C(1,1)
    assert data.s_y == pytest.approx((4 / 15) * (1 - 1 / 7), rel=1e-14)
    assert bound == pytest.approx(100 * data.s_y + 2, rel=1e-14)


def test_bonferroni_dominates():
    bound, _ = bonferroni_bound(10**6, 100, _T)
    assert bound >= phi_direct(10**6, 100, _T)


def test_bonferroni_is_upper_truncation():
    # truncated alternating sum dominates the full product
    for y in (53, 101, 239):
        _, data = bonferroni_bound(1.0, y, _T)
        ps = _T.primes_between(5, y).astype(float)
        assert data.s_y >= (4 / 15) * np.prod(1 - 1 / ps)
        assert data.s_y < 4 / 15


def test_bonferroni_sandwich():
    # full inclusion-exclusion (exact count) <= x s(y) + b(y)
    rng = np.random.default_rng(5)
    for _ in range(30):
        y = int(rng.integers(7, 120))
        x = int(rng.integers(y * y, 200_000))
        bound, _ = bonferroni_bound(float(x), y, _T)
        assert phi_legendre(x, y, _T) <= bound


def test_bonferroni_x_bound_region():
    # every pre-sieved truncation bound stays under 3e7 up to 241
    worst = 0
    for p in map(int, _T.primes_between(70, 240)):
        worst = max(worst, bonferroni_x_bound(p, 0.6, _T))
    assert worst < 30_000_000
    assert bonferroni_x_bound(239, 0.6, _T) == worst
    with pytest.raises(DomainError):
        bonferroni_bound(10.0, 4.9, _T)


# -- Lemma-style remainder and divisor enumerations --------------------------

def test_lemma2_remainder_values():
    y, x = 241.0, 241.0 ** 7.5
    d = default_sieve_level(x, y)
    # pre-sieved constants collapse to exactly (1/5) D (log y)^2 = .006 x / log y
    rem = lemma2_remainder(y, d)
    assert rem == pytest.approx((1 / 5) * d * math.log(y) ** 2, rel=1e-15)
    assert rem == pytest.approx(0.006 * x / math.log(y), rel=1e-12)
    assert SELBERG_REMAINDER_COEFF == 0.006
    assert lemma2_remainder(100.0, 7.0) == pytest.approx(0.2 * 7 * math.log(100) ** 2)
    with pytest.raises(DomainError):
        lemma2_remainder(50.0, 7.0)


def test_excluded_factor_exact():
    # product of (1 + 2/p)^-1 over p = 2, 3, 5 is exactly 3/14
    assert Fraction(1, 1) / ((1 + Fraction(2, 2)) * (1 + Fraction(2, 3)) * (1 + Fraction(2, 5))) \
        == Fraction(3, 14)


def test_tau3_enumeration_respects_bound():
    for y in (53, 100, 241):
        ps = [int(p) for p in _T.primes_between(5, y)]
        for d_level in (10**4, 10**6):
            total = tau3_divisor_sum(ps, d_level)
            assert total <= d_level * math.log(y) ** 2 * (3 / 14)


def test_divisor_sums_identity():
    # J + I equals 1/V exactly over the divisor lattice
    ps = [int(p) for p in _T.primes_between(5, 45)]  # 11 primes
    assert len(ps) <= 12
    j, i, v = selberg_divisor_sums(ps, 10**4)
    assert j + i == 1 / v


def test_full_level_collapse():
    # D >= P^2 puts every divisor below sqrt(D): J = 1/V, so X/J = X V
    ps = [7, 11, 13, 17, 19, 23, 29, 31]
    big_p = math.prod(ps)
    j, i, v = selberg_divisor_sums(ps, big_p * big_p + 1)
    assert i == 0
    assert j == 1 / v


# -- Selberg main branch ------------------------------------------------------

@pytest.fixture(scope="module")
def table_sel():
    return build_prime_table(501_000)


def test_selberg_upper_at_241(table_sel):
    y = 241.0
    x = y ** 7.5
    eps = optimize_epsilon(x, y, table_sel)
    cfg = make_sieve_config(x, y, table_sel, eps)
    bound = selberg_upper(x, y, cfg, table_sel)
    assert bound < 0.6 * x / math.log(251)


def test_selberg_fixed_eps_top(table_sel):
    y = 499_979.0
    x = y ** 7.5
    cfg = make_sieve_config(x, y, table_sel, 0.085)
    bound = selberg_upper(x, y, cfg, table_sel)
    assert bound < 0.6 * x / math.log(y)


def test_selberg_f_monotone_in_x(table_sel):
    y = 1009.0
    x = y ** 7.5
    eps = 0.1
    f1 = make_sieve_config(x, y, table_sel, eps).f_value
    f2 = make_sieve_config(2 * x, y, table_sel, eps).f_value
    assert f2 < f1


def test_selberg_domain(table_sel):
    x = 239.0 ** 7.5
    cfg = make_sieve_config(x, 239.0, table_sel, 0.1)
    with pytest.raises(DomainError):
        selberg_upper(x, 239.0, cfg, table_sel)
    # absurdly large epsilon makes the Rankin factor blow past 1, and at
    # (1e20, 1000) past the float range, where it reads inf
    for x, y in ((241.0 ** 7.5, 241.0), (1e20, 1000.0)):
        bad = make_sieve_config(x, y, table_sel, 0.9)
        assert bad.f_value >= 1
        with pytest.raises(InfeasibleError):
            selberg_upper(x, y, bad, table_sel)
    assert bad.f_value == math.inf


def test_selberg_upper_refuses_a_config_made_for_another_point(table_sel):
    cfg = make_sieve_config(1e20, 300.0, table_sel, 0.1)
    assert selberg_upper(1e20, 300, cfg, table_sel) > 0
    for x, y in ((-1e20, 300.0), (2e20, 300.0), (1e20, 307.0), (math.nan, 300.0)):
        with pytest.raises(DomainError, match="the sieve configuration is for"):
            selberg_upper(x, y, cfg, table_sel)


@pytest.mark.parametrize("x, y", [(0.0, 241.0), (-5.0, 241.0), (10.0, 1.0), (1e10, 0.5),
                                  (math.nan, 241.0), (1e10, math.nan)])
def test_sieve_level_needs_x_above_0_and_y_above_1(table_sel, x, y):
    # log D needs D > 0, and D = .03 x / (log y)^3 divides by 0 at y = 1
    calls = [default_sieve_level, lambda x, y: make_sieve_config(x, y, table_sel, 0.1)]
    if not y < 241:  # below 241 optimize_epsilon refuses y first
        calls.append(lambda x, y: optimize_epsilon(x, y, table_sel))
    for call in calls:
        with pytest.raises(DomainError, match="the sieve level needs x > 0 and y > 1"):
            call(x, y)


def test_optimizer_local_optimality(table_sel):
    y = 1013.0
    x = y ** 7.5
    eps = optimize_epsilon(x, y, table_sel)

    def f(e):
        return make_sieve_config(x, y, table_sel, e).f_value

    assert f(eps) <= f(eps + 1e-3)
    assert f(eps) <= f(eps - 1e-3)


def test_optimizer_top_half_window(table_sel):
    for y in (260_003.0, 350_003.0, 499_979.0):
        eps = optimize_epsilon(y ** 7.5, y, table_sel)
        assert 0.05 <= eps <= 0.12


def test_optimizer_ladder_in_x(table_sel):
    # raising x raises the sieve level, which rewards a larger exponent while
    # driving the optimal Rankin factor itself toward zero
    y = 2003.0
    eps_ladder = []
    f_ladder = []
    for k in (7.5, 9.0, 12.0):
        eps = optimize_epsilon(y ** k, y, table_sel)
        eps_ladder.append(eps)
        f_ladder.append(make_sieve_config(y ** k, y, table_sel, eps).f_value)
    assert eps_ladder[0] < eps_ladder[1] < eps_ladder[2]
    assert f_ladder[0] > f_ladder[1] > f_ladder[2]


def test_optimizer_matches_bounded_search(table_sel):
    # Newton's minimum of log f against scipy's bounded search over u in [7.5, 12]
    rng = np.random.default_rng(11)
    for y in np.geomspace(241, 5e5, 24):
        x = float(y ** rng.uniform(7.5, 12))

        def log_f(e):
            return math.log(make_sieve_config(x, y, table_sel, e).f_value)

        ref = minimize_scalar(log_f, bounds=EPSILON_BRACKET, method="bounded",
                              options={"xatol": 1e-10}).x
        assert log_f(optimize_epsilon(x, y, table_sel)) == pytest.approx(log_f(ref), rel=1e-12)


def test_optimizer_pins_to_lower_end(table_sel, caplog):
    # at u = 2 the slope of log f is positive already at the lower bracket end
    with caplog.at_level(logging.WARNING, logger="roughbound.sieve_bounds"):
        eps = optimize_epsilon(241.0 ** 2, 241.0, table_sel)
    assert eps == pytest.approx(EPSILON_BRACKET[0], abs=1e-9)
    assert "pinned to bracket boundary" in caplog.text


def test_sweep_small_slice(table_sel):
    rows = selberg_sweep(table_sel, lo=241, hi=1000, target=DEFAULT_TARGET)
    assert rows[0].y == 241
    assert all(r.margin > 0 for r in rows)
    assert all(r.f_value < 1 for r in rows)
    # coefficient recomputes from its parts: V log q / (1 - f) + .006
    r = rows[0]
    ps = table_sel.primes_between(1, r.y).astype(float)
    v_full = float(np.multiply.reduce(1 - 1 / ps))
    coef = v_full * math.log(r.q) / (1 - r.f_value) + 0.006
    assert coef == pytest.approx(r.coefficient, rel=1e-9)


def reference_sweep(table, *, target, lo, hi):
    """The per-pair sweep the vector pass replaced: (pairs x epsilons) prefix
    matrices and an argmin per pair, one (y, q, epsilon, f_value,
    coefficient, margin) tuple per pair.  Oracle for selberg_sweep."""
    eps_grid = np.linspace(0.04, 0.26, 111)

    last = table.next_prime(hi)
    ps = table.primes_between(5, last).astype(np.float64)   # sieving primes 7..last
    # prefix of log(1 + (p^2e - 1)/p) per epsilon, and of log(1 - 1/p)
    mat = np.log1p((ps[:, None] ** (2.0 * eps_grid[None, :]) - 1.0) / ps[:, None])
    cum_eps = np.cumsum(mat, axis=0)
    cum_v = np.cumsum(np.log1p(-1.0 / ps))

    rows = []
    for p in table.primes_between(lo - 1, hi):              # primes in [lo, hi]
        p = int(p)
        q = table.next_prime(p)
        i = int(np.searchsorted(ps, p, side="right")) - 1
        log_q = math.log(q)
        log_d = math.log(SELBERG_D_COEFF) + 7.5 * math.log(p) - 3.0 * math.log(log_q)
        f_vec = np.exp(cum_eps[i] - eps_grid * log_d)
        k = int(np.argmin(f_vec))
        f_best = float(f_vec[k])
        v_full = PRESIEVE_DENSITY * math.exp(cum_v[i])       # product over all p' <= p
        if f_best >= 1.0:
            rows.append((p, q, float(eps_grid[k]), f_best, math.inf, -math.inf))
            continue
        coefficient = v_full * log_q / (1.0 - f_best) + 0.006
        rows.append((p, q, float(eps_grid[k]), f_best, coefficient, target - coefficient))
    return rows


def full_grid_sweep(table, *, target, lo, hi):
    """The sweep before pruning: a running minimum over all 111 grid points,
    each evaluated on every pair.  Oracle for selberg_sweep's bits."""
    eps_grid = np.linspace(0.04, 0.26, 111)

    ps = table.primes_between(5, table.next_prime(hi))
    start = len(ps) - 1 - len(table.primes_between(lo - 1, hi))
    y, q = ps[start:-1], ps[start + 1:]
    ps = ps.astype(np.float64)
    log_q = np.log(q)
    log_d = np.log(SELBERG_D_COEFF) + 7.5 * np.log(y) - 3.0 * np.log(log_q)

    f_best = np.full(len(y), np.inf)
    eps_best = np.full(len(y), eps_grid[0])
    for eps in eps_grid:
        rankin = np.cumsum(np.log1p((ps ** (2.0 * eps) - 1.0) / ps))[start:-1]
        f = np.exp(rankin - eps * log_d)
        better = f < f_best
        f_best[better] = f[better]
        eps_best[better] = eps

    v_full = PRESIEVE_DENSITY * np.exp(np.cumsum(np.log1p(-1.0 / ps))[start:-1])
    coefficient = np.full(len(y), np.inf)
    ok = f_best < 1.0
    coefficient[ok] = v_full[ok] * log_q[ok] / (1.0 - f_best[ok]) + SELBERG_REMAINDER_COEFF
    return {"y": y, "q": q, "epsilon": eps_best, "f_value": f_best,
            "coefficient": coefficient, "margin": target - coefficient}


def assert_same_bits(sweep, oracle):
    assert sweep.dtype.names == tuple(oracle)
    for name, want in oracle.items():
        assert sweep[name].dtype == want.dtype, name
        assert np.array_equal(sweep[name], want), name


@pytest.mark.parametrize("lo, hi", [(241, 500_000), (241, 241), (241, 300), (300, 306),
                                    (5000, 7000), (499_000, 500_000)])
def test_pruned_sweep_has_the_full_grid_bits(table_sel, lo, hi):
    # [300, 306] holds no prime: the sweep is empty
    sweep = selberg_sweep(table_sel, lo=lo, hi=hi, target=DEFAULT_TARGET)
    assert len(sweep) == table_sel.pi(hi) - table_sel.pi(lo - 1)
    assert_same_bits(sweep, full_grid_sweep(table_sel, lo=lo, hi=hi, target=DEFAULT_TARGET))


def _recorded_epsilons(monkeypatch):
    """Record the epsilon of each Rankin pass the sweep makes."""
    seen = []
    terms = sieve_bounds._rankin_terms

    def recorded(ps, eps):
        seen.append(float(eps))
        return terms(ps, eps)

    monkeypatch.setattr(sieve_bounds, "_rankin_terms", recorded)
    return seen


def test_pruned_sweep_starts_at_one_over_log_p(table_sel, monkeypatch):
    seen = _recorded_epsilons(monkeypatch)
    selberg_sweep(table_sel, lo=241, hi=500_000, target=DEFAULT_TARGET)
    # 1 / log 499979 = .0762; the last pair is done 70 grid points on
    assert seen[0] == pytest.approx(0.076, abs=1e-12)
    assert len(seen) == 71


def test_failed_start_check_falls_back_to_the_full_grid(table_sel, monkeypatch):
    # at 1.5 / log p the first guess lies right of the optima (about 1.1 / log p),
    # where the slope of log f is positive: the sweep must start at .04
    monkeypatch.setattr(sieve_bounds, "SWEEP_START_C", 1.5)
    seen = _recorded_epsilons(monkeypatch)
    sweep = selberg_sweep(table_sel, lo=5000, hi=7000, target=DEFAULT_TARGET)
    assert seen[0] == 0.04
    oracle = full_grid_sweep(table_sel, lo=5000, hi=7000, target=DEFAULT_TARGET)
    assert_same_bits(sweep, oracle)
    # without the check, that start would skip the pairs' minima
    monkeypatch.setattr(sieve_bounds, "SWEEP_SLOPE_MARGIN", -math.inf)
    unchecked = selberg_sweep(table_sel, lo=5000, hi=7000, target=DEFAULT_TARGET)
    assert np.all(unchecked.f_value > oracle["f_value"])


def test_sweep_matches_reference(table_sel):
    sweep = selberg_sweep(table_sel, lo=241, hi=30_000, target=DEFAULT_TARGET)
    ref = reference_sweep(table_sel, lo=241, hi=30_000, target=DEFAULT_TARGET)
    assert len(sweep) == len(ref) == table_sel.pi(30_000) - table_sel.pi(240)
    assert sweep.dtype.names == ("y", "q", "epsilon", "f_value", "coefficient", "margin")
    got = sweep.tolist()
    assert [r[:3] for r in got] == [r[:3] for r in ref]     # y, q and the grid point
    np.testing.assert_allclose(np.array([r[3:] for r in got]), np.array([r[3:] for r in ref]),
                               rtol=0, atol=1e-15)


# -- closed-form branch -------------------------------------------------------

def test_closed_form_values():
    assert closed_form_factor(500_000.0) < 1.057
    assert final_large_y_bound(500_000.0) < 0.5995
    assert final_large_y_bound(10**7) < final_large_y_bound(500_000.0)
    assert final_large_y_bound(10**9) < 0.5995


def test_closed_form_rankin_below_one():
    for y in np.geomspace(500_000, 1e12, 25):
        eps = 1 / math.log(y)
        log_d = math.log(0.03) + 7.5 * math.log(y) - 3 * math.log(math.log(y))
        assert math.exp(s_y_closed_form(float(y))) * math.exp(-eps * log_d) < 1


def test_closed_form_domain():
    with pytest.raises(DomainError):
        s_y_closed_form(499_999.0)


@pytest.mark.parametrize("y", [math.nan, 1.0, 0.5, -3.0])
@pytest.mark.parametrize("fn", [s_y_closed_form, closed_form_factor, final_large_y_bound])
def test_closed_form_refuses_y_below_its_domain_before_the_logs(fn, y):
    # log y is 0 at 1 and undefined below; nan fails every comparison
    with pytest.raises(DomainError, match="closed form asserted for y >= 500000"):
        fn(y)


def test_e_gamma_constant():
    assert math.exp(-EULER_GAMMA) == pytest.approx(0.561459483566885, abs=1e-12)


# -- nan inputs ---------------------------------------------------------------

@pytest.mark.parametrize("call", [
    pytest.param(lambda: _T.pi(math.nan), id="pi"),
    pytest.param(lambda: _T.primes_between(0, math.nan), id="primes_between"),
    pytest.param(lambda: _T.primes_between(math.nan, 100), id="primes_between_lo"),
    pytest.param(lambda: _T.next_prime(math.nan), id="next_prime"),
    pytest.param(lambda: mertens_product(_T, math.nan), id="mertens_product"),
    pytest.param(lambda: elementary_bound(100, math.nan, _T), id="elementary_bound"),
    pytest.param(lambda: elementary_bound(math.nan, 100, _T), id="elementary_bound_x"),
    pytest.param(lambda: bonferroni_bound(100, math.nan, _T), id="bonferroni_bound"),
    pytest.param(lambda: bonferroni_bound(math.nan, 100, _T), id="bonferroni_bound_x"),
])
def test_nan_is_domain_error(call):
    # nan compares false with every bound, so each check must reject it by name
    with pytest.raises(DomainError) as excinfo:
        call()
    assert excinfo.type is DomainError  # not OutOfRangeError: nan is no place in the table


# -- dominance across bounds --------------------------------------------------

def test_bounds_dominate_exact_count():
    rng = np.random.default_rng(13)
    for _ in range(100):
        y = float(rng.uniform(2, 100))
        x = int(rng.integers(int(y * y) + 1, 300_000))
        exact = phi_direct(x, y, _T)
        assert elementary_bound(x, y, _T) >= exact
        if y >= 5:
            bound, _ = bonferroni_bound(float(x), y, _T)
            assert bound >= exact
