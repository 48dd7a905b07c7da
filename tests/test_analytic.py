import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import roughbound
from roughbound.analytic import (
    BETA0,
    BETA1_SMALL,
    EULER_GAMMA,
    MEISSEL_MERTENS_B,
    bracketed_newton,
    li,
    mertens_err_window,
    pi_lower_599,
    r_ratio,
)
from roughbound.errors import DomainError, SingularityError


def recip_sum(table, t):
    """Sum of 1/p over the table's primes p <= t."""
    return float(np.sum(1.0 / table.primes_between(0, t)))


def oracle_li(x):
    """Principal-value integral of 1/log t by quadrature, independent of expi.

    Around the singularity at t = 1 the kernel is written as
    1/log(1+s) - 1/s (smooth, removable) plus 1/s whose principal value
    vanishes over the symmetric window.
    """
    assert x > 1
    a = 0.5  # symmetric window (1-a, 1+a)

    def centered(s):
        return 0.5 if s == 0 else 1.0 / math.log1p(s) - 1.0 / s

    smooth, _ = quad(centered, -a, a, epsabs=1e-13, epsrel=1e-13)
    left, _ = quad(lambda t: 1.0 / math.log(t), 0.0, 1.0 - a, epsabs=1e-13, epsrel=1e-13)
    right, _ = quad(lambda t: 1.0 / math.log(t), 1.0 + a, x, epsabs=1e-13, epsrel=1e-13, limit=200)
    return smooth + left + right


def test_li_special_values():
    assert li(0) == 0.0
    assert li(2) == pytest.approx(1.045163780117492, abs=1e-10)
    assert li(2) == pytest.approx(oracle_li(2), abs=1e-10)
    for x in (3.0, 10.0, 1e4, 1e8):
        assert li(x) == pytest.approx(oracle_li(x), rel=1e-10)


def test_li_errors():
    with pytest.raises(SingularityError):
        li(1)
    with pytest.raises(DomainError):
        li(-0.5)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1.0000001, max_value=1e15), st.floats(min_value=1.0000001, max_value=1e15))
@example(999999999999996.0, 999999999999997.0)  # one double log(x) for both
def test_li_monotone(a, b):
    lo, hi = sorted((a, b))
    if lo < hi:
        assert li(lo) < li(hi)


# li at 40 digits (mpmath.li, once); the test holds only the literals.  From
# 0 to 1/e li takes the continued fraction, from 1/e to 1 the series at L < 0,
# and 1.4150019300012364 is 11^(2 eps) at y = 1e6, a point of the closed form.
LI_LITERALS = [
    (1e-300, "-1.445558628919650927197687726188906823772e-303"),
    (1e-10, "-0.000000000004168887750019648139849051758358064768399"),
    (0.01, "-0.0018297434996255157299378289068530165254"),
    (0.3, "-0.1574149028946894680250157179322485570105"),
    (0.5, "-0.3786710430610879767272071846365609805512"),
    (0.9, "-1.775800683423525147251994494605691767701"),
    (1.01, "-4.022958673929934976891124709495021527728"),
    (1.2, "-0.9337872926672577543963981000536094937899"),
    (1.4150019300012364, "-0.1010979048510149575025675217451442853105"),
    (1.44, "-0.03084717946876359889617437694146581227412"),
    (1.4513, "-0.0001858736629707949303218337112209760587273"),
    (2.0, "1.045163780117492784844588889194613136523"),
    (1e4, "1246.137215899388459692771107529059792487"),
    (1e15, "29844571475287.5810649058905859859430815"),
    (1e20, "2220819602783663483.548305532067778823948"),
    (1e300, "1.449750052669336365059039839805422974402e+297"),
]


@pytest.mark.parametrize("x, value", LI_LITERALS)
def test_li_against_high_precision(x, value):
    # a relative 4e-15, or an absolute 4e-16 next to li's zero at 1.4513
    near_zero = 1.3 < x < 1.6
    assert li(x) == pytest.approx(float(value), rel=4e-15, abs=4e-16 if near_zero else 0.0)


def test_li_at_the_ends_of_its_domain():
    # in a subprocess with a timeout: a series that never stops would hang here.
    # li(inf) warns of inf / inf in the residual, as it did with scipy's expi.
    code = """
import math
import numpy as np
from roughbound.analytic import li
xs = [1e308, math.inf, math.nan, 5e-324]
got = [li(x) for x in xs] + list(li(np.array(xs + [2.0])))[:4]
for big, top, not_a_number, tiny in (got[:4], got[4:]):
    assert math.isclose(big, 1.412040882618694e305, rel_tol=4e-15), big
    assert math.isnan(top) and math.isnan(not_a_number), (top, not_a_number)
    assert tiny == 0.0 and math.copysign(1.0, tiny) == -1.0, tiny
assert np.array_equal(got[:4], got[4:], equal_nan=True)
"""
    src = os.path.dirname(os.path.dirname(roughbound.__file__))
    subprocess.run([sys.executable, "-W", "ignore", "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": src})


def test_partial_summation_constant(table_small):
    # sum of exact theta-weighted integrals over [2, 10] plus the li defect is
    # comfortably below -.144, the constant absorbed into the pi upper bound
    knots = [2, 3, 5, 7, 10]
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        theta = math.fsum(math.log(p) for p in table_small.primes_between(0, a).tolist())
        total += theta * (1 / math.log(a) - 1 / math.log(b))
    c = total + (1 + BETA0) * (10 / math.log(10) - li(10))
    assert c < -0.144
    assert c > -0.15


def test_r_ratio():
    e2 = math.exp(2)
    assert r_ratio(e2) == pytest.approx((1 + BETA0) * oracle_li(e2) * 2 / e2, rel=1e-9)
    assert 1 < r_ratio(1e10) < 1.1
    assert r_ratio(599) > 1 + 1 / math.log(599)
    with pytest.raises(DomainError):
        r_ratio(1.0)


def test_pi_lower_599(table_1m):
    assert pi_lower_599(599) < table_1m.pi(599) == 109
    assert pi_lower_599(1e4) < table_1m.pi(1e4)
    assert pi_lower_599(1e6) < table_1m.pi(1e6)
    with pytest.raises(DomainError):
        pi_lower_599(598)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=2.5, max_value=1e6), st.floats(min_value=2.5, max_value=1e6))
def test_antiderivative_identity(a, b):
    # the integrand 1/(log t)^2 has antiderivative li(t) - t/log t
    lo, hi = sorted((a, b))
    if hi - lo < 1e-6:
        return
    val, _ = quad(lambda t: 1.0 / math.log(t) ** 2, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=200)
    closed = (li(hi) - hi / math.log(hi)) - (li(lo) - lo / math.log(lo))
    assert val == pytest.approx(closed, rel=1e-8, abs=1e-9)


def test_bracketed_newton_bisects_a_step_that_leaves_the_bracket():
    # atan is flat at 5: the Newton step lands at 5 - 26 atan(5) = -30.7, outside
    # [-10, 10], so the second point is the bisection of [-10, 5]
    points = []

    def step(x):
        points.append(x)
        return math.atan(x), 1.0 / (1.0 + x * x)

    root = bracketed_newton(step, -10.0, 10.0, 5.0, 1e-14)
    assert points[:2] == [5.0, -2.5]
    assert abs(root) < 1e-14
    assert len(points) < 20


def test_context_constants():
    assert math.exp(-EULER_GAMMA) == pytest.approx(0.561459483566885, abs=1e-12)
    assert BETA0 == 2.3e-8
    assert BETA1_SMALL == 0.00624


def test_mertens_err_window():
    assert mertens_err_window(2000) == (0.0, 0.00624)
    assert mertens_err_window(1e5) == (0.0, 0.00161)
    lo, hi = mertens_err_window(1e8)
    assert lo == -hi
    assert hi == pytest.approx(1.9036 / math.log(1e8) ** 3)
    with pytest.raises(DomainError):
        mertens_err_window(1000)


def test_window_consistent_with_table(table_1m):
    # the window really contains the measured deviation on the sieve range
    for t in (1100, 5000, 1e4, 1e5, 5e5, 1e6 - 7):
        dev = recip_sum(table_1m, t) - math.log(math.log(t)) - MEISSEL_MERTENS_B
        lo, hi = mertens_err_window(t)
        assert lo < dev < hi


def test_pair_sum_slack_direction(table_1m):
    # sum over y < p <= sqrt(x) of 1/p stays below log(log sqrt(x)/log y) + beta1
    rng = np.random.default_rng(23)
    for _ in range(25):
        y = float(rng.uniform(1100, 30_000))
        u = float(rng.uniform(2.0, 3.0))
        rx = y ** (u / 2)
        if rx > 1e6:
            continue
        s = recip_sum(table_1m, rx) - recip_sum(table_1m, y)
        slack = 0.00624 if y < 1e4 else 0.00322
        assert s < math.log(math.log(rx) / math.log(y)) + slack
        assert s > math.log(math.log(rx) / math.log(y)) - slack


@pytest.mark.parametrize("fn, domain", [
    (li, lambda x: (x >= 0) & (x != 1)),
    (r_ratio, lambda t: t > 1),
    (pi_lower_599, lambda t: t >= 599),
    (mertens_err_window, lambda t: t >= 1100),
])
def test_array_forms_match_scalar_calls(fn, domain):
    # the domain and window edges with one ulp either side, then a log-uniform spread
    edges = np.array([0.0, 0.5, 2.0, 599.0, 1100.0, 1e4, 1e6, 1e12, 1e15])
    spread = np.exp(np.random.default_rng(41).uniform(0.0, math.log(1e15), 400))
    xs = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf), spread])
    xs = xs[domain(xs)]
    want = np.array([fn(float(x)) for x in xs]).T
    assert np.array_equal(np.array(fn(xs)), want)
    assert np.shape(fn(xs[:, None]))[-2:] == (len(xs), 1)


def test_scalar_forms_return_floats():
    for value in (li(2), li(np.float64(2.0)), li(0.0), r_ratio(10.0), pi_lower_599(599),
                  *mertens_err_window(2000), *mertens_err_window(1e8)):
        assert type(value) is float


@pytest.mark.parametrize("call, error", [
    (lambda: li(np.array([2.0, -1.0, 3.0])), DomainError),
    (lambda: li(np.array([2.0, 1.0])), SingularityError),
    (lambda: r_ratio(np.array([[2.0, 3.0], [1.0, 4.0]])), DomainError),
    (lambda: pi_lower_599(np.array([600.0, np.nextafter(599.0, 0.0)])), DomainError),
    (lambda: mertens_err_window(np.array([1e8, np.nextafter(1100.0, 0.0)])), DomainError),
])
def test_array_forms_refuse_any_bad_element(call, error):
    with pytest.raises(error):
        call()


def _non_finite_calls():
    """Calls with a nan or an infinite argument, each outside its domain."""
    from roughbound.phi import max_statistic, scan_rough_interval
    from roughbound.pipeline import iteration_tail_epsilon, small_u_coefficient, verify_selberg
    from roughbound.sieve_bounds import (bonferroni_x_bound, closed_form_factor,
                                         elementary_x_bound, final_large_y_bound,
                                         lemma2_remainder, make_sieve_config, s_y_closed_form,
                                         selberg_sweep)
    nan, inf = math.nan, math.inf
    return {
        "r_ratio(nan)": lambda t: r_ratio(nan),
        "r_ratio(inf)": lambda t: r_ratio(inf),
        "pi_lower_599(nan)": lambda t: pi_lower_599(nan),
        "pi_lower_599(inf)": lambda t: pi_lower_599(inf),
        "mertens_err_window(nan)": lambda t: mertens_err_window(nan),
        "mertens_err_window(inf)": lambda t: mertens_err_window(inf),
        "mertens_err_window([2000, nan])": lambda t: mertens_err_window(np.array([2000.0, nan])),
        "small_u_coefficient(nan, 2.5)": lambda t: small_u_coefficient(nan, 2.5),
        "small_u_coefficient(1100, nan)": lambda t: small_u_coefficient(1100.0, nan),
        "small_u_coefficient(inf, 2.5)": lambda t: small_u_coefficient(inf, 2.5),
        "s_y_closed_form(inf)": lambda t: s_y_closed_form(inf),
        "closed_form_factor(inf)": lambda t: closed_form_factor(inf),
        "final_large_y_bound(inf)": lambda t: final_large_y_bound(inf),
        "elementary_x_bound(3, nan)": lambda t: elementary_x_bound(3, nan, t),
        "elementary_x_bound(3, inf)": lambda t: elementary_x_bound(3, inf, t),
        "bonferroni_x_bound(100, nan)": lambda t: bonferroni_x_bound(100, nan, t),
        "max_statistic(5, 7, nan)": lambda t: max_statistic(5, 7, nan, t),
        "scan_rough_interval(target=nan)": lambda t: scan_rough_interval(t, 5, 7, 100, target=nan),
        "scan_rough_interval(x_cap=nan)": lambda t: scan_rough_interval(t, 5, 7, nan),
        "selberg_sweep(target=nan)": lambda t: selberg_sweep(t, lo=241, hi=300, target=nan),
        "selberg_sweep(target=inf)": lambda t: selberg_sweep(t, lo=241, hi=300, target=inf),
        "verify_selberg(target=nan)": lambda t: verify_selberg(t, target=nan),
        "make_sieve_config(epsilon=nan)": lambda t: make_sieve_config(1e20, 300.0, t, nan),
        "make_sieve_config(epsilon=inf)": lambda t: make_sieve_config(1e20, 300.0, t, inf),
        "lemma2_remainder(nan, 7)": lambda t: lemma2_remainder(nan, 7.0),
        "lemma2_remainder(100, nan)": lambda t: lemma2_remainder(100.0, nan),
        "iteration_tail_epsilon(nan)": lambda t: iteration_tail_epsilon(nan),
        "iteration_tail_epsilon(inf)": lambda t: iteration_tail_epsilon(inf),
    }


@pytest.mark.parametrize("name", list(_non_finite_calls()))
def test_non_finite_arguments_raise_domain_error(table_small, name):
    # a nan fails every comparison, so each domain test is written as
    # "not (holds)"; the message names the value refused
    with pytest.raises(DomainError, match=r"\b(nan|inf)\b"):
        _non_finite_calls()[name](table_small)
