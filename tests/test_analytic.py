import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from roughbound.analytic import (
    BETA0,
    BETA1_SMALL,
    EULER_GAMMA,
    MEISSEL_MERTENS_B,
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
