import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import lambertw, spence

from roughbound import buchstab
from roughbound.analytic import EULER_GAMMA
from roughbound.buchstab import (
    _mu_y_rule,
    build_omega,
    locate_extremum,
    mu_y,
    omega_samples,
)
from roughbound.errors import DomainError, NumericError, ResolutionError, ResourceError

E_GAMMA_INV = math.exp(-EULER_GAMMA)

REF_M0 = 0.567143290409783
REF_U_STAR = 2.76322283417162


def test_closed_segments(omega_table):
    assert omega_table.omega(1.5) == pytest.approx(2 / 3, abs=1e-15)
    assert omega_table.omega(2.0) == 0.5
    assert omega_table.omega(2.5) == pytest.approx((1 + math.log(1.5)) / 2.5, abs=1e-15)


def test_omega4_dilog_oracle(omega_table):
    # on [3, 4]: u w(u) = (1 + log 2) + int_2^3 (1 + log(s-1))/s ds, and the
    # remaining integral has the closed dilogarithm form below
    li2 = lambda z: float(spence(1.0 - z))  # dilogarithm Li_2(z)
    integral = math.log(1.5) + math.log(2) * math.log(3) + li2(-2.0) - li2(-1.0)
    oracle = (1 + math.log(2) + integral) / 4.0
    assert omega_table.omega(4.0) == pytest.approx(oracle, abs=1e-15)


def test_extremum(omega_table):
    u_star, m0 = locate_extremum(omega_table)
    assert m0 == pytest.approx(REF_M0, abs=1e-9)
    assert u_star == pytest.approx(REF_U_STAR, abs=1e-6)
    # independent characterization: m0 solves w e^w = 1, u* = 1 + 1/m0
    w = float(lambertw(1.0).real)
    assert m0 == pytest.approx(w, abs=1e-12)
    assert u_star == pytest.approx(1 + 1 / w, abs=1e-8)
    # stationarity of the closed form at the argmax
    assert u_star / (u_star - 1) == pytest.approx(1 + math.log(u_star - 1), abs=1e-9)


def test_extremum_needs_range():
    small = build_omega(2.5)
    with pytest.raises(ResolutionError):
        locate_extremum(small)


def test_limit_tail(omega_table):
    # tail deviation at u = 8 measured at ~3e-11 by the table itself; the
    # 1e-9 window is two orders above that oracle value
    assert abs(omega_table.omega(8.0) - E_GAMMA_INV) < 1e-9
    assert abs(omega_table.omega(8.0) - E_GAMMA_INV) < 1e-4


def test_oscillation(omega_table):
    us = np.arange(2.0, 8.0, 1e-3)
    vals = omega_table.omega_many(us) - E_GAMMA_INV
    assert vals.max() > 0
    assert vals.min() < 0
    assert omega_table.omega(2.0) == 0.5
    assert np.all(omega_table.omega_many(np.arange(2, 16.01, 0.125)) >= 0.5 - 1e-12)


def test_integral_form_consistency(omega_table):
    for u in (2.5, 3.7, 5.2, 7.9, 11.3):
        lhs = u * omega_table.omega(u) - 2 * omega_table.omega(2.0)
        rhs, _ = quad(lambda s: omega_table.omega(s - 1), 2.0, u,
                      points=[k for k in range(3, int(u) + 1)], limit=200)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_lower_degree_moves_no_value(omega_table, monkeypatch):
    # the series' terms fall by 3 or more, so ten fewer of them change nothing
    monkeypatch.setattr(buchstab, "_DEGREE", buchstab._DEGREE - 10)
    shorter = build_omega(16.0)
    probes = np.linspace(3.0, 16.0, 100_001)
    assert np.max(np.abs(shorter.omega_many(probes) - omega_table.omega_many(probes))) <= 1e-14


@pytest.mark.parametrize("k", range(3, 16))
def test_continuous_at_the_integers(omega_table, k):
    # each side of k is its own segment (at 3, the closed form and the first series)
    below, above = math.nextafter(k, 0.0), math.nextafter(k, math.inf)
    assert abs(omega_table.omega(below) - omega_table.omega(above)) <= 1e-14
    assert abs(omega_table.omega(k) - omega_table.omega(below)) <= 1e-14


def test_limit_to_4_ulps(omega_table):
    assert abs(omega_table.omega(16.0) - E_GAMMA_INV) <= 4 * math.ulp(E_GAMMA_INV)


def test_integral_form_to_the_limit():
    # u w(u) - k w(k) = int_k^u w(s - 1) ds on every unit segment to 100, by
    # a 20-point Gauss-Legendre rule, exact to rounding since w(s - 1) is one
    # analytic piece there
    table = build_omega(100.0)
    x, w = np.polynomial.legendre.leggauss(20)
    for k in range(3, 100):
        for u in (k + 0.25, k + 0.5, k + 1.0):
            s = k + 0.5 * (u - k) * (x + 1.0)
            rhs = 0.5 * (u - k) * np.dot(w, table.omega_many(s - 1.0))
            assert abs(u * table.omega(u) - k * table.omega(k) - rhs) <= 1e-12


def test_build_errors():
    with pytest.raises(DomainError):
        build_omega(0.5)
    t = build_omega(8.0)
    with pytest.raises(DomainError):
        t.omega(0.9)
    with pytest.raises(DomainError):
        t.omega(8.1)


def test_build_refuses_a_table_past_the_limit():
    assert build_omega(buchstab.OMEGA_U_LIMIT).u_max == buchstab.OMEGA_U_LIMIT
    with pytest.raises(ResourceError, match="limit 100"):
        build_omega(100.5)


def test_mu_y(omega_table):
    assert mu_y(1.0, 10.0, omega_table) == 0.0
    oracle, _ = quad(lambda v: (1.0 / (2.0 - v)) * 10.0 ** (-v), 0.0, 1.0,
                     epsabs=1e-12, epsrel=1e-12)
    assert mu_y(2.0, 10.0, omega_table) == pytest.approx(oracle, abs=1e-10)
    # large-y behaviour: dominated by the v = 0 endpoint
    approx = omega_table.omega(3.0) / math.log(1e6)
    assert mu_y(3.0, 1e6, omega_table) == pytest.approx(approx, rel=0.1)
    with pytest.raises(DomainError):
        mu_y(17.0, 10.0, omega_table)
    with pytest.raises(DomainError):
        mu_y(0.5, 10.0, omega_table)


def reference_mu_y(u, y, table):
    """The adaptive quadrature the fixed rule replaced: scipy quad of
    omega(u - v) y^-v over v in [0, u-1], split where u - v crosses an
    integer.  Oracle for mu_y, at 1e-14 where mu_y asked 1e-10: at that
    tolerance quad is off by a relative 5e-10 at u = 2.0390625, y = e^436."""
    if u == 1.0:
        return 0.0
    log_y = math.log(y)

    def integrand(v):
        return table.omega(u - v) * math.exp(-v * log_y)

    breaks = sorted({u - k for k in range(2, int(math.floor(u)) + 1) if 0.0 < u - k < u - 1.0})
    val, _ = quad(integrand, 0.0, u - 1.0, points=breaks or None, epsabs=1e-14, epsrel=1e-14,
                  limit=200)
    return val


def closed_form_mu_y(u, y):
    """mu_y for u <= 3 from omega's closed forms, by quad at 1e-14: independent
    of the table and of the rule."""
    log_y = math.log(y)
    pieces = ((1.0, min(u, 2.0), lambda t: 1.0 / t), (2.0, u, lambda t: (1.0 + math.log(t - 1.0)) / t))
    return sum(quad(lambda t: w(t) * math.exp((t - u) * log_y), a, b, epsabs=1e-14, epsrel=1e-14,
                    limit=200)[0] for a, b, w in pieces if a < b)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1.0, max_value=16.0), st.floats(min_value=math.log(2.0), max_value=690.0))
def test_mu_y_matches_quadrature(omega_table, u, log_y):
    y = max(2.0, math.exp(log_y))
    ref = reference_mu_y(u, y, omega_table)
    assert abs(mu_y(u, y, omega_table) - ref) <= 1e-11 * ref + 1e-15


_EDGE_U = [1.0 + 1e-9] + sorted({k + d for k in range(1, 17) for d in (-1e-12, 0.0, 1e-12)
                                 if 1.0 < k + d <= 16.0})


@pytest.mark.parametrize("y", [2.0, 1e300])
@pytest.mark.parametrize("u", _EDGE_U)
def test_mu_y_edges(omega_table, u, y):
    # u next to every integer, where the rule's pieces split, and the ends
    # of the table and of the y range
    ref = reference_mu_y(u, y, omega_table)
    assert abs(mu_y(u, y, omega_table) - ref) <= 1e-11 * ref + 1e-15


@pytest.mark.parametrize("u, y", [(2.0, 1e30), (2.2, 1e20), (2.5, 1e15), (3.0, 1e12)])
def test_mu_y_estimate_covers_dropped_tail(omega_table, u, y):
    # at these (u, y) the rule leaves out the start of [1, u]; its error
    # estimate must still bound the distance to the whole integral.  Near
    # log y = 690, rounding t - u alone moves the integrand by a relative
    # 3e-13, more than the tail, so these points keep log y below 70.
    value, err = _mu_y_rule(u, math.log(y), omega_table)
    assert abs(value - closed_form_mu_y(u, y)) <= err


def test_mu_y_value_is_the_32_point_rule():
    # Both rules agree to about 1e-14 on the real omega, so only an integrand
    # that tells them apart shows which one gives the value: with this omega
    # the integrand is the Legendre polynomial P_40 on [1, u], whose integral
    # is 0.  The 32-point rule is exact to degree 63; the 16-point one, which
    # only serves the error estimate, misses by about 0.005.
    u, log_y = 1.75, math.log(2.0)        # log y this small keeps [1, u] one piece
    p40 = np.polynomial.Legendre.basis(40, domain=[1.0, u])

    class PolynomialOmega:
        def omega_many(self, t):
            return p40(t) * np.exp(-(t - u) * log_y)

    value, err = _mu_y_rule(u, log_y, PolynomialOmega())
    assert abs(value) < 1e-14
    assert err > 1e-3


def test_mu_y_refuses_estimate_above_tolerance(omega_table, monkeypatch):
    monkeypatch.setattr(buchstab, "MU_Y_TOL", 1e-20)
    with pytest.raises(NumericError):
        mu_y(8.5, 1e6, omega_table)


def test_omega_many_equals_omega(omega_table):
    rng = np.random.default_rng(0)
    us = np.concatenate([rng.uniform(1.0, 16.0, 10_000 - 16), np.arange(1.0, 17.0)])
    got = omega_table.omega_many(us.reshape(100, 100))
    assert got.ravel().tolist() == [omega_table.omega(u) for u in us]


@pytest.mark.parametrize("call", [
    lambda t: t.omega(math.nan),
    lambda t: t.omega_many([2.0, math.nan]),
    lambda t: mu_y(math.nan, 10.0, t),
    lambda t: mu_y(5.0, math.nan, t),
    lambda t: mu_y(5.0, math.inf, t),
], ids=["omega_nan", "omega_many_nan", "mu_y_u_nan", "mu_y_y_nan", "mu_y_y_inf"])
def test_non_finite_is_domain_error(omega_table, call):
    with pytest.raises(DomainError):
        call(omega_table)


def test_omega_samples(omega_table):
    rows = omega_samples(omega_table, 1.0, 8.0, 1e-3)
    us = rows[:, 0]
    ws = rows[:, 1]
    at2 = np.argmin(np.abs(us - 2.0))
    assert ws[at2] == pytest.approx(0.5, abs=1e-9)
    # the 1/u ramp on [1,2) tops at 1; the sampled extremum beyond it is m0
    assert ws[us >= 2.0].max() == pytest.approx(REF_M0, abs=1e-6)
    assert ws.max() == pytest.approx(1.0, abs=1e-12)
    assert rows.shape[1] == 2
