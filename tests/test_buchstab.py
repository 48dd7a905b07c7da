import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import lambertw, spence

from roughbound.analytic import EULER_GAMMA
from roughbound.buchstab import (
    build_omega,
    locate_extremum,
    mu_y,
    omega_samples,
)
from roughbound.errors import DomainError, ResolutionError

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
    assert omega_table.omega(4.0) == pytest.approx(oracle, abs=1e-12)


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
    small = build_omega(2.5, 1e-10)
    with pytest.raises(ResolutionError):
        locate_extremum(small)


def test_limit_tail(omega_table):
    # tail deviation at u = 8 measured at ~3e-11 by the table itself; the
    # 1e-9 window is two orders above that oracle value
    assert abs(omega_table.omega(8.0) - E_GAMMA_INV) < 1e-9
    assert abs(omega_table.omega(8.0) - E_GAMMA_INV) < 1e-4
    assert omega_table.limit_value == pytest.approx(E_GAMMA_INV, abs=1e-15)


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


def test_grid_refinement(omega_table):
    coarse = build_omega(16.0, 1e-10, grid_n=1024)
    probes = np.linspace(1.0, 16.0, 1000)
    diffs = [abs(coarse.omega(u) - omega_table.omega(u)) for u in probes]
    assert max(diffs) < 1e-10


def test_build_errors():
    with pytest.raises(DomainError):
        build_omega(0.5)
    with pytest.raises(DomainError):
        build_omega(8.0, tol=-1)
    t = build_omega(8.0)
    with pytest.raises(DomainError):
        t.omega(0.9)
    with pytest.raises(DomainError):
        t.omega(8.1)


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
