"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized to finish in a few minutes on a laptop.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from scipy.special import lambertw

from divisor_oracles import selberg_divisor_sums, tau3_divisor_sum
from roughbound.analytic import EULER_GAMMA
from roughbound.buchstab import build_omega, locate_extremum
from roughbound.phi import phi_direct, phi_legendre, phi_two_prime
from roughbound.pipeline import (
    C3_SMALL_U,
    MID_Y,
    SELBERG_CLOSED,
    SELBERG_FINITE,
    SMALL_U,
    SMALL_U_EXHAUSTIVE_MAX,
    SMALL_Y,
    BoundReport,
    PipelineConfig,
    run_full_pipeline,
    verify_iteration,
)
from roughbound.primes import build_prime_table
from roughbound.sieve_bounds import (
    bonferroni_bound,
    default_sieve_level,
    elementary_bound,
    lemma2_remainder,
    newton_elementary,
)

FULL_PRECISION_BOUNDS = {22, 51, 96, 370, 613, 1603, 2753, 6296, 17539, 30519, 76932}
REGION_COUNT = 6


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def table():
    return build_prime_table(501_000)


@pytest.fixture(scope="module")
def full_report():
    # one default run (target .6, cap 3e7, small-u cap 500, default context),
    # on the 501k prime table it builds itself, supplies every region
    # certificate below
    return run_full_pipeline(PipelineConfig())


def _cert(report_obj, region):
    return next(c for c in report_obj.certificates if c.region == region)


@pytest.fixture(scope="module")
def small_y_cert(full_report):
    return _cert(full_report, SMALL_Y)


@pytest.fixture(scope="module")
def mid_y_cert(full_report):
    return _cert(full_report, MID_Y)


@pytest.fixture(scope="module")
def selberg_certs(full_report):
    return _cert(full_report, SELBERG_FINITE), _cert(full_report, SELBERG_CLOSED)


@pytest.fixture(scope="module")
def small_u_cert(full_report):
    return _cert(full_report, SMALL_U)


def test_criterion_1_reference_table_reproduction(small_y_cert):
    rows = small_y_cert.rows
    assert len(rows) == 19
    exact_ok = all(r["x_bound"] == r["x_bound_printed"]
                   for r in rows if r["x_bound_printed"] in FULL_PRECISION_BOUNDS)
    rounded_ok = all(r["x_bound_match"] for r in rows)
    stats_ok = all(abs(r["max_stat"] - r["max_printed"]) <= 1e-5 for r in rows)
    worst = max(abs(r["max_stat"] - r["max_printed"]) for r in rows)
    report(1, exact_ok and rounded_ok and stats_ok,
           f"19 rows; exact bounds match={exact_ok}, rounded match={rounded_ok}, "
           f"max-stat worst deviation {worst:.2e} (tol 1e-5)")


def test_criterion_2_exhaustive_below_241(small_y_cert, mid_y_cert):
    small_viol = sum(r["violations"] for r in small_y_cert.rows if r["y_lo"] >= 3)
    two_three = next(r for r in small_y_cert.rows if r["y_lo"] == 2)
    mid_viol = sum(r["violations"] for r in mid_y_cert.rows)
    bounds_ok = mid_y_cert.params["max_x_bound"] < 30_000_000
    ok = (small_viol == 0 and mid_viol == 0 and bounds_ok
          and small_y_cert.verified and mid_y_cert.verified
          and two_three["violations"] == 1)
    report(2, ok,
           f"zero violations for 3 <= y < 241 (small-y {small_viol}, mid-y {mid_viol}); "
           f"largest truncation x-bound {mid_y_cert.params['max_x_bound']:,} < 3e7; "
           f"[2,3) has exactly the x=9 exception")


def test_criterion_3_density_extremum():
    t = build_omega(16.0)
    u_star, m0 = locate_extremum(t)
    w = float(lambertw(1.0).real)
    tail = abs(t.omega(8.0) - math.exp(-EULER_GAMMA))
    ok = (abs(m0 - 0.567143290409783) < 1e-9
          and abs(u_star - 2.76322283417162) < 1e-6
          and t.omega(2.0) == 0.5
          and tail < 1e-9            # tail oracle measures ~3e-11 at u = 8
          and abs(m0 - w) < 1e-12)
    report(3, ok,
           f"m0 off by {abs(m0 - 0.567143290409783):.1e} (tol 1e-9), "
           f"u* off by {abs(u_star - 2.76322283417162):.1e} (tol 1e-6), "
           f"omega(2)=0.5 exactly, |omega(8)-e^-gamma|={tail:.1e}")


def test_criterion_4_selberg_finite_branch(selberg_certs, table):
    finite, _ = selberg_certs
    # remainder identity is algebraic under the sieve-level rule
    ident_ok = True
    for y in (241.0, 4001.0, 499_979.0):
        x = y ** 7.5
        rem = lemma2_remainder(y, default_sieve_level(x, y))
        ident_ok &= math.isclose(rem, 0.006 * x / math.log(y), rel_tol=1e-12)
    ok = finite.verified and finite.margin > 0 and ident_ok
    report(4, ok,
           f"{finite.params['pairs']} prime pairs in [241, 500000], min margin "
           f"{finite.margin:.6f} > 0 at y={finite.params['worst_y']}; "
           f"remainder = .006 x / log y holds to 1e-12")


def test_criterion_5_selberg_closed_branch(selberg_certs):
    _, closed = selberg_certs
    p = closed.params
    ok = (closed.verified
          and p["factor_at_500k"] < 1.057
          and p["coefficient_at_500k"] < 0.5995
          and p["factor_decreasing"])
    report(5, ok,
           f"factor {p['factor_at_500k']:.6f} < 1.057, coefficient "
           f"{p['coefficient_at_500k']:.6f} < .5995, decreasing over grid to 1e12")


def test_criterion_6_small_u(small_u_cert):
    p = small_u_cert.params
    ok = (small_u_cert.verified
          and p["analytic_max"] < C3_SMALL_U
          and p["exhaustive_max"] < SMALL_U_EXHAUSTIVE_MAX)
    report(6, ok,
           f"analytic grid max {p['analytic_max']:.6f} < {C3_SMALL_U} at "
           f"(y,u)={tuple(p['analytic_at'])}; exhaustive max below y = "
           f"{p['boxes'][0]['y'][1]} is {p['exhaustive_max']:.6f} < {SMALL_U_EXHAUSTIVE_MAX} "
           f"(cap 1100 available via --paper-scale)")


def test_criterion_7_iteration(table):
    cert = verify_iteration(table)
    ok = cert.verified and cert.margin > 0
    worst = cert.params["worst"]
    report(7, ok,
           f"chain c3(1+eps3 log q0)^5 < .6 for all primes 241 <= q0 < 1500 and "
           f"tail probes {cert.params['tail_probes'][:3]}...; min margin "
           f"{cert.margin:.6f} (worst q0={worst['q0']})")


def test_criterion_8_property_suites(table):
    rng = np.random.default_rng(99)
    # cross-method agreement
    agree = True
    for _ in range(60):
        x = int(rng.integers(1, 50_000))
        y = float(rng.uniform(2, 50))
        agree &= phi_direct(x, y, table) == phi_legendre(x, y, table)
    for _ in range(20):
        y = int(rng.integers(11, 79))
        q = table.next_prime(y)
        x = int(rng.integers(y * y, min(q ** 3, 400_000)))
        agree &= phi_two_prime(x, y, table) == phi_direct(x, y, table)

    # bound dominance
    dominance = True
    for _ in range(60):
        y = float(rng.uniform(2, 120))
        x = int(rng.integers(int(y * y) + 1, 200_000))
        exact = phi_direct(x, y, table)
        dominance &= elementary_bound(x, y, table) >= exact
        if y >= 5:
            dominance &= bonferroni_bound(float(x), y, table)[0] >= exact

    # Newton identities vs subset enumeration
    ps = [int(p) for p in table.primes_between(5, 50)]
    vals = [1 / p for p in ps]
    pows = [sum(v ** k for v in vals) for k in (1, 2, 3, 4)]
    es = newton_elementary(*pows)
    newton_ok = all(
        math.isclose(es[j - 1], sum(math.prod(c) for c in combinations(vals, j)),
                     rel_tol=1e-12, abs_tol=1e-15)
        for j in (1, 2, 3, 4)
    )

    # divisor-lattice identity J + I = 1/V
    ps12 = [int(p) for p in table.primes_between(5, 45)]
    j, i, v = selberg_divisor_sums(ps12, 10 ** 5)
    lattice_ok = (j + i == 1 / v)

    # tau_3 enumeration vs the (log y)^2 estimate
    tau_ok = True
    for y in (53, 100, 241):
        primes_y = [int(p) for p in table.primes_between(5, y)]
        for d in (10 ** 4, 10 ** 6):
            tau_ok &= tau3_divisor_sum(primes_y, d) <= d * math.log(y) ** 2 * (3 / 14)

    ok = agree and dominance and newton_ok and lattice_ok and tau_ok
    report(8, ok,
           f"cross-method agreement={agree}, dominance={dominance}, "
           f"newton={newton_ok}, divisor identity={lattice_ok}, tau3 bound={tau_ok}")


def test_full_report_default_config(full_report):
    # the default configuration produces all six certificates, verified
    assert len(full_report.certificates) == REGION_COUNT
    assert full_report.verdict
    assert all(c.verified for c in full_report.certificates)
    assert len(full_report.table1) == 19
    assert BoundReport.from_json(full_report.to_json()) == full_report
    print(f"[full pipeline] PASS - all {REGION_COUNT} certificates verified; "
          f"margins {[round(c.margin, 6) for c in full_report.certificates]}")
