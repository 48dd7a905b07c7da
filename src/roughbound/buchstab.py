"""Numerical solution of the delay equation for the density of rough numbers.

omega(u) satisfies u*omega(u) = 1 on [1, 2] and (u*omega(u))' = omega(u - 1)
beyond, so it is built segment by segment: [1, 2] and [2, 3] have closed
forms, and each later unit segment integrates the previous one.  Nodes are
pinned at the integers, where omega loses a derivative, so no interpolant or
quadrature ever straddles a kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .analytic import EULER_GAMMA
from .errors import DomainError, NumericError, ResolutionError
from .gss import golden_section_max

DEFAULT_U_MAX = 16.0
DEFAULT_TOL = 1e-10
_GRID_N = 2048


def _omega_12(u):
    return 1.0 / u


def _omega_23(u):
    return (1.0 + np.log(u - 1.0)) / u


@dataclass
class BuchstabTable:
    """Piecewise representation of omega(u) on [1, u_max]."""

    u_max: float
    tol: float
    m0: float
    u_star: float
    limit_value: float = field(default=math.exp(-EULER_GAMMA))
    _splines: dict = field(default_factory=dict, repr=False)

    def omega(self, u) -> float:
        u = float(u)
        if u < 1.0 or u > self.u_max:
            raise DomainError(f"omega is tabulated on [1, {self.u_max}], got {u}")
        if u <= 2.0:
            return float(_omega_12(u))
        if u <= 3.0:
            return float(_omega_23(u))
        k = min(int(math.floor(u)), max(self._splines))
        return float(self._splines[k](u))

    def omega_many(self, us) -> np.ndarray:
        return np.array([self.omega(u) for u in np.asarray(us, dtype=float)])


def build_omega(u_max: float = DEFAULT_U_MAX, tol: float = DEFAULT_TOL, *, grid_n: int = _GRID_N) -> BuchstabTable:
    """Build the omega table by the method of steps.

    On [k, k+1] the values come from u*omega(u) = k*omega(k) + integral of
    omega(t-1) over [k, u], where the previous segment is represented by a
    cubic spline with exact endpoint derivatives; the spline's antiderivative
    supplies the integral.  Interpolation error is O(grid_n^-4), far below the
    default tolerance.
    """
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    if u_max < 1:
        raise DomainError(f"u_max must be >= 1, got {u_max}")

    splines: dict[int, CubicSpline] = {}

    def deriv(u, om_u, om_um1):
        # u*omega' + omega = omega(u-1)
        return (om_um1 - om_u) / u

    if u_max > 2.0:
        # Machine-accurate spline copy of the closed form on [2, 3]; only used
        # as the integrand source for the first numeric segment.
        hi = min(3.0, u_max)
        xs = np.linspace(2.0, hi, grid_n + 1)
        ys = _omega_23(xs)
        d_lo = deriv(2.0, 0.5, 1.0)          # omega(1) = 1
        d_hi = deriv(hi, ys[-1], _omega_12(hi - 1.0))
        prev = CubicSpline(xs, ys, bc_type=((1, d_lo), (1, d_hi)))
        splines[2] = prev

        k = 3
        while k < u_max:
            hi = min(k + 1.0, u_max)
            xs = np.linspace(float(k), hi, grid_n + 1)
            anchor = k * float(prev(float(k)))
            integral = prev.antiderivative()(xs - 1.0) - prev.antiderivative()(float(k) - 1.0)
            ys = (anchor + integral) / xs
            d_lo = deriv(float(k), ys[0], float(prev(float(k) - 1.0)) if k > 3 else _omega_23(float(k) - 1.0))
            om_hi_m1 = float(prev(hi - 1.0))
            d_hi = deriv(hi, ys[-1], om_hi_m1)
            spline = CubicSpline(xs, ys, bc_type=((1, d_lo), (1, d_hi)))
            splines[k] = spline
            prev = spline
            k += 1

    if u_max >= 3.0:
        u_star, m0 = _extremum_23()
    else:
        u_star, m0 = 2.0, 0.5

    return BuchstabTable(u_max=float(u_max), tol=float(tol), m0=m0, u_star=u_star, _splines=splines)


def _extremum_23():
    # Golden-section only brackets the flat maximum to ~sqrt(eps); polish the
    # argmax by Newton on the stationarity equation u/(u-1) = 1 + log(u-1),
    # whose root is well-conditioned.
    u, _ = golden_section_max(lambda t: (1.0 + math.log(t - 1.0)) / t, 2.0, 3.0, tol=1e-8)
    for _ in range(6):
        h = u / (u - 1.0) - 1.0 - math.log(u - 1.0)
        dh = -1.0 / (u - 1.0) ** 2 - 1.0 / (u - 1.0)
        step = h / dh
        u -= step
        if abs(step) < 1e-14:
            break
    return u, (1.0 + math.log(u - 1.0)) / u


def locate_extremum(table: BuchstabTable):
    """Global maximum of omega on [2, u_max] and its location.

    The maximum lies in the closed-form segment [2, 3]; segments beyond are
    scanned at their grid nodes to confirm nothing exceeds it.
    """
    if table.u_max < 3.0:
        raise ResolutionError("locate_extremum needs u_max >= 3 to bracket the maximum")
    u_star, m0 = _extremum_23()
    for k, spline in table._splines.items():
        if k == 2:
            continue
        peak = float(np.max(spline(spline.x)))
        if peak > m0:  # never expected: omega swings stay below the [2,3] peak
            u_star = float(spline.x[int(np.argmax(spline(spline.x)))])
            m0 = peak
    return u_star, m0


def mu_y(u: float, y: float, table: BuchstabTable, tol: float | None = None) -> float:
    """Integral of omega(u - v) * y^-v over v in [0, u-1].

    This is the main term of the sharper product-form approximation; the
    integrand is split at every point where u - v crosses an integer so the
    quadrature only ever sees smooth pieces.
    """
    if u < 1:
        raise DomainError(f"mu_y needs u >= 1, got {u}")
    if y < 2:
        raise DomainError(f"mu_y needs y >= 2, got {y}")
    if u > table.u_max:
        raise DomainError(f"u={u} exceeds table coverage {table.u_max}")
    if u == 1.0:
        return 0.0
    tol = table.tol if tol is None else tol
    log_y = math.log(y)

    def integrand(v):
        return table.omega(u - v) * math.exp(-v * log_y)

    breaks = sorted({u - k for k in range(2, int(math.floor(u)) + 1) if 0.0 < u - k < u - 1.0})
    val, err = quad(integrand, 0.0, u - 1.0, points=breaks or None, epsabs=tol, epsrel=tol, limit=200)
    if err > max(tol, 1e-13) * 10 + 1e-15:
        raise NumericError(f"mu_y quadrature error estimate {err} exceeds tolerance {tol}")
    return float(val)


def omega_samples(table: BuchstabTable, lo: float = 1.0, hi: float = 8.0, step: float = 1e-3) -> np.ndarray:
    """(u, omega(u)) sample rows, used for CSV export of the graph data."""
    us = np.arange(lo, hi + 0.5 * step, step)
    us = us[us <= table.u_max]
    return np.column_stack([us, table.omega_many(us)])
