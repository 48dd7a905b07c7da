"""Numerical solution of the delay equation for the density of rough numbers.

omega(u) satisfies u*omega(u) = 1 on [1, 2] and (u*omega(u))' = omega(u - 1)
beyond, so it is built segment by segment: [1, 2] and [2, 3] have closed
forms, and each later unit segment integrates the previous one.  Nodes are
pinned at the integers, where omega loses a derivative, so no interpolant or
quadrature ever straddles a kink.  Above 3 the table is one piecewise cubic
whose breakpoints include every integer.

mu_y(u) = integral of omega(t) y^-(u - t) over t in [1, u] is a fixed rule.
The range stops at u - V, where the dropped tail, at most e^(-V log y)/log y
since omega <= 1, is a hundredth of MU_Y_TOL relative to the value; the rest
is split at the integers and into equal sub-pieces with h log y <= 8.  Each
sub-piece takes a 32-point Gauss-Legendre rule, which gives the value, and a
16-point one; the error estimate is the rules' summed distance plus the tail
bound.  omega and the exponential are evaluated at all nodes in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analytic import bracketed_newton
from .errors import DomainError, NumericError, ResolutionError, ResourceError

DEFAULT_U_MAX = 16.0
# build_omega takes about 0.8 ms and 80 KB per unit of u_max.  omega is within
# 3e-11 of e^-gamma at u = 8, and the gap shrinks faster than exponentially.
OMEGA_U_LIMIT = 100.0
MU_Y_TOL = 1e-11        # mu_y's error estimate must stay below this share of its value
_TAIL_SHARE = 0.01      # of MU_Y_TOL: the most of it that mu_y's dropped tail may take
_GRID_N = 2048
_MAX_LH = 8.0           # a Gauss-Legendre sub-piece spans at most this many e-foldings of y^-v


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


_X32, _W32 = _gauss_legendre(32)
_X16, _W16 = _gauss_legendre(16)
_NODES = np.concatenate([_X32, _X16])


def _omega_12(u):
    return 1.0 / u


def _omega_23(u):
    return (1.0 + np.log(u - 1.0)) / u


@dataclass
class BuchstabTable:
    """Piecewise representation of omega(u) on [1, u_max]: closed forms on
    [1, 3] and one piecewise cubic (None when u_max <= 3) above."""

    u_max: float
    _poly: PPoly | None = field(default=None, repr=False)

    def omega(self, u) -> float:
        u = float(u)
        if not 1.0 <= u <= self.u_max:
            raise DomainError(f"omega is tabulated on [1, {self.u_max}], got {u}")
        if u <= 2.0:
            return float(_omega_12(u))
        if u <= 3.0:
            return float(_omega_23(u))
        return float(self._poly(u))

    def omega_many(self, us) -> np.ndarray:
        """omega at every point of `us` (any shape), equal to `omega` point by point."""
        us = np.asarray(us, dtype=float)
        inside = (us >= 1.0) & (us <= self.u_max)
        if not inside.all():
            raise DomainError(f"omega is tabulated on [1, {self.u_max}], got {us[~inside][0]}")
        out = np.empty_like(us)
        low, high = us <= 2.0, us > 3.0
        mid = ~(low | high)
        out[low] = _omega_12(us[low])
        out[mid] = _omega_23(us[mid])
        if high.any():
            out[high] = self._poly(us[high])
        return out


def build_omega(u_max: float = DEFAULT_U_MAX) -> BuchstabTable:
    """Build the omega table by the method of steps.

    On [k, k+1] the values come from u*omega(u) = k*omega(k) + integral of
    omega(t-1) over [k, u], where the previous segment is represented by a
    cubic spline with exact endpoint derivatives; the spline's antiderivative
    supplies the integral.  Interpolation error is O(_GRID_N^-4).  The
    segments above 3 are kept as one PPoly with their coefficients unchanged.
    u_max above OMEGA_U_LIMIT is refused.
    """
    if not u_max >= 1:
        raise DomainError(f"u_max must be >= 1, got {u_max}")
    if u_max > OMEGA_U_LIMIT:
        raise ResourceError(f"an omega table to u_max={u_max} exceeds the limit {OMEGA_U_LIMIT}")
    if u_max <= 3.0:
        return BuchstabTable(u_max=float(u_max))
    # here only, so that importing the package (and the certificate) needs no scipy
    from scipy.interpolate import CubicSpline, PPoly

    def deriv(u, om_u, om_um1):
        # u*omega' + omega = omega(u-1)
        return (om_um1 - om_u) / u

    # Machine-accurate spline copy of the closed form on [2, 3]; only used
    # as the integrand source for the first numeric segment.
    xs = np.linspace(2.0, 3.0, _GRID_N + 1)
    ys = _omega_23(xs)
    prev = CubicSpline(xs, ys, bc_type=((1, deriv(2.0, 0.5, 1.0)),          # omega(1) = 1
                                        (1, deriv(3.0, ys[-1], _omega_12(2.0)))))
    breaks, coeffs = [np.array([3.0])], []
    k = 3.0
    while k < u_max:
        hi = min(k + 1.0, u_max)
        xs = np.linspace(k, hi, _GRID_N + 1)
        antiderivative = prev.antiderivative()
        ys = (k * float(prev(k)) + (antiderivative(xs - 1.0) - antiderivative(k - 1.0))) / xs
        d_lo = deriv(k, ys[0], float(prev(k - 1.0)))
        d_hi = deriv(hi, ys[-1], float(prev(hi - 1.0)))
        prev = CubicSpline(xs, ys, bc_type=((1, d_lo), (1, d_hi)))
        breaks.append(xs[1:])
        coeffs.append(prev.c)
        k += 1.0
    return BuchstabTable(u_max=float(u_max),
                         _poly=PPoly(np.concatenate(coeffs, axis=1), np.concatenate(breaks)))


def _extremum_23():
    """Argmax and maximum of the closed form (1 + log(u-1))/u on [2, 3].

    The argmax is the root of h(u) = u/(u-1) - 1 - log(u-1), which falls
    from 1 at u = 2 to -0.19 at u = 3; `bracketed_newton` finds it as the
    root of -h, which rises, from 2.5.
    """
    def step(u):
        d = u - 1.0
        return math.log(d) - (u / d - 1.0), 1.0 / d ** 2 + 1.0 / d   # -h and -h', exactly

    u = bracketed_newton(step, 2.0, 3.0, 2.5, 1e-14)
    return u, (1.0 + math.log(u - 1.0)) / u


def locate_extremum(table: BuchstabTable):
    """Global maximum of omega on [2, u_max] and its location.

    The maximum lies in the closed-form segment [2, 3]; the piecewise cubic
    beyond is scanned at its breakpoints to confirm nothing exceeds it.
    """
    if table.u_max < 3.0:
        raise ResolutionError("locate_extremum needs u_max >= 3 to bracket the maximum")
    u_star, m0 = _extremum_23()
    if table._poly is not None:
        values = table._poly(table._poly.x)
        i = int(np.argmax(values))
        if values[i] > m0:  # never expected: omega swings stay below the [2,3] peak
            u_star, m0 = float(table._poly.x[i]), float(values[i])
    return u_star, m0


def _mu_y_rule(u: float, log_y: float, table: BuchstabTable):
    """(value, error estimate) of mu_y for u > 1, as set out in mu_y."""
    lo = max(1.0, u - math.log(2.0 / (_TAIL_SHARE * MU_Y_TOL)) / log_y)
    tail = math.exp(-(u - lo) * log_y) / log_y if lo > 1.0 else 0.0
    ends = [lo, *range(math.floor(lo) + 1, math.ceil(u)), u]   # split at the integers inside
    starts, widths = [], []
    for a, b in zip(ends, ends[1:]):
        n = max(1, math.ceil((b - a) * log_y / _MAX_LH))
        h = (b - a) / n
        starts += [a + j * h for j in range(n)]
        widths += [h] * n
    h = np.array(widths)
    t = np.array(starts)[:, None] + h[:, None] * _NODES
    f = table.omega_many(t) * np.exp((t - u) * log_y)
    i32 = h * np.sum(f[:, :_W32.size] * _W32, axis=1)
    i16 = h * np.sum(f[:, _W32.size:] * _W16, axis=1)
    return float(np.sum(i32)), float(np.sum(np.abs(i32 - i16))) + tail


def mu_y(u: float, y: float, table: BuchstabTable) -> float:
    """Integral of omega(u - v) * y^-v over v in [0, u-1].

    This is the main term of the sharper product-form approximation.  With
    t = u - v it is the integral of omega(t) y^-(u - t) over [1, u], taken
    over [max(1, u - V), u] with e^(-V log y) = _TAIL_SHARE * MU_Y_TOL / 2:
    the dropped tail is at most e^(-V log y) / log y since omega <= 1, and
    the kept part at least (1 - e^(-V log y)) / (2 log y) since omega >= 1/2,
    so the tail takes about a hundredth of the tolerance.  The kept range is
    split at the integers, where omega loses a derivative, and into equal
    sub-pieces with h log y <= 8; each takes a 32-point Gauss-Legendre rule
    (the value) and a 16-point one.  The error estimate, the sum of the two
    rules' distances plus the tail bound, must stay below MU_Y_TOL times the
    value, else NumericError.
    """
    u, y = float(u), float(y)
    if not u >= 1.0:
        raise DomainError(f"mu_y needs u >= 1, got {u}")
    if not 2.0 <= y < math.inf:
        raise DomainError(f"mu_y needs finite y >= 2, got {y}")
    if u > table.u_max:
        raise DomainError(f"u={u} exceeds table coverage {table.u_max}")
    if u == 1.0:
        return 0.0
    value, err = _mu_y_rule(u, math.log(y), table)
    if err > MU_Y_TOL * value:
        raise NumericError(f"mu_y error estimate {err} exceeds {MU_Y_TOL} of its value {value}")
    return value


def omega_samples(table: BuchstabTable, lo: float = 1.0, hi: float = 8.0, step: float = 1e-3) -> np.ndarray:
    """(u, omega(u)) sample rows, used for CSV export of the graph data."""
    us = np.arange(lo, hi + 0.5 * step, step)
    us = us[us <= table.u_max]
    return np.column_stack([us, table.omega_many(us)])
