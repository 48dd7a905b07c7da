"""Numerical solution of the delay equation for the density of rough numbers.

omega(u) satisfies u*omega(u) = 1 on [1, 2] and (u*omega(u))' = omega(u - 1)
beyond, so it is built segment by segment: [1, 2] and [2, 3] have closed
forms, and each later unit segment integrates the previous one, as one power
series per segment (Marsaglia, Zaman and Marsaglia, Math. Comp. 53, 1989;
Cheer and Goldston, Math. Comp. 55, 1990).  Segments end at the integers,
where omega loses a derivative, so no series or quadrature straddles a kink.

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
# build_omega takes about 15 us and 330 bytes per unit of u_max above 3.  omega is
# within 3e-11 of e^-gamma at u = 8, and the gap shrinks faster than exponentially.
OMEGA_U_LIMIT = 100.0
MU_Y_TOL = 1e-11        # mu_y's error estimate must stay below this share of its value
_TAIL_SHARE = 0.01      # of MU_Y_TOL: the most of it that mu_y's dropped tail may take
_DEGREE = 40            # of omega's series on each unit segment; its terms fall by 3 or more
_EXTREMUM_STEPS = 2048  # locate_extremum checks omega above 3 at this many steps per unit
_MAX_LH = 8.0           # a Gauss-Legendre sub-piece spans at most this many e-foldings of y^-v


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


_X32, _W32 = _gauss_legendre(32)
_X16, _W16 = _gauss_legendre(16)
_NODES = np.concatenate([_X32, _X16])


def _omega_23(u):
    return (1.0 + np.log(u - 1.0)) / u


def _horner(coef, t):
    """The sum of coef[j] t^j by Horner's rule, for a list and a float or for rows shaped as t."""
    acc = coef[-1]
    for c in coef[-2::-1]:
        acc = acc * t + c
    return acc


def _divide(num, m):
    """The coefficients of num(t) / (m + t), to the degree of num."""
    out, b = [], 0.0
    for c in num:
        b = (c - b) / m
        out.append(b)
    return out


@dataclass
class BuchstabTable:
    """omega(u) on [1, u_max]: closed forms on [1, 3], and above, row k - 3 of
    `_coef` holds the power series of omega on [k, k+1] in t = u - (k + 1/2)."""

    u_max: float
    _coef: np.ndarray = field(repr=False)

    def omega(self, u) -> float:
        u = float(u)
        if not 1.0 <= u <= self.u_max:
            raise DomainError(f"omega is tabulated on [1, {self.u_max}], got {u}")
        if u <= 2.0:
            return 1.0 / u
        if u <= 3.0:
            return float(_omega_23(u))
        i = min(int(u) - 3, len(self._coef) - 1)
        return _horner(self._coef[i].tolist(), u - (i + 3.5))

    def omega_many(self, us) -> np.ndarray:
        """omega at every point of `us` (any shape), equal to `omega` point by point."""
        us = np.asarray(us, dtype=float)
        inside = (us >= 1.0) & (us <= self.u_max)
        if not inside.all():
            raise DomainError(f"omega is tabulated on [1, {self.u_max}], got {us[~inside][0]}")
        out = np.empty_like(us)
        low, high = us <= 2.0, us > 3.0
        mid = ~(low | high)
        out[low] = 1.0 / us[low]
        out[mid] = _omega_23(us[mid])
        if high.any():
            i = np.minimum(us[high].astype(int) - 3, len(self._coef) - 1)
            out[high] = _horner(self._coef[i].T, us[high] - (i + 3.5))
        return out


def build_omega(u_max: float = DEFAULT_U_MAX) -> BuchstabTable:
    """Build the omega table, one power series per unit segment above 3.

    On [k, k+1], in t = u - (k + 1/2), u*omega(u) is k*omega(k) plus the
    integral of omega(s - 1), the previous segment's series in the same t: so
    each series integrates the one before term by term, takes its constant
    from omega(k), and is divided by k + 1/2 + t.  omega on [k, k+1] is
    analytic but at u = k - 1, so the terms fall by 3 or more at |t| <= 1/2.
    u_max above OMEGA_U_LIMIT is refused.
    """
    if not u_max >= 1:
        raise DomainError(f"u_max must be >= 1, got {u_max}")
    if u_max > OMEGA_U_LIMIT:
        raise ResourceError(f"an omega table to u_max={u_max} exceeds the limit {OMEGA_U_LIMIT}")
    # omega on [2, 3] in t = u - 2.5, where log(1.5 + t) = log 1.5 - sum of (-t/1.5)^j / j
    rows = [_divide([1.0 + math.log(1.5)] + [-(-1.0 / 1.5) ** j / j for j in range(1, _DEGREE + 1)], 2.5)]
    for k in range(3, math.ceil(u_max)):
        # u*omega(u) in t, its constant set so that it is k*omega(k) at t = -1/2
        integral = [0.0] + [c / (j + 1) for j, c in enumerate(rows[-1][:-1])]
        integral[0] = k * _horner(rows[-1], 0.5) - _horner(integral, -0.5)
        rows.append(_divide(integral, k + 0.5))
    return BuchstabTable(u_max=float(u_max), _coef=np.array(rows[1:]))


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

    The maximum lies in the closed-form segment [2, 3]; beyond it omega is
    checked at _EXTREMUM_STEPS even steps of each unit segment to confirm
    nothing exceeds it.
    """
    if table.u_max < 3.0:
        raise ResolutionError("locate_extremum needs u_max >= 3 to bracket the maximum")
    u_star, m0 = _extremum_23()
    if table.u_max > 3.0:
        ks = np.arange(3.0, table.u_max)
        us = np.linspace(ks, np.minimum(ks + 1.0, table.u_max), _EXTREMUM_STEPS + 1, axis=1).ravel()
        values = table.omega_many(us)
        i = int(np.argmax(values))
        if values[i] > m0:  # never expected: omega swings stay below the [2,3] peak
            u_star, m0 = float(us[i]), float(values[i])
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
