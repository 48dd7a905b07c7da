"""Logarithmic integral, explicit prime-count constants, ratio functions, and
the library's one root finder.

The module constants below are numerically explicit facts about primes taken
as axioms (they rest on large published computations); every function but
`bracketed_newton` is built from them and from li(x).

Each of those takes a float or a numpy array: a float gives a float, an
array an array of the same shape, with every element computed exactly as a
float argument would be.  An element outside the domain raises for the whole
call.  `bracketed_newton` takes floats only.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _special

from .errors import DomainError, SingularityError

EULER_GAMMA = 0.5772156649015329
MEISSEL_MERTENS_B = 0.2614972128476428
BETA0 = 2.3e-8               # pi(x) < (1+beta0) li(x) for x >= 2
BETA1_SMALL = 0.00624        # Mertens-sum slack, 1100 <= y <= 1e4
MERTENS_SLACK = 2.1e-5       # product < (1+slack) e^-gamma / log y
THETA_DEFECT_SMALL = 1.95    # q - theta(q-) < 1.95 sqrt(q)
RECIP_SUM_COEFF = 1.9036     # |sum 1/p - loglog t - B| bound numerator


def _arg(x):
    """x as a float64 scalar (numpy's fast scalar path) or a float array."""
    return np.asarray(x, dtype=float)[()]


def _any(bad) -> bool:
    """Whether `bad`, a numpy bool or a bool array, holds anywhere; a float's
    test is read directly, not counted."""
    return bool(np.count_nonzero(bad) if isinstance(bad, np.ndarray) else bad)


def _where(cond, a, b):
    """np.where(cond, a, b); for a float's test, the chosen value itself."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _refuse(bad, x, error, text: str) -> None:
    """Raise `error` naming the first element of `x` where `bad` holds."""
    if _any(bad):
        raise error(f"{text}, got {np.asarray(x)[bad].flat[0]}")


def _out(value):
    """A float for a scalar or 0-d result, else the array."""
    return value if getattr(value, "ndim", 0) else float(value)


def mertens_err_window(t):
    """Two-sided bounds (lo, hi) for sum_{p<=t} 1/p - loglog t - B.

    The deviation lies in (0, .00624) on [1100, 1e4), in (0, .00161) on
    [1e4, 1e6), and within 1.9036/(log t)^3 of zero beyond 1e6.  Using the
    window at each endpoint separately is sharper than a single slack
    constant chosen from the lower endpoint's range.
    """
    t = _arg(t)
    _refuse(t < 1100, t, DomainError, "error window asserted only for t >= 1100")
    w = RECIP_SUM_COEFF / np.power(np.log(t), 3)
    lo = _where(t < 1e6, 0.0, -w)
    hi = _where(t < 1e4, BETA1_SMALL, _where(t < 1e6, 0.00161, w))
    return _out(lo), _out(hi)


def li(x):
    """Principal-value logarithmic integral of x.

    Computed as Ei(L) with L = log x, whose implementation handles the
    principal value at t = 1, plus d x / L for the rounding residual
    d = log(x / e^L) of L: near 1e15 neighbouring integers share one double
    L, and without the residual they would share one value of li.  li(0) = 0
    and li is strictly increasing on (1, inf) up to the rounding of Ei (a
    few units in the last place, about 0.004 near 1e15).
    """
    x = _arg(x)
    _refuse(x < 0, x, DomainError, "li needs x >= 0")
    if _any(x == 1):
        raise SingularityError("li has a non-integrable singularity at x = 1")
    if not isinstance(x, np.ndarray):
        return 0.0 if x == 0 else float(_li_above_0(x))
    with np.errstate(divide="ignore", invalid="ignore"):   # x = 0, set below
        return np.where(x == 0, 0.0, _li_above_0(x))


def _li_above_0(x):
    """li(x) for x > 0, x != 1 (see `li`)."""
    big_l = np.log(x)
    residual = np.log1p(x / np.exp(big_l) - 1.0)
    return _special.expi(big_l) + residual * x / big_l


def r_ratio(t):
    """(1 + beta0) li(t) log(t) / t; tends to 1 + beta0 as t grows."""
    t = _arg(t)
    _refuse(t <= 1, t, DomainError, "r_ratio needs t > 1")
    return _out((1.0 + BETA0) * li(t) * np.log(t) / t)


def pi_lower_599(t):
    """t/log t + t/(log t)^2, a lower bound for pi(t) valid for t >= 599."""
    t = _arg(t)
    _refuse(t < 599, t, DomainError, "pi_lower_599 is only asserted for t >= 599")
    lt = np.log(t)
    return _out(t / lt + t / (lt * lt))


def bracketed_newton(step, a: float, b: float, x: float, tol: float) -> float:
    """Root in [a, b] of an increasing g by safeguarded Newton from x.

    `step(x)` returns g(x) and g'(x).  The sign of g narrows the bracket, a
    Newton step that leaves it is replaced by a bisection, and the search
    stops when the step or the bracket is below `tol`, or after 100 steps,
    more than the 47 bisections that take a unit bracket below 1e-14.  A
    root pinned to a bracket end is approached by bisection.
    """
    for _ in range(100):
        g, slope = step(x)
        if g > 0:
            b = x
        else:
            a = x
        newton = x - g / slope
        converged = abs(newton - x) < tol
        x = newton if converged or a < newton < b else 0.5 * (a + b)
        if converged or b - a < tol:
            break
    return x
