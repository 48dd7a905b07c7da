"""Logarithmic integral, explicit prime-count constants, ratio functions, and
the library's one root finder.

The module constants below are numerically explicit facts about primes taken
as axioms (they rest on large published computations); every function but
`bracketed_newton` is built from them and from li(x).

Each of those takes a float or a numpy array: a float gives a float, an
array an array of the same shape, with every element computed exactly as a
float argument would be.  An element outside the domain (nan and inf too, li
aside) raises for the whole call.  `bracketed_newton` takes floats only.
"""

from __future__ import annotations

import numpy as np

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
    _refuse(~((t >= 1100) & (t < np.inf)), t, DomainError, "error window needs finite t >= 1100")
    w = RECIP_SUM_COEFF / np.power(np.log(t), 3)
    lo = _where(t < 1e6, 0.0, -w)
    hi = _where(t < 1e4, BETA1_SMALL, _where(t < 1e6, 0.00161, w))
    return _out(lo), _out(hi)


def li(x):
    """Principal-value logarithmic integral of x.

    Computed as Ei(L) with L = log x, plus d x / L for the rounding residual
    d = log(x / e^L) of L: near 1e15 neighbouring integers share one double
    L, and without the residual they would share one value of li.  li(0) = 0.

    For L >= -1, Ei(L) = gamma + log|L| + sum_{k>=1} L^k / (k k!), whose
    terms are all positive for L > 0.  The sum stops at the first term below
    2^-54 of it, which is past the largest term.  That term and every later
    one are below half an ulp of the sum, whatever their sign, so adding
    them would change nothing: an array element gets a float's bits even
    when its loop runs on.  For L < -1, Ei(L) = -E1(-L) by a continued
    fraction of fixed depth.  Against 40-digit values, on 1,500 log-uniform
    points each, the relative error was at most 1.9e-15 on [2, 1e20] and
    7.6e-15 on [1e20, 1e308], and the absolute error at most 3.3e-16 on
    [1.3, 1.6], around li's zero at 1.4513.  li is increasing on (1, inf)
    only up to that rounding: from 1e15, 24 of 2,000 consecutive integer
    steps do not increase it (27 when it took Ei from an outside library).
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
    return _ei(big_l) + residual * x / big_l


_SERIES_STOP = 2.0 ** -54
# the series at L = 709.78, the log of the largest double, stops at k = 1948;
# an infinite or nan L runs to the end and gives nan
_SERIES_TERMS = 2048
# the continued fraction converges slowest at z = 1, where depth 120 is within
# 1.3e-16 of E1
_CF_DEPTH = 128


def _ei(big_l):
    """Ei(L) for a float or an array L != 0 (see `li`)."""
    if not isinstance(big_l, np.ndarray):
        if big_l < -1:
            return -_e1(-big_l)
        return EULER_GAMMA + np.log(np.abs(big_l)) + _ei_series(big_l)
    flat = big_l.ravel()
    out = np.empty_like(flat)
    low = flat < -1
    if low.any():   # the continued fraction's 128 steps, skipped on an empty array
        out[low] = -_e1(-flat[low])
    rest = flat[~low]
    out[~low] = EULER_GAMMA + np.log(np.abs(rest)) + _ei_series(rest)
    return out.reshape(big_l.shape)


def _ei_series(big_l):
    """sum_{k>=1} L^k / (k k!) for a float or a 1-d array L >= -1, to the
    first term below _SERIES_STOP of the running sum.

    A float runs in Python floats.  An array runs the same operations in
    place, sorted by |L| so that the elements that stop first form a prefix,
    which is cut off every 4 terms.
    """
    if not isinstance(big_l, np.ndarray):
        big_l = float(big_l)
        total = t = big_l
        for k in range(2, _SERIES_TERMS):
            t *= big_l / k       # L^k / k!, which stays below e^L: no overflow
            term = t / k
            if abs(term) < _SERIES_STOP * abs(total):
                break
            total += term
        return total
    order = np.argsort(np.abs(big_l), kind="stable")
    big_l = big_l[order]
    total, t, term = big_l.copy(), big_l.copy(), np.empty_like(big_l)
    done = 0
    for k in range(2, _SERIES_TERMS):
        t[done:] *= big_l[done:] / k
        np.divide(t[done:], k, out=term[done:])
        if k % 4 == 0:
            stopped = np.abs(term[done:]) < _SERIES_STOP * np.abs(total[done:])
            done += stopped.size if stopped.all() else int(np.argmin(stopped))
            if done == big_l.size:
                break
        total[done:] += term[done:]
    out = np.empty_like(total)
    out[order] = total
    return out


def _e1(z):
    """E1(z) for a float or an array z > 1: e^-z / (z + 1 - 1/(z + 3 - 4/(z + 5
    - ...))), evaluated from depth _CF_DEPTH up."""
    f = z + (2 * _CF_DEPTH + 1)
    for n in range(_CF_DEPTH - 1, -1, -1):
        f = z + (2 * n + 1) - (n + 1) ** 2 / f
    return np.exp(-z) / f


def r_ratio(t):
    """(1 + beta0) li(t) log(t) / t; tends to 1 + beta0 as t grows."""
    t = _arg(t)
    _refuse(~((t > 1) & (t < np.inf)), t, DomainError, "r_ratio needs finite t > 1")
    return _out((1.0 + BETA0) * li(t) * np.log(t) / t)


def pi_lower_599(t):
    """t/log t + t/(log t)^2, a lower bound for pi(t) valid for t >= 599."""
    t = _arg(t)
    _refuse(~((t >= 599) & (t < np.inf)), t, DomainError, "pi_lower_599 needs finite t >= 599")
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
