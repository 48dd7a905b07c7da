"""Logarithmic integral, explicit prime-count constants, and ratio functions.

The module constants below are numerically explicit facts about primes taken
as axioms (they rest on large published computations); everything else here
is built from them and from li(x).
"""

from __future__ import annotations

import math

from scipy import special as _special

from .errors import DomainError, SingularityError

EULER_GAMMA = 0.5772156649015329
MEISSEL_MERTENS_B = 0.2614972128476428
BETA0 = 2.3e-8               # pi(x) < (1+beta0) li(x) for x >= 2
BETA1_SMALL = 0.00624        # Mertens-sum slack, 1100 <= y <= 1e4
MERTENS_SLACK = 2.1e-5       # product < (1+slack) e^-gamma / log y
THETA_DEFECT_SMALL = 1.95    # q - theta(q-) < 1.95 sqrt(q)
RECIP_SUM_COEFF = 1.9036     # |sum 1/p - loglog t - B| bound numerator
QUADRATURE_TOL = 1e-12       # absolute quadrature tolerance, relative to x


def mertens_err_window(t: float) -> tuple[float, float]:
    """Two-sided bounds (lo, hi) for sum_{p<=t} 1/p - loglog t - B.

    The deviation lies in (0, .00624) on [1100, 1e4), in (0, .00161) on
    [1e4, 1e6), and within 1.9036/(log t)^3 of zero beyond 1e6.  Using the
    window at each endpoint separately is sharper than a single slack
    constant chosen from the lower endpoint's range.
    """
    if t < 1100:
        raise DomainError(f"error window asserted only for t >= 1100, got {t}")
    if t < 1e4:
        return 0.0, BETA1_SMALL
    if t < 1e6:
        return 0.0, 0.00161
    w = RECIP_SUM_COEFF / math.log(t) ** 3
    return -w, w


def li(x: float) -> float:
    """Principal-value logarithmic integral of x.

    Computed as Ei(L) with L = log x, whose implementation handles the
    principal value at t = 1, plus d x / L for the rounding residual
    d = log(x / e^L) of L: near 1e15 neighbouring integers share one double
    L, and without the residual they would share one value of li.  li(0) = 0
    and li is strictly increasing on (1, inf) up to the rounding of Ei (a
    few units in the last place, about 0.004 near 1e15).
    """
    if x < 0:
        raise DomainError(f"li needs x >= 0, got {x}")
    if x == 0:
        return 0.0
    if x == 1:
        raise SingularityError("li has a non-integrable singularity at x = 1")
    big_l = math.log(x)
    residual = math.log1p(x / math.exp(big_l) - 1.0)
    return float(_special.expi(big_l)) + residual * x / big_l


def r_ratio(t: float) -> float:
    """(1 + beta0) li(t) log(t) / t; tends to 1 + beta0 as t grows."""
    if t <= 1:
        raise DomainError(f"r_ratio needs t > 1, got {t}")
    return (1.0 + BETA0) * li(t) * math.log(t) / t


def pi_lower_599(t: float) -> float:
    """t/log t + t/(log t)^2, a lower bound for pi(t) valid for t >= 599."""
    if t < 599:
        raise DomainError(f"pi_lower_599 is only asserted for t >= 599, got {t}")
    lt = math.log(t)
    return t / lt + t / (lt * lt)
