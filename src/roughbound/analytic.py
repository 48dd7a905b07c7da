"""Logarithmic integral, explicit prime-count constants, and ratio functions.

The constants collected in :class:`AnalyticContext` are numerically explicit
facts about primes taken as axioms (they rest on large published
computations); everything else here is built from them and from li(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as _special

from .errors import DomainError, SingularityError

EULER_GAMMA = 0.5772156649015329
MEISSEL_MERTENS_B = 0.2614972128476428


@dataclass(frozen=True)
class AnalyticContext:
    """Read-only bundle of explicit constants and the quadrature tolerance."""

    beta0: float = 2.3e-8               # pi(x) < (1+beta0) li(x) for x >= 2
    beta1_small: float = 0.00624        # Mertens-sum slack, 1100 <= y <= 1e4
    beta1_large: float = 0.00322        # Mertens-sum slack, y >= 1e4
    euler_gamma: float = EULER_GAMMA
    meissel_mertens_b: float = MEISSEL_MERTENS_B
    mertens_slack: float = 2.1e-5       # product < (1+slack) e^-gamma / log y
    theta_defect_small: float = 1.95    # q - theta(q-) < 1.95 sqrt(q)
    theta_defect_large: float = 3.965   # |theta(t) - t| < 3.965 t / (log t)^2
    recip_sum_coeff: float = 1.9036     # |sum 1/p - loglog t - B| bound numerator
    quadrature_tol: float = 1e-12

    def beta1(self, y: float) -> float:
        """Mertens-sum slack valid from y upward; two published ranges."""
        if y < 1100:
            raise DomainError(f"beta1 constants are only asserted for y >= 1100, got {y}")
        return self.beta1_small if y < 1e4 else self.beta1_large

    def mertens_err_window(self, t: float) -> tuple[float, float]:
        """Two-sided bounds (lo, hi) for sum_{p<=t} 1/p - loglog t - B.

        The deviation lies in (0, .00624) on [1100, 1e4), in (0, .00161) on
        [1e4, 1e6), and within 1.9036/(log t)^3 of zero beyond 1e6.  Using the
        window at each endpoint separately is sharper than a single slack
        constant chosen from the lower endpoint's range.
        """
        if t < 1100:
            raise DomainError(f"error window asserted only for t >= 1100, got {t}")
        if t < 1e4:
            return 0.0, self.beta1_small
        if t < 1e6:
            return 0.0, 0.00161
        w = self.recip_sum_coeff / math.log(t) ** 3
        return -w, w


DEFAULT_CONTEXT = AnalyticContext()


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


def r_ratio(t: float, ctx: AnalyticContext = DEFAULT_CONTEXT) -> float:
    """(1 + beta0) li(t) log(t) / t; tends to 1 + beta0 as t grows."""
    if t <= 1:
        raise DomainError(f"r_ratio needs t > 1, got {t}")
    return (1.0 + ctx.beta0) * li(t) * math.log(t) / t


def pi_lower_599(t: float) -> float:
    """t/log t + t/(log t)^2, a lower bound for pi(t) valid for t >= 599."""
    if t < 599:
        raise DomainError(f"pi_lower_599 is only asserted for t >= 599, got {t}")
    lt = math.log(t)
    return t / lt + t / (lt * lt)
