"""Upper bounds for the rough-number count: inclusion-exclusion, a pre-sieved
Bonferroni truncation, and a numerically explicit Selberg sieve.

The Selberg branch sieves the integers coprime to 30 (density 4/15, remainder
at most 14/15 per divisor) with the primes in (5, y]; the sieve level is tied
to the target through D = .03 x / (log y)^3 so that the remainder term is
exactly one percent of the target .6 x / log y.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analytic import BETA0, EULER_GAMMA, MERTENS_SLACK, bracketed_newton, li
from .errors import DomainError, InfeasibleError
from .primes import PrimeTable, mertens_product

log = logging.getLogger(__name__)

# Sum of 1/p over the pre-sieved primes 2, 3, 5, kept exact until use.
_PRESIEVE_RECIP = Fraction(1, 2) + Fraction(1, 3) + Fraction(1, 5)  # = 31/30
_LI_11, _LI_E2 = li(11.0), li(math.exp(2.0))   # the y-free li terms of the closed form
PRESIEVE_DENSITY = 4.0 / 15.0
PRESIEVE_REMAINDER = 14.0 / 15.0
PRESIEVE_EXCLUDED_FACTOR = 3.0 / 14.0   # product of (1 + 2/p)^-1 over p = 2, 3, 5
SELBERG_D_COEFF = 0.03
SELBERG_REMAINDER_COEFF = 0.006   # the remainder over x / log y at D = .03 x / (log y)^3
SELBERG_MIN_Y = 241
CLOSED_FORM_MIN_Y = 500_000
EPSILON_BRACKET = (1e-3, 0.5)
EPSILON_TOL = 1e-6         # an optimum this close to a bracket end is reported as pinned
_NEWTON_TOL = 1e-12        # the epsilon search stops at a step or bracket this small
SWEEP_START_C = 1.0        # the sweep's first guess: the grid point at or below this / log p
SWEEP_SLOPE_MARGIN = 0.1   # m_s: it starts there if every pair's d log f / d eps < -m_s
SWEEP_RISE_MARGIN = 1e-4   # m_r: a pair is done once f exceeds its minimum by this share


# ---------------------------------------------------------------------------
# elementary inclusion-exclusion
# ---------------------------------------------------------------------------

def elementary_bound(x: float, y: float, table: PrimeTable) -> float:
    """x * prod_{p<=y}(1 - 1/p) + 2^(pi(y)-1), an upper bound for Phi(x, y).

    For y < 2 the empty-product convention would give x + 1/2; the bound is
    clamped to ceil(x), which the exact count floor(x) never exceeds.
    """
    if not x >= 1:
        raise DomainError(f"elementary bound needs x >= 1, got {x}")
    if y != y:  # nan would take the empty-product branch below
        raise DomainError("elementary bound needs a number y, got nan")
    k = table.pi(y) if y >= 2 else 0
    if k == 0:
        return float(math.ceil(x))
    return x * mertens_product(table, y) + _elementary_remainder(k, y)


def _elementary_remainder(k: int, y: float) -> float:
    """2^(k-1), the elementary bound's remainder over the k primes <= y."""
    if k > 1024:
        raise InfeasibleError(f"the remainder 2^{k - 1} at y={y} overflows a float")
    return 2.0 ** (k - 1)


def _least_crossover(y: float, density: float, const: float, target: float,
                     table: PrimeTable) -> int:
    """Least integer X0 with density*x + const < target*x/log(q) for every
    x >= X0, where q is the first prime above y (the worst log in [y, q))."""
    if not math.isfinite(target):
        raise DomainError(f"target must be finite, got {target}")
    q = table.next_prime(y)
    slope = target / math.log(q) - density
    if slope <= 0:
        raise InfeasibleError(f"target {target} never beats the density {density} at y={y}")

    def beats(x: float) -> bool:
        return density * x + const < target * x / math.log(q)

    if const / slope >= 2.0 ** 53:  # past 2^53, x0 - 1 rounds back to x0 in the float tests
        raise InfeasibleError(f"the crossover near {const / slope:.3g} at y={y} is past 2^53")
    x0 = max(1, int(const / slope))
    while not beats(x0):
        x0 += 1
    while x0 > 1 and beats(x0 - 1):
        x0 -= 1
    return x0


def elementary_x_bound(y: float, target: float, table: PrimeTable) -> int:
    """Least integer X0 such that the elementary bound beats target*x/log(q)
    for every x >= X0, q the first prime above y."""
    k = table.pi(y)
    if k == 0:
        raise DomainError(f"x-bound needs at least one prime <= y, got y={y}")
    return _least_crossover(y, mertens_product(table, y), _elementary_remainder(k, y),
                            target, table)


# ---------------------------------------------------------------------------
# Bonferroni truncation after the mod-30 pre-sieve
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BonferroniData:
    """The density s(y) and the constant b(y) of the depth-4 truncation."""

    s_y: float
    b_y: int


def newton_elementary(p1: float, p2: float, p3: float, p4: float):
    """Elementary symmetric functions e_1..e_4 from power sums p_1..p_4."""
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - e1 * p2 + p3) / 3.0
    e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4.0
    return e1, e2, e3, e4


def bonferroni_bound(x: float, y: float, table: PrimeTable):
    """Upper bound x*s(y) + b(y) from the even-depth truncation at nu <= 4,
    applied to the integers coprime to 30 and the primes in (5, y]."""
    if not x >= 1:  # nan fails it too
        raise DomainError(f"the pre-sieved truncation bound needs x >= 1, got {x}")
    if y < 5:
        raise DomainError(f"the pre-sieved truncation needs y >= 5, got {y}")
    inv = 1.0 / table.primes_between(5, y).astype(np.float64)
    e1, e2, e3, e4 = newton_elementary(*(float(np.sum(inv ** k)) for k in (1, 2, 3, 4)))
    s_y = PRESIEVE_DENSITY * (1.0 - e1 + e2 - e3 + e4)
    k = table.pi(y) - 3
    b_y = sum(math.comb(k, i) for i in range(5))
    return x * s_y + b_y, BonferroniData(s_y=s_y, b_y=b_y)


def bonferroni_x_bound(y: float, target: float, table: PrimeTable) -> int:
    """Least integer X0 with x*s(y) + (14/15)*b(y) < target*x/log(q) for x >= X0.

    Each pre-sieved remainder is at most 14/15 in absolute value, so the
    constant term b(y) may be scaled by 14/15; that refinement is what keeps
    every bound below 3e7 on the mid-y range.
    """
    _, data = bonferroni_bound(1.0, y, table)
    return _least_crossover(y, data.s_y, PRESIEVE_REMAINDER * data.b_y, target, table)


# ---------------------------------------------------------------------------
# Selberg sieve, numerically explicit form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SieveConfig:
    """Parameters of one Selberg-sieve evaluation.

    With the mod-30 pre-sieve the sifted set has X = 4x/15 members and the
    sieving primes are those in (5, y].  V is the product of (1 - 1/p) over
    the sieving primes and f_value is the Rankin bound for IV; the main term
    is X*V / (1 - f_value) whenever f_value < 1.
    """

    x: float
    y: float
    epsilon: float
    D: float
    V: float
    f_value: float


def default_sieve_level(x: float, y: float) -> float:
    """D = .03 x / (log y)^3, which makes the remainder .006 x / log y; it
    needs x > 0 and y > 1, where D is positive."""
    if not (x > 0 and y > 1):  # nan fails it too
        raise DomainError(f"the sieve level needs x > 0 and y > 1, got x={x}, y={y}")
    return SELBERG_D_COEFF * x / math.log(y) ** 3


def _rankin_terms(ps: np.ndarray, epsilon: float) -> np.ndarray:
    """log(1 + (p^(2 epsilon) - 1) / p) for each sieving prime p in ps."""
    return np.log1p((ps ** (2.0 * epsilon) - 1.0) / ps)


def _slope_terms(log_p2: np.ndarray, p_minus_1: np.ndarray, eps: float,
                 power: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """2 log p * w_p, w_p = p^(2 eps) / (p - 1 + p^(2 eps)), into `terms`: the
    summands of the slope of log f in epsilon.  It writes only into the
    buffers `power` and `terms`, so a pass allocates no fresh pages."""
    np.exp(np.multiply(log_p2, eps, out=power), out=power)             # p^(2 eps)
    np.divide(power, np.add(p_minus_1, power, out=terms), out=terms)   # w_p
    return np.multiply(terms, log_p2, out=terms)


def make_sieve_config(x: float, y: float, table: PrimeTable, epsilon: float) -> SieveConfig:
    if not 0 < epsilon < math.inf:  # nan fails it too
        raise DomainError(f"epsilon must be positive and finite, got {epsilon}")
    D = default_sieve_level(x, y)
    ps = table.primes_between(5.0, y).astype(np.float64)
    V = float(np.exp(np.sum(np.log1p(-1.0 / ps))))
    try:
        f = math.exp(float(np.sum(_rankin_terms(ps, epsilon))) - epsilon * math.log(D))
    except OverflowError:   # a factor past the float range is >= 1, which selberg_upper refuses
        f = math.inf
    return SieveConfig(x=float(x), y=float(y), epsilon=float(epsilon), D=float(D),
                       V=V, f_value=f)


def lemma2_remainder(y: float, D: float) -> float:
    """(14/15) * D * (log y)^2 * (3/14), the divisor-count remainder bound.

    Each pre-sieved remainder is at most 14/15 per divisor, and the excluded
    primes 2, 3, 5 contribute the exact factor 3/14.  The (log y)^2 estimate
    for the divisor sum holds for y >= 53.
    """
    if not y >= 53:  # nan fails it too
        raise DomainError(f"the (log y)^2 divisor bound needs y >= 53, got {y}")
    if not D > 0:
        raise DomainError(f"sieve level D must be positive, got {D}")
    return PRESIEVE_REMAINDER * D * math.log(y) ** 2 * PRESIEVE_EXCLUDED_FACTOR


def selberg_upper(x: float, y: float, cfg: SieveConfig, table: PrimeTable) -> float:
    """The explicit Selberg upper bound X*V*(1 - f)^-1 + remainder at (x, y),
    which must be the point `cfg` was made for."""
    if y < SELBERG_MIN_Y:
        raise DomainError(f"the explicit sieve bound needs y >= {SELBERG_MIN_Y}, got {y}")
    if (float(x), float(y)) != (cfg.x, cfg.y):  # nan differs from every point
        raise DomainError(f"the sieve configuration is for (x, y) = ({cfg.x!r}, {cfg.y!r}), "
                          f"got ({x!r}, {y!r})")
    if cfg.f_value >= 1.0:
        raise InfeasibleError(
            f"Rankin factor f={cfg.f_value:.6f} >= 1 at epsilon={cfg.epsilon}; re-choose epsilon"
        )
    main = PRESIEVE_DENSITY * cfg.x * cfg.V / (1.0 - cfg.f_value)
    return main + lemma2_remainder(y, cfg.D)


def optimize_epsilon(x: float, y: float, table: PrimeTable) -> float:
    """Exponent minimizing the Rankin factor f(D, epsilon) at D = .03x/(log y)^3.

    log f is convex in epsilon, so its minimizer is the root of the slope
    g(eps) = sum 2 log p * w_p - log D, w_p = p^(2 eps) / (p - 1 + p^(2 eps)),
    which increases with derivative sum (2 log p)^2 w_p (1 - w_p).
    `bracketed_newton` finds it in EPSILON_BRACKET, to a step or bracket
    below 1e-12.  Each step is one pass over the sieving primes; log p is
    taken once.  If the minimum pins to a bracket end, the search converges
    to that end and a warning is logged.
    """
    if y < SELBERG_MIN_Y:
        raise DomainError(f"epsilon optimization targets y >= {SELBERG_MIN_Y}, got {y}")
    log_d = math.log(default_sieve_level(x, y))
    ps = table.primes_between(5, y).astype(np.float64)
    log_p2 = 2.0 * np.log(ps)
    p_minus_1 = np.subtract(ps, 1.0, out=ps)
    power, terms = np.empty_like(ps), np.empty_like(ps)   # reused: no fresh pages per pass

    def step(eps):
        slope = float(np.sum(_slope_terms(log_p2, p_minus_1, eps, power, terms))) - log_d
        np.subtract(log_p2, terms, out=power)
        np.multiply(power, terms, out=power)             # (2 log p)^2 * w_p * (1 - w_p)
        return slope, float(np.sum(power))

    lo, hi = EPSILON_BRACKET
    # The prime number theorem puts the root near c / log y with e^(2c) / c = u,
    # c = 1.0 to 1.4 for u in [7.5, 12].
    eps = bracketed_newton(step, lo, hi, 1.2 / math.log(y), _NEWTON_TOL)
    if eps - lo < 2 * EPSILON_TOL or hi - eps < 2 * EPSILON_TOL:
        log.warning("epsilon optimizer pinned to bracket boundary at (x=%.3g, y=%s)", x, y)
    return eps


# ---------------------------------------------------------------------------
# closed-form branch for large y (x = y^7.5, epsilon = 1/log y)
# ---------------------------------------------------------------------------

def s_y_closed_form(y: float) -> float:
    """Closed-form exponent S(y) bounding the Rankin sum for y >= 500000.

    S(y) combines the explicit Mertens bound
    -sum_{5<p<=y} 1/p < -loglog y - .26 + 31/30 with the li-based bound for
    sum_{5<p<=y} p^(2 eps - 1) at eps = 1/log y, where li(y^(2 eps)) = li(e^2)
    exactly.
    """
    if not CLOSED_FORM_MIN_Y <= y < math.inf:  # nan and inf fail it too
        raise DomainError(
            f"closed form asserted for y >= {CLOSED_FORM_MIN_Y}, got {y}; "
            "use the finite-product branch below that"
        )
    eps = 1.0 / math.log(y)
    a = 2.0 * eps - 1.0
    recip_part = -math.log(math.log(y)) - 0.26 + float(_PRESIEVE_RECIP)
    power_part = (7.0 ** a) + (_LI_11 - 4.0) * 11.0 ** a + _LI_E2 - li(11.0 ** (2.0 * eps))
    return recip_part + (1.0 + BETA0) * power_part


def closed_form_factor(y: float) -> float:
    """(1 - D^-eps e^S(y))^-1 at x = y^7.5, eps = 1/log y."""
    s_y = s_y_closed_form(y)   # refuses y below CLOSED_FORM_MIN_Y before the logs
    eps = 1.0 / math.log(y)
    log_d = math.log(SELBERG_D_COEFF) + 7.5 * math.log(y) - 3.0 * math.log(math.log(y))
    f_upper = math.exp(s_y - eps * log_d)
    if f_upper >= 1.0:
        raise InfeasibleError(f"closed-form Rankin bound {f_upper:.4f} >= 1 at y={y}")
    return 1.0 / (1.0 - f_upper)


def final_large_y_bound(y: float) -> float:
    """Coefficient of x / log y in the closed-form sieve bound at x = y^7.5.

    (1 + 2.1e-5) e^-gamma (1 - D^-eps e^S)^-1 + .006; below .6 proves the
    target on this branch.
    """
    factor = closed_form_factor(y)
    return (1.0 + MERTENS_SLACK) * math.exp(-EULER_GAMMA) * factor + SELBERG_REMAINDER_COEFF


# ---------------------------------------------------------------------------
# verified sweep over consecutive primes (finite-product branch)
# ---------------------------------------------------------------------------

def selberg_sweep(table: PrimeTable, *, target: float, lo: int = SELBERG_MIN_Y,
                  hi: int = CLOSED_FORM_MIN_Y) -> np.recarray:
    """Evaluate the sieve bound at x = p^7.5 for every consecutive-prime pair
    p < q with lo <= p <= hi, against target * x / log q.

    Returns one record per pair, ascending in p, with the fields y (= p), q,
    epsilon, f_value, coefficient (of x / log q) and margin (target minus
    coefficient); a pair whose best Rankin factor is >= 1 gets coefficient
    inf and margin -inf.  The sieving primes only change at primes, so each
    pair's sums over the primes <= p are entries of one ascending cumsum over
    the sieving primes.  Epsilon is the best point of the fixed grid
    .04, .042, ..., .26 (step h = .002; any grid point yields a valid
    bound), found as a running minimum over the grid, one cumsum per grid
    point; ties keep the first point, as np.argmin does.  The sieve level
    uses log q, the worst y in the interval.  A lo below SELBERG_MIN_Y or
    above hi, or a target that is not finite, raises DomainError.

    Only the grid points that can still be some pair's minimum are
    evaluated, and the result has the bits of the full running minimum.
    For a fixed pair, log f(eps) = sum_{7<=p'<=p} log(1 + (p'^(2 eps) - 1)/p')
    - eps log D is a sum of convex terms (the second derivative of each is
    (2 log p')^2 w (1 - w) >= 0, w = p'^(2 eps) / (p' - 1 + p'^(2 eps))), so
    a pair's grid values fall to its minimum and then rise.  numpy's 1-d
    cumsum adds in order, so the cumsum over a prefix of the primes has the
    bits of that prefix of the full one: each f evaluated has the bits the
    full grid gives it.  Let delta bound the relative rounding error of a
    computed f.  A cumsum of n positive terms with sum S is off by at most
    (n - 1) u S, u = 2^-53, and the terms, the product eps log D and the exp
    add a few u of S + eps log D more, so delta < (n + 10) u (S + eps log D).
    Up to 5e5 there are n = 41,535 sieving primes; at the grid's top S = 160
    and eps log D < 23, so delta < 1e-9.  Up to 1e8 (n = 5,761,452, S = 1713,
    eps log D < 33) delta < 1.2e-6.

    - Start: k0 is the last grid point at or below SWEEP_START_C / log p
      (1 / log p) of the last pair, left of every pair's optimum, which
      sits near c / log p with c = 1.07 to 1.17 on this range.  One pass
      over the primes checks that the slope of log f at k0,
      sum 2 log p' w - log D (as in `optimize_epsilon`), is below
      -m_s = -SWEEP_SLOPE_MARGIN for every pair; it reads -10 or less on
      the default range, and its rounding error is below n u log D < 1e-7.
      By convexity each earlier grid point's f then exceeds f(k0) by a
      factor of at least exp(h m_s), and h m_s = 2e-4 > 2 delta, so none of
      them can be a minimum and the full grid's running minimum after k0 is
      f(k0).  If the check fails for any pair the sweep starts at grid
      point 0, which is the full grid.
    - Stop: a pair is done once its f exceeds its running minimum by more
      than the share m_r = SWEEP_RISE_MARGIN = 1e-4 > 2 delta.  Its exact f
      then already rises, so no later grid point's computed f beats the
      minimum kept.  Pairs ascend in p and their optima fall with p, so the
      pairs not done form a prefix (exactly so up to 3e6): each grid
      point's cumsum runs over the primes up to the last pair not done, and
      any pair done before it cannot change under the update rule.

    Both margins exceed 2 delta at least tenfold for every hi up to 1e8.
    Past that the sweep still reports a valid bound for every pair (any
    grid point gives one), but its grid point may differ from the full
    grid's by rounding.
    """
    if lo < SELBERG_MIN_Y:
        raise DomainError(f"the explicit sieve bound needs y >= {SELBERG_MIN_Y}, got {lo}")
    if lo > hi:
        raise DomainError(f"the sweep needs lo <= hi, got lo={lo}, hi={hi}")
    if not math.isfinite(target):
        raise DomainError(f"target must be finite, got {target}")
    eps_grid = np.linspace(0.04, 0.26, 111)

    ps = table.primes_between(5, table.next_prime(hi))     # sieving primes 7..q of the last pair
    start = len(ps) - 1 - len(table.primes_between(lo - 1, hi))
    y, q = ps[start:-1], ps[start + 1:]                      # the pairs: a run of consecutive primes
    ps = ps[:-1].astype(np.float64)                          # sieving primes 7..p of the last pair
    log_q = np.log(q)
    log_d = np.log(SELBERG_D_COEFF) + 7.5 * np.log(y) - 3.0 * np.log(log_q)

    k0 = 0
    if len(y):
        guess = SWEEP_START_C / math.log(y[-1])
        k0 = max(int(np.searchsorted(eps_grid, guess, side="right")) - 1, 0)
        power, terms = np.empty_like(ps), np.empty_like(ps)
        slope_terms = _slope_terms(2.0 * np.log(ps), ps - 1.0, eps_grid[k0], power, terms)
        slopes = np.cumsum(slope_terms, out=terms)[start:] - log_d
        if not np.all(slopes < -SWEEP_SLOPE_MARGIN):
            k0 = 0

    f_best = np.full(len(y), np.inf)
    eps_best = np.full(len(y), eps_grid[0])
    open_pairs = len(y)             # the pairs after the first open_pairs are done
    for eps in eps_grid[k0:]:
        if not open_pairs:
            break
        with np.errstate(over="raise"):
            rankin = np.cumsum(_rankin_terms(ps[:start + open_pairs], eps))[start:]
        f = np.exp(rankin - eps * log_d[:open_pairs])
        f_open, eps_open = f_best[:open_pairs], eps_best[:open_pairs]   # views
        better = f < f_open
        f_open[better] = f[better]
        eps_open[better] = eps
        still_open = np.flatnonzero(f <= f_open * (1.0 + SWEEP_RISE_MARGIN))
        open_pairs = int(still_open[-1]) + 1 if len(still_open) else 0

    v_full = PRESIEVE_DENSITY * np.exp(np.cumsum(np.log1p(-1.0 / ps))[start:])  # all p' <= p
    coefficient = np.full(len(y), np.inf)
    ok = f_best < 1.0
    coefficient[ok] = v_full[ok] * log_q[ok] / (1.0 - f_best[ok]) + SELBERG_REMAINDER_COEFF
    return np.rec.fromarrays([y, q, eps_best, f_best, coefficient, target - coefficient],
                             names="y,q,epsilon,f_value,coefficient,margin")
