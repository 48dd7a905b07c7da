"""roughbound: exact rough-number counting and verified explicit sieve bounds.

The package computes Phi(x, y), the number of integers in [1, x] free of
prime factors <= y, by several independent exact methods, evaluates every
explicit upper bound used to prove Phi(x, y) < .6 x / log y for 3 <= y <=
sqrt(x), and runs a region-by-region verification pipeline which emits
machine-checkable certificates.
"""

__version__ = "0.1.0"

from .analytic import li, pi_lower_599, r_ratio
from .buchstab import BuchstabTable, build_omega, locate_extremum, mu_y
from .errors import (
    DomainError,
    InfeasibleError,
    NumericError,
    OutOfRangeError,
    ResolutionError,
    ResourceError,
    SingularityError,
)
from .phi import (
    MaxStatRow,
    max_statistic,
    phi_direct,
    phi_legendre,
    phi_two_prime,
    scan_rough_interval,
)
from .pipeline import (
    BoundReport,
    PipelineConfig,
    RegionCertificate,
    run_full_pipeline,
    small_u_coefficient,
    verify_iteration,
    verify_mid_y,
    verify_selberg,
    verify_selberg_closed,
    verify_small_u,
    verify_small_y,
)
from .primes import PrimeTable, build_prime_table, mertens_product
from .sieve_bounds import (
    BonferroniData,
    SieveConfig,
    bonferroni_bound,
    bonferroni_x_bound,
    elementary_bound,
    elementary_x_bound,
    final_large_y_bound,
    closed_form_factor,
    lemma2_remainder,
    make_sieve_config,
    newton_elementary,
    optimize_epsilon,
    s_y_closed_form,
    selberg_sweep,
    selberg_upper,
)
