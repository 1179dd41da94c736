"""Inverse moments of non-negative discrete variates.

Exact oracles by direct summation, a difference-operator expansion
around the Poisson distribution with calibrated evaluation strategies,
three historical competing series, and CLI tooling for error sweeps.
"""
from .charlier_expansion import (
    ExpansionPolynomial,
    barbour_error_bound,
    barbour_polynomial,
    binomial_barbour_polynomial,
    binomial_cumulants,
    expand_pdf,
    first_inverse_moment_binomial,
    inverse_moment_estimate,
)
from .competing import rempala, stephan, znidaric
from .exact_oracle import (
    Binomial,
    DistributionSpec,
    DomainError,
    ExplicitPdf,
    OracleValue,
    central_moment_binomial,
    exact_inverse_moment,
    factorial_cumulants_from_pdf,
    poisson_inverse_moment_direct,
    shifted_poisson_moment_direct,
)
from .poisson_moments import (
    CalibrationError,
    CrossoverProfile,
    ShiftedMomentTable,
    build_q_table,
    calibrate_crossover,
    er_function,
    positive_poisson_inverse_moment,
    shifted_inverse_moment,
)
from .special_numbers import (
    alpha,
    stirling_first,
)

__version__ = "0.1.0"
