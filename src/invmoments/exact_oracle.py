"""Ground truth by direct, cancellation-free summation.

Every routine here evaluates its target quantity from the defining sum,
with non-negative terms wherever possible, so compensated double
precision is enough.  The faster or cleverer formulas elsewhere in the
package are tested against these.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Union

__all__ = [
    "DomainError",
    "Binomial",
    "ExplicitPdf",
    "DistributionSpec",
    "OracleValue",
    "binomial_pdf",
    "exact_inverse_moment",
    "poisson_inverse_moment_direct",
    "shifted_poisson_moment_direct",
    "central_moment_binomial",
    "factorial_cumulants_from_pdf",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


@dataclass(frozen=True)
class Binomial:
    """Binomial(N, p) input variate."""

    N: int
    p: float

    def __post_init__(self) -> None:
        if self.N < 1:
            raise DomainError("N must be a positive integer")
        if not 0.0 <= self.p <= 1.0:
            raise DomainError("p must lie in [0, 1]")


@dataclass(frozen=True)
class ExplicitPdf:
    """Finite explicit distribution on {0, 1, ..., len(weights)-1}.

    Weights beyond the stored length are zero.  The weights must be
    non-negative and sum to one within 1e-12.
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if not weights:
            raise DomainError("weights must be non-empty")
        if any(w < 0.0 for w in weights):
            raise DomainError("weights must be non-negative")
        if abs(math.fsum(weights) - 1.0) > 1e-12:
            raise DomainError("weights must sum to 1 within 1e-12")


DistributionSpec = Union[Binomial, ExplicitPdf]


@dataclass(frozen=True)
class OracleValue:
    """A numeric value together with a bound on the truncation residual."""

    value: float
    tail_bound: float


def _neumaier(terms: Iterable[float]) -> float:
    """Compensated sum.  Exact to a few ulp for the positive series here."""
    total = 0.0
    comp = 0.0
    for t in terms:
        s = total + t
        if abs(total) >= abs(t):
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
    return total + comp


def _check_mu(mu: float) -> None:
    """Reject a Poisson mean outside (0, inf); NaN fails the test too."""
    if not 0.0 < mu < math.inf:
        raise DomainError("mu must be positive and finite")


_COMB_LIMIT = 300


def _pdf_in_k(N: int, p: float) -> Callable[[int], float]:
    """k -> P(K = k) for 0 <= k <= N, with the (N, p) invariants computed once.

    Exact binomial coefficients for moderate N; log-space for large N,
    where the straightforward product would overflow or underflow long
    before the probability does.
    """
    if p == 0.0:
        return lambda k: 1.0 if k == 0 else 0.0
    if p == 1.0:
        return lambda k: 1.0 if k == N else 0.0
    q = 1.0 - p
    if N <= _COMB_LIMIT:
        return lambda k: math.comb(N, k) * p**k * q ** (N - k)
    lgamma_n = math.lgamma(N + 1)
    log_p = math.log(p)
    log_q = math.log(q)
    return lambda k: math.exp(
        lgamma_n
        - math.lgamma(k + 1)
        - math.lgamma(N - k + 1)
        + k * log_p
        + (N - k) * log_q
    )


def binomial_pdf(N: int, p: float, k: int) -> float:
    """P(K = k) for K ~ Binomial(N, p).

    Uses exact binomial coefficients for moderate N and switches to
    log-space for large N, where the straightforward product would
    overflow or underflow long before the probability does.
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    if k < 0 or k > N:
        return 0.0
    return _pdf_in_k(N, p)(k)


def exact_inverse_moment(spec: DistributionSpec, r: int) -> float:
    """E+[1/K**r], the inverse moment restricted to the event K >= 1.

    A finite sum for both supported distribution kinds, so the result is
    exact up to compensated rounding.
    """
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if isinstance(spec, Binomial):
        pdf = _pdf_in_k(spec.N, spec.p)
        return _neumaier(pdf(k) / k**r for k in range(1, spec.N + 1))
    if isinstance(spec, ExplicitPdf):
        return _neumaier(w / k**r for k, w in enumerate(spec.weights) if k >= 1)
    raise DomainError(f"unsupported distribution spec: {spec!r}")


def _poisson_terms(mu: float) -> Iterator[tuple[int, float]]:
    """Yield (k, pi_mu(k)) for k = 1, 2, ... without over- or underflow."""
    if mu <= 700.0:
        t = math.exp(-mu)
        k = 0
        while True:
            k += 1
            t *= mu / k
            yield k, t
    else:
        log_mu = math.log(mu)
        log_t = -mu
        k = 0
        while True:
            k += 1
            log_t += log_mu - math.log(k)
            yield k, math.exp(log_t)


def poisson_inverse_moment_direct(mu: float, r: int, tol: float = 1e-12) -> OracleValue:
    """E+[1/Q**r] for Q ~ Poisson(mu), by direct summation.

    Sums e**(-mu) * mu**k / (k! * k**r) over k >= 1 and truncates at the
    first k >= mu where the geometric tail majorant
    pi_mu(k) * (k+1) / (k+1-mu) drops below ``tol``.  The majorant also
    covers the weighted tail because 1/k**r <= 1, and it is returned as
    the ``tail_bound``.
    """
    _check_mu(mu)
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    total = 0.0
    comp = 0.0
    tail = math.inf
    for k, pi in _poisson_terms(mu):
        if k >= mu:
            tail = pi * (k + 1) / (k + 1 - mu)
            if tail < tol:
                break
        t = pi / k**r
        s = total + t
        if abs(total) >= t:
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
        if k > 100_000_000:
            raise RuntimeError("tolerance unreachable in double precision")
    return OracleValue(total + comp, tail)


def shifted_poisson_moment_direct(
    mu: float, a: int, r: int, tol: float = 1e-12
) -> OracleValue:
    """E[1/(Q+a)**r] for Q ~ Poisson(mu), by direct summation.

    For a >= 1 the k = 0 term is included, so this is a plain (not
    conditioned) expectation.  For a = 0 the sum starts at k = 1 and the
    result is the positive-part moment; a = 0 with r = 0 is rejected
    because that expectation has no finite defining sum to truncate.
    """
    _check_mu(mu)
    if a < 0:
        raise DomainError("shift a must be a non-negative integer")
    if r < 0:
        raise DomainError("moment order r must be non-negative")
    if a == 0 and r == 0:
        raise DomainError("a = 0 with r = 0 is not a defined moment here")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    if r == 0:
        return OracleValue(1.0, 0.0)
    if a == 0:
        return poisson_inverse_moment_direct(mu, r, tol)
    total = (math.exp(-mu) if mu <= 700.0 else 0.0) / a**r
    comp = 0.0
    tail = math.inf
    for k, pi in _poisson_terms(mu):
        if k >= mu:
            tail = pi * (k + 1) / (k + 1 - mu)
            if tail < tol:
                break
        t = pi / (k + a) ** r
        s = total + t
        if abs(total) >= t:
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
    return OracleValue(total + comp, tail)


def central_moment_binomial(N: int, p: float, i: int) -> float:
    """E[(K - Np)**i] for K ~ Binomial(N, p), by exact finite summation.

    N = 0 is accepted as the one-point distribution at zero; the
    shifted-sample consumers need that degenerate case.
    """
    if N < 0:
        raise DomainError("N must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    if i < 0:
        raise DomainError("moment index i must be non-negative")
    if N == 0:
        return 1.0 if i == 0 else 0.0
    if i == 1:
        return 0.0
    mu = N * p
    pdf = _pdf_in_k(N, p)
    return math.fsum(pdf(k) * (k - mu) ** i for k in range(N + 1))


def factorial_cumulants_from_pdf(weights: Iterable[float], max_j: int) -> list[float]:
    """Factorial cumulants kappa(1)..kappa(max_j) of an explicit pdf.

    Expands g(x) = sum_k f(k) * (1+x)**k as a power series (its n-th
    coefficient is sum_k f(k) * C(k, n)), takes log g term by term, and
    scales by factorials.  A pdf concentrated at zero has g identically
    one and therefore all cumulants zero.
    """
    if max_j < 1:
        raise DomainError("max_j must be a positive integer")
    pdf = ExplicitPdf(tuple(weights))
    w = pdf.weights
    g = [
        math.fsum(w[k] * math.comb(k, n) for k in range(n, len(w)))
        for n in range(max_j + 1)
    ]
    g[0] = 1.0  # the pdf validation already pinned the mass to 1 +- 1e-12
    h = [0.0] * (max_j + 1)
    for n in range(1, max_j + 1):
        cross = math.fsum(i * h[i] * g[n - i] for i in range(1, n))
        h[n] = g[n] - cross / n
    return [math.factorial(j) * h[j] for j in range(1, max_j + 1)]
