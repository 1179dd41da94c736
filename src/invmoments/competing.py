"""Historical truncated-series approximations of E+[1/K] for binomial K.

Three series from the literature, implemented faithfully rather than
fixed up, so their convergence behavior and failure modes can be
measured against the exact oracle and against the expansion in the
charlier module.
"""
from __future__ import annotations

import math

from .exact_oracle import DomainError, central_moment_binomial

__all__ = ["stephan", "rempala", "znidaric"]


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def stephan(N: int, p: float, M: int) -> float:
    """M-term series (1 - q**N) * E[1/K | K > 0] ~ sum of positive terms.

    Term i is (i-1)! N! / (N+i)! * s_i / p**i.  The textbook form of
    s_i / p**i subtracts two near-equal quantities and also overflows
    for moderate M, so each term is rearranged into the positive sum

        s_i / p**i = sum_{l=1..N} C(N+i, i+l) * p**l * q**(N-l),

    with the factorial ratio accumulated multiplicatively and the inner
    sum taken in log space.  Every quantity is then positive, partial
    sums increase monotonically, and M in the tens of thousands is fine.

    Runtime is O(M * N).
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    if not 0.0 < p <= 1.0:
        raise DomainError("p must lie in (0, 1]")
    if M < 1:
        raise DomainError("term count M must be a positive integer")
    q = 1.0 - p
    if q > 0.0:
        log_p = math.log(p)
        log_q = math.log(q)

    def terms():
        ratio = 1.0  # i! N! / (N+i)!, built as prod_{j<=i} j / (N+j)
        for i in range(1, M + 1):
            ratio *= i / (N + i)
            if q == 0.0:
                inner = 1.0  # only the l = N term survives at p = 1
            else:
                inner = math.fsum(
                    math.exp(_log_comb(N + i, i + l) + l * log_p + (N - l) * log_q)
                    for l in range(1, N + 1)
                )
            yield ratio / i * inner

    return math.fsum(terms())


def rempala(N: int, p: float, M: int) -> float:
    """M-term series E+[1/K] ~ (Np)**-1 * sum_{i<M} (q/p)**i / C(N-1, i)."""
    if N < 1:
        raise DomainError("N must be a positive integer")
    if not 0.0 < p <= 1.0:
        raise DomainError("p must lie in (0, 1]")
    if M < 1:
        raise DomainError("term count M must be a positive integer")
    if M > N:
        raise DomainError(
            f"M={M} exceeds N={N}: C(N-1, i) is zero for i >= N and the "
            "series has no further terms"
        )
    q = 1.0 - p
    if q == 0.0:
        return 1.0 / N
    log_ratio = math.log(q) - math.log(p)
    try:
        total = math.fsum(
            math.exp(i * log_ratio - _log_comb(N - 1, i)) for i in range(M)
        )
    except OverflowError:  # a term, or fsum's running total
        total = math.inf
    value = total / (N * p)
    if value == math.inf:
        raise DomainError(f"the M={M} series overflows double precision at p={p:g}")
    return value


def znidaric(N: int, p: float, M: int) -> float:
    """M-term series around 1/(Np + q) using central moments of Binomial(N-1, p).

    E+[1/K] ~ Np / (Np + q)**2 * sum_{i<M} (-1)**i (i+1) m_i / (Np + q)**i,
    with m_i the i-th central moment.  Terms alternate, so the sum goes
    through fsum.  Consecutive term counts can coincide: m_1 = 0 makes
    M = 2 equal M = 1.
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    if not 0.0 < p <= 1.0:
        raise DomainError("p must lie in (0, 1]")
    if M < 1:
        raise DomainError("term count M must be a positive integer")
    q = 1.0 - p
    b = N * p + q
    terms = []
    for i in range(M):
        m_i = central_moment_binomial(N - 1, p, i)
        t = (i + 1) * m_i / b**i
        terms.append(-t if i % 2 else t)
    return N * p / b**2 * math.fsum(terms)
