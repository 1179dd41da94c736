"""Historical truncated-series approximations of E+[1/K] for binomial K.

Three series from the literature, implemented faithfully rather than
fixed up, so their convergence behavior and failure modes can be
measured against the exact oracle and against the expansion in the
charlier module.
"""
from __future__ import annotations

import math
from itertools import accumulate

from .exact_oracle import _MOMENT_CAP, DomainError, _check_N, _scaled_central_moments

__all__ = ["stephan", "rempala", "znidaric"]


def _check_args(N: int, p: float) -> None:
    _check_N(N)
    if not 0.0 < p <= 1.0:
        raise DomainError("p must lie in (0, 1]")


def _check_count(M: int) -> None:
    if M < 1:
        raise DomainError("term count M must be a positive integer")


def _walk_length(counts, most: float = math.inf) -> int:
    """How many terms to walk: the largest count ahead of the first invalid one.

    The partial sums are then read off in the order given, each count
    checked first, so the first failing count raises as a call per count
    would, and no term past the last valid count is computed.
    """
    top = 0
    for M in counts:
        if not 1 <= M <= most:
            break
        top = max(top, M)
    return top


def stephan(N: int, p: float, M: int) -> float:
    """M-term series (1 - q**N) * E[1/K | K > 0] ~ sum of positive terms.

    Term i is (i-1)! N! / (N+i)! * s_i / p**i.  The textbook form of
    s_i / p**i subtracts two near-equal quantities and also overflows
    for moderate M, so each term is rearranged into the positive sum

        s_i / p**i = sum_{l=1..N} C(N+i, i+l) * p**l * q**(N-l),

    with the factorial ratio accumulated multiplicatively and the inner
    sum taken in log space.  Every quantity is then positive, partial
    sums increase monotonically, and M in the tens of thousands is fine.

    Runtime is O(M * N) exp calls and O(N + M) lgamma calls, kept in one
    list of N + M + 1 floats; at p = 1 it is O(M), with no table.
    """
    return _stephan_partial_sums(N, p, (M,))[0]


def _stephan_partial_sums(N: int, p: float, counts) -> list[float]:
    """stephan(N, p, M) for every M in ``counts``, from one walk of the terms.

    Each value is math.fsum of the first M terms, the doubles a call per
    M sums, so it is that call's value bit for bit.
    """
    _check_args(N, p)
    top = _walk_length(counts)
    q = 1.0 - p
    terms = []
    if top and q > 0.0:
        log_fact = [math.lgamma(j + 1) for j in range(N + top + 1)]  # log(j!)
        log_p = math.log(p)
        log_q = math.log(q)
    ratio = 1.0  # i! N! / (N+i)!, built as prod_{j<=i} j / (N+j)
    for i in range(1, top + 1):
        ratio *= i / (N + i)
        if q == 0.0:
            inner = 1.0  # only the l = N term survives at p = 1
        else:
            # log C(N+i, i+l) + l log p + (N-l) log q, summed left to right
            head = log_fact[N + i]
            inner = math.fsum(
                math.exp(head - log_fact[i + l] - log_fact[N - l] + l * log_p + (N - l) * log_q)
                for l in range(1, N + 1)
            )
        terms.append(ratio / i * inner)
    values = []
    for M in counts:
        _check_count(M)
        values.append(math.fsum(terms[:M]))
    return values


def rempala(N: int, p: float, M: int) -> float:
    """M-term series E+[1/K] ~ (Np)**-1 * sum_{i<M} (q/p)**i / C(N-1, i)."""
    return _rempala_partial_sums(N, p, (M,))[0]


def _rempala_partial_sums(N: int, p: float, counts) -> list[float]:
    """rempala(N, p, M) for every M in ``counts``, from one walk of the terms.

    A term that overflows ends the walk; every count that reaches it
    raises, as does a count whose fsum overflows.
    """
    _check_args(N, p)
    top = _walk_length(counts, N)
    q = 1.0 - p
    terms = []
    if top and q > 0.0:
        log_ratio = math.log(q) - math.log(p)
        log_head = math.lgamma(N)  # log (N-1)!; no O(N) table for the few terms read
        try:
            for i in range(top):
                log_comb = log_head - math.lgamma(i + 1) - math.lgamma(N - i)
                terms.append(math.exp(i * log_ratio - log_comb))
        except OverflowError:  # the counts past this term raise below
            pass
    values = []
    for M in counts:
        _check_count(M)
        if M > N:
            raise DomainError(
                f"M={M} exceeds N={N}: C(N-1, i) is zero for i >= N and the "
                "series has no further terms"
            )
        if q == 0.0:
            values.append(1.0 / N)
            continue
        try:
            total = math.fsum(terms[:M]) if M <= len(terms) else math.inf
        except OverflowError:  # fsum's running total
            total = math.inf
        value = total / (N * p)
        if value == math.inf:
            raise DomainError(f"the M={M} series overflows double precision at p={p:g}")
        values.append(value)
    return values


def znidaric(N: int, p: float, M: int) -> float:
    """M-term series around 1/(Np + q) using central moments of Binomial(N-1, p).

    E+[1/K] ~ Np / (Np + q)**2 * sum_{i<M} (-1)**i (i+1) m_i / (Np + q)**i,
    with m_i the i-th central moment.  At the exact double p = a / 2**s
    it is one rational, rounded once: with B = N a + 2**s - a = 2**s (Np
    + q) and U_i = 2**(s i) m_i (exact_oracle._scaled_central_moments),
    N a 2**s sum_{i<M} (-1)**i (i+1) U_i B**(M-1-i) / B**(M+1).
    Consecutive term counts can coincide: m_1 = 0 makes M = 2 equal M =
    1.  M past exact_oracle._MOMENT_CAP, and a value past the double
    range, raise DomainError.
    """
    return _znidaric_partial_sums(N, p, (M,))[0]


def _znidaric_partial_sums(N: int, p: float, counts) -> list[float]:
    """znidaric(N, p, M) for every M in ``counts``, from one build of the moments.

    The sum for each M is read off one Horner pass over the prefix,
    S_{M+1} = S_M B + (-1)**M (M+1) U_M, so each value is the one
    rational a call per M rounds.
    """
    _check_args(N, p)
    top = _walk_length(counts, _MOMENT_CAP)
    a, two_s = p.as_integer_ratio()
    B = N * a + two_s - a
    scaled = _scaled_central_moments(N - 1, a, two_s.bit_length() - 1, range(top))
    terms = ((-1) ** i * (i + 1) * scaled[i] for i in range(top))
    sums = list(accumulate(terms, lambda S, t: S * B + t))
    values = []
    for M in counts:
        _check_count(M)
        if M > _MOMENT_CAP:
            raise DomainError(f"term count M must lie in 1..{_MOMENT_CAP}")
        try:
            values.append(N * a * two_s * sums[M - 1] / B ** (M + 1))
        except OverflowError:
            raise DomainError(f"the M={M} series overflows double precision at p={p:g}") from None
    return values
