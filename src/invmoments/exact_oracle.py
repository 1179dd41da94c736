"""Ground truth by direct, cancellation-free summation.

Every routine here evaluates its target quantity from the defining sum,
with non-negative terms wherever possible, and rounds the exact sum of
its terms once: math.fsum adds rounded terms, and the binomial inverse
moment for N > 300 sums exact-integer ratio terms in fixed point under
an error bound, so it is the moment itself, correctly rounded.  The
faster or cleverer formulas elsewhere in the package are tested against
these.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterable, Iterator, Union

import mpmath
from mpmath.libmp import to_fixed

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
        if any(not w >= 0.0 for w in weights):  # NaN fails both tests
            raise DomainError("weights must be non-negative")
        if not abs(math.fsum(weights) - 1.0) <= 1e-12:
            raise DomainError("weights must sum to 1 within 1e-12")


DistributionSpec = Union[Binomial, ExplicitPdf]


@dataclass(frozen=True)
class OracleValue:
    """A numeric value together with a bound on the truncation residual."""

    value: float
    tail_bound: float


def _check_mu(mu: float) -> None:
    """Reject a Poisson mean outside (0, inf); NaN fails the test too."""
    if not 0.0 < mu < math.inf:
        raise DomainError("mu must be positive and finite")


_WALK_MU_CAP = 1e8  # a walk from k = 1 to the Poisson tail takes a minute here


def _check_walk_mu(mu: float) -> None:
    """Refuse a walk to the tail past _WALK_MU_CAP; below it every walk ends."""
    if mu > _WALK_MU_CAP:
        raise DomainError(f"the Poisson walk takes mu <= {_WALK_MU_CAP:g}, not {mu:g}")


_COMB_LIMIT = 300

# stirlerr(n) for n = 0..15, rounded from 50-digit mpmath values.  Past
# 15 the Stirling series to 1/n**9 is good to 2e-16 absolute, and past
# 500 its first two terms are.
_STIRLERR_SMALL = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2*pi*n) * (n/e)**n), the error of Stirling's formula."""
    if n <= 15:
        return _STIRLERR_SMALL[n]
    nn = n * n
    if n > 500:
        return (_S0 - _S1 / nn) / n
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """The deviance x*log(x/m) + m - x, without its cancellation near x = m.

    Close to m the closed form loses most of its digits, so there it is
    summed as (x-m)*v + 2x * sum_{j>=1} v**(2j+1) / (2j+1) in
    v = (x-m)/(x+m), |v| < 0.1 (Loader's bd0).
    """
    d = x - m
    if abs(d) < 0.1 * (x + m):
        v = d / (x + m)
        s = d * v
        ej = 2.0 * x * v
        v *= v
        j = 3
        while True:
            ej *= v
            s1 = s + ej / j
            if s1 == s:
                return s
            s = s1
            j += 2
    return x * math.log(x / m) + m - x


def _bd0_tiny(x: float, m: float) -> float:
    """_bd0 for m below 2**-1024, where x / m overflows even at x = 1.

    There m is far below every x >= 1, so the closed form has no
    cancellation to avoid, and log(x) - log(m) stays finite.
    """
    return x * (math.log(x) - math.log(m)) + m - x


def _pdf_in_k(N: int, p: float) -> Callable[[int], float]:
    """k -> P(K = k) for 0 <= k <= N, with the (N, p) invariants computed once.

    Exact binomial coefficients for moderate N.  For large N, where that
    product would overflow or underflow long before the probability
    does, Loader's saddle-point form (C. Loader, "Fast and Accurate
    Computation of Binomial Probabilities", 2000)

        exp(stirlerr(N) - stirlerr(k) - stirlerr(N-k)
            - bd0(k, Np) - bd0(N-k, Nq)) / sqrt(2*pi*k*(N-k)/N),

    good to about 1e-15 relative.  The root takes the exact integer
    k*(N-k), so it keeps its accuracy at k next to N.  k = 0 and k = N
    are the one-sided forms of R's dbinom_raw.
    """
    if p == 0.0:
        return lambda k: 1.0 if k == 0 else 0.0
    if p == 1.0:
        return lambda k: 1.0 if k == N else 0.0
    q = 1.0 - p
    if N <= _COMB_LIMIT:
        return lambda k: math.comb(N, k) * p**k * q ** (N - k)
    mean, mean_q = N * p, N * q
    head = _stirlerr(N)
    bd0_low = _bd0 if 1.0 / mean < math.inf else _bd0_tiny

    def pdf(k: int) -> float:
        if k == 0:
            return math.exp(-_bd0(N, mean_q) - mean if p < 0.1 else N * math.log(q))
        if k == N:
            return math.exp(-_bd0(N, mean) - mean_q if q < 0.1 else N * math.log(p))
        lc = head - _stirlerr(k) - _stirlerr(N - k) - bd0_low(k, mean) - _bd0(N - k, mean_q)
        return math.exp(lc) / math.sqrt(math.tau * (k * (N - k)) / N)

    return pdf


# The terms that the large-N window leaves out weigh at most this
# fraction of E+[1/K**r].
_WINDOW_REL_MASS = 1e-17


def _log_jensen_binomial(N: int, p: float, r: int) -> float:
    """log of Jensen's lower bound P(K >= 1)**(r+1) / (Np)**r on E+[1/K**r]."""
    return (r + 1) * math.log(-math.expm1(N * math.log1p(-p))) - r * math.log(N * p)


def _support(N: int, p: float, r: int, rel_mass: float = _WINDOW_REL_MASS) -> range:
    """The k >= 1 that exact_inverse_moment sums for Binomial(N, p).

    Nothing for p = 0, only N for p = 1, all of 1..N on the comb path.
    For large N, [max(1, Np - t), min(N, Np + t)]: Bernstein bounds each
    tail beyond it by exp(-t**2 / (2*(Npq + t/3))), 1/k**r <= 1 there,
    and the moment is at least Jensen's L (_log_jensen_binomial).  t
    makes each tail bound rel_mass * L / 2, so the terms left out weigh
    at most rel_mass * L in all.
    """
    if p == 0.0:
        return range(0)
    if p == 1.0:
        return range(N, N + 1)
    if N <= _COMB_LIMIT:
        return range(1, N + 1)
    mean = N * p
    lam = math.log(2.0 / rel_mass) - _log_jensen_binomial(N, p, r)
    t = lam / 3.0 + math.sqrt(lam * lam / 9.0 + 2.0 * lam * mean * (1.0 - p))
    return range(max(1, math.ceil(mean - t)), min(N, math.floor(mean + t)) + 1)


def binomial_pdf(N: int, p: float, k: int) -> float:
    """P(K = k) for K ~ Binomial(N, p).

    Uses exact binomial coefficients for moderate N and Loader's
    saddle-point form for large N (see _pdf_in_k).
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

    A finite sum for both supported distribution kinds.  An explicit pdf
    and a binomial with N <= 300 give the correctly rounded sum of the
    rounded terms, also where k**r passes the double range
    (_over_power).  A binomial with N > 300 and 0 < p < 1 gives the
    moment of the binomial with that exact double p, correctly rounded
    (_binomial_inverse_moment); its window around Np leaves out terms
    weighing less than 1e-17 of the result, and the rounding accounts
    for them.
    """
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if isinstance(spec, Binomial):
        N, p = spec.N, spec.p
        if N > _COMB_LIMIT and 0.0 < p < 1.0:
            return _binomial_inverse_moment(N, p, r)
        ks = _support(N, p, r)
        pairs = lambda: zip(ks, map(_pdf_in_k(N, p), ks))
    elif isinstance(spec, ExplicitPdf):
        pairs = lambda: zip(count(1), spec.weights[1:])
    else:
        raise DomainError(f"unsupported distribution spec: {spec!r}")
    try:
        return math.fsum(w / k**r for k, w in pairs())
    except OverflowError:  # k**r past the double range
        return math.fsum(_over_power(w, k, r) for k, w in pairs())


def _over_power(w: float, k: int, r: int) -> float:
    """w / k**r for 0 <= w <= 2 and k >= 1, whatever the size of k**r.

    The double quotient while k**r converts to a double.  Past that, the
    quotient of exact integers, which CPython's true division rounds
    correctly, and once k**r passes 2**1080 the quotient lies below half
    the least subnormal and rounds to 0.0, so k**r is not formed.
    """
    if r * math.log2(k) > 1080.0:
        return 0.0
    kr = k**r
    try:
        return w / kr
    except OverflowError:
        n, d = w.as_integer_ratio()
        return n / (d * kr)


def _binomial_inverse_moment(N: int, p: float, r: int) -> float:
    """E+[1/K**r] for N > 300 and 0 < p < 1, correctly rounded.

    _binomial_walk sums the window of _support in fixed point, first at
    64 bits past the result.  While its rounding is undecided, the bits
    double and the window's left-out mass shrinks by 2**-bits (Ziv's
    scheme).  Arguments are the caller's to validate.
    """
    bits, rel_mass = 64, _WINDOW_REL_MASS
    while (value := _binomial_walk(N, p, r, bits, rel_mass)) is None:
        bits, rel_mass = 2 * bits, rel_mass * 2.0**-bits
    return value


def _edge_tail(v: int, num: int, den: int) -> int:
    """ceil(v den / (den - num)), the sum of v rho**i over i >= 0, rho = num / den < 1.

    It bounds the mass a walk leaves out past an edge where the value is
    at most v and every ratio outward is at most rho.
    """
    return -(-v * den // (den - num))


def _binomial_walk(N: int, p: float, r: int, bits: int, rel_mass: float) -> float | None:
    """sum of pmf(k) / k**r over k >= 1, rounded once; None if undecided.

    The double p is exactly a / 2**s, so q = b / 2**s with b = 2**s - a
    is exact too.  The walk keeps to the window of _support(N, p, r,
    rel_mass), which sizes it.  It starts at the mode k0 = floor((N+1)p),
    which the window holds (its t exceeds 26) unless k0 = 0, taken as 1
    then.  It keeps T(k) ~ 2**W pmf(k) as an integer, stepping up by the
    floor of T (N-k) a / ((k+1) b) and down by the floor of T (k+1) b /
    ((N-k) a).  Every such ratio away from the mode is at most 1, so a
    floor never grows an earlier one: T(k) is within |k - k0| + 1 units
    below 2**W pmf(k) times the anchor's relative error (the anchor's
    floor included) and the floor of T(k) / k**r within |k - k0| + 2
    units.  Terms stop where they provably floor to 0: upward once one
    does (T falls and k**r rises), downward once T is 0, and never for
    k**r at or above 2**(W+1) > T.  So no float and no huge k**r is
    formed, whatever r.

    Error budget.  The anchor pmf(k0) is one mpmath evaluation of
    exp(log C(N, k0) + k0 log p + (N-k0) log q) at max(bits, 64) + g
    bits, where 2**g is 2**8 M and M = (N+1) (3 log(N+1) + |log p| +
    |log q|) bounds the log-gamma and log terms that cancel; 8 bits
    cover mpmath's few-ulp errors in its eight operations.  So the
    anchor is within a relative 2**-bits, and p is exact in it.  W is
    bits past both the summed per-term bounds E_f of the window and the
    larger of Jensen's L and 2**-1080, so a subnormal result keeps bits
    to spare.  The terms each side of the walk leaves out lie from its
    first unsummed k on, where the scaled pmf is at most T(k) + |k - k0|
    + 1 and the pmf ratios outward keep falling, so on that scale they
    weigh at most a geometric tail (_edge_tail) of that value over k**r
    above (over 2**(W+1) past k**r's cut) and of the value itself
    below, as 1/k**r <= 1.  With acc the sum of the floored terms and
    tail the two tails, 2**W times the moment lies in [acc (1 -
    2**-bits), (acc + E_f + tail) (1 + 2**(1-bits))].  Integer true
    division rounds correctly and monotonically, so when both ends
    round to the same double, so does the moment.
    """
    a, two_s = p.as_integer_ratio()
    b = two_s - a
    window = _support(N, p, r, rel_mass)
    lo, hi = window.start, window.stop - 1
    k0 = min(max((N + 1) * a // two_s, lo), hi)
    d_lo, d_hi = k0 - lo, hi - k0
    e_f = (d_lo * (d_lo + 1) + d_hi * (d_hi + 1)) // 2 + 2 * len(window)
    log2_l = _log_jensen_binomial(N, p, r) / math.log(2.0)
    W = bits + e_f.bit_length() + min(math.ceil(-log2_l), 1080)
    M = (N + 1) * (3.0 * math.log(N + 1) - math.log(p) - math.log1p(-p))
    with mpmath.workprec(max(bits, 64) + math.ceil(math.log2(M)) + 8):
        P = mpmath.mpf(p)
        log_pmf = (mpmath.loggamma(N + 1) - mpmath.loggamma(k0 + 1)
                   - mpmath.loggamma(N - k0 + 1) + k0 * mpmath.log(P)
                   + (N - k0) * mpmath.log1p(-P))
        anchor = to_fixed(mpmath.exp(log_pmf)._mpf_, W)
    k_cut = 1 << -(-(W + 1) // r)  # k**r >= 2**(W+1) from here on
    acc, T = 0, anchor
    for k in range(k0, min(hi, k_cut - 1) + 1):
        term = T // k**r
        if not term:
            break
        acc += term
        T = T * ((N - k) * a) // ((k + 1) * b)
    else:
        k = max(k0, min(hi + 1, k_cut))
    # k is the first index summed neither way, T its walk value
    tail = 0
    if k <= N:
        kr = k**r if k < k_cut else 1 << (W + 1)
        tail = _edge_tail(-(-(T + k - k0 + 1) // kr), (N - k) * a, (k + 1) * b)
    T = anchor
    for k in range(k0 - 1, lo - 1, -1):
        T = T * ((k + 1) * b) // ((N - k) * a)
        if not T:
            break
        if k < k_cut:
            acc += T // k**r
    else:
        k = lo - 1
        T = T * (lo * b) // ((N - lo + 1) * a)
    if k:
        tail += _edge_tail(T + k0 - k + 1, k * b, (N - k + 1) * a)
    low = max(0, acc - (acc >> bits) - 1)
    high = acc + e_f + tail
    high += (high >> (bits - 1)) + 1
    den = 1 << W
    value = low / den
    return value if value == high / den else None


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


def _log2_jensen(mu: float, r: int, a: int) -> float:
    """log2 of a Jensen lower bound on E[1/(Q+a)**r], Q ~ Poisson(mu).

    P(Q >= 1)**(r+1) / mu**r for a = 0, the positive-part moment, and
    (mu + a)**-r for a >= 1.  Taken in log space, so it stays finite
    where the bound itself underflows.
    """
    if a:
        return -r * math.log2(mu + a)
    return (r + 1) * math.log2(-math.expm1(-mu)) - r * math.log2(mu)


def _direct_sum(mu: float, a: int, r: int, tol: float) -> OracleValue:
    """Sum of pi_mu(k) / (k+a)**r over k >= 0 (k >= 1 when a = 0).

    Truncated and bounded as poisson_inverse_moment_direct describes;
    the bound holds for any a because 1/(k+a)**r <= 1.  The terms go
    straight from the walk into math.fsum; a term whose (k+a)**r passes
    the double range is taken by _over_power.  Up to mu = 700 the walk
    runs the Poisson recurrence itself rather than drawing on
    _poisson_terms, one generator step per term instead of two.

    The stop compares the majorant with tol * L, L the Jensen bound of
    _log2_jensen, taken once per call.  The majorant is tested only
    once pi <= 2 tol L.  That gate drops no stop: for k >= mu the
    divisor rounds to at most k+1, so the rounded majorant is at least
    the rounding of pi (1 - 2**-53), which is no less than pi / 2, and
    a majorant at most tol L puts pi at most 2 tol L.  Both tests allow
    equality, so where tol L underflows to 0 the walk still ends once
    pi does.
    """
    _check_walk_mu(mu)
    limit = tol * 2.0 ** _log2_jensen(mu, r, a)
    tail = math.inf

    def terms() -> Iterator[float]:
        nonlocal tail
        walk = None if mu <= 700.0 else _poisson_terms(mu)
        pi = math.exp(-mu)
        gate = 2.0 * limit
        if a and walk is None:  # past mu = 700 the k = 0 term, under e**-700, is left out
            yield _over_power(pi, a, r)
        for k in count(1):
            if walk is None:
                pi *= mu / k
            else:
                pi = next(walk)[1]
            if k >= mu and pi <= gate:
                tail = pi * (k + 1) / (k + 1 - mu)
                if tail <= limit:
                    return
            try:
                t = pi / (k + a) ** r
            except OverflowError:  # (k+a)**r past the double range
                t = _over_power(pi, k + a, r)
            yield t

    return OracleValue(math.fsum(terms()), tail)


def poisson_inverse_moment_direct(mu: float, r: int, tol: float = 1e-12) -> OracleValue:
    """E+[1/Q**r] for Q ~ Poisson(mu), by direct summation.

    Sums e**(-mu) * mu**k / (k! * k**r) over k >= 1 and truncates at the
    first k >= mu where the geometric tail majorant
    pi_mu(k) * (k+1) / (k+1-mu) is at most ``tol`` times the Jensen
    lower bound P(Q >= 1)**(r+1) / mu**r of the result, so ``tol`` is
    relative.  The majorant also covers the weighted tail because
    1/k**r <= 1, and it is returned as the ``tail_bound``.  mu above
    1e8 is refused (_WALK_MU_CAP).
    """
    _check_mu(mu)
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if not tol > 0.0:  # a NaN tol would never stop the walk
        raise DomainError("tol must be positive")
    return _direct_sum(mu, 0, r, tol)


def shifted_poisson_moment_direct(
    mu: float, a: int, r: int, tol: float = 1e-12
) -> OracleValue:
    """E[1/(Q+a)**r] for Q ~ Poisson(mu), by direct summation.

    For a >= 1 the k = 0 term is included, so this is a plain (not
    conditioned) expectation.  For a = 0 the sum starts at k = 1 and the
    result is the positive-part moment; a = 0 with r = 0 is rejected
    because that expectation has no finite defining sum to truncate.
    The walk stops as poisson_inverse_moment_direct's does, with the
    Jensen bound (mu + a)**-r for a >= 1, so ``tol`` is relative here
    too.
    """
    _check_mu(mu)
    if a < 0:
        raise DomainError("shift a must be a non-negative integer")
    if r < 0:
        raise DomainError("moment order r must be non-negative")
    if a == 0 and r == 0:
        raise DomainError("a = 0 with r = 0 is not a defined moment here")
    if not tol > 0.0:  # a NaN tol would never stop the walk
        raise DomainError("tol must be positive")
    if r == 0:
        return OracleValue(1.0, 0.0)
    return _direct_sum(mu, a, r, tol)


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
    return _central_moments_binomial(N, p, (i,))[0]


def _central_moments_binomial(N: int, p: float, indices) -> list[float]:
    """central_moment_binomial for every index in ``indices`` at once.

    Each moment is math.fsum of the same products a single call takes,
    so the values are the same doubles.  When more than one index needs
    a sum, the pmf is computed once into an array of N + 1 doubles;
    a single sum streams it, in O(1) memory.  Arguments are the
    caller's to validate.
    """
    if N == 0:
        return [1.0 if i == 0 else 0.0 for i in indices]
    mu = N * p
    pdf = _pdf_in_k(N, p)
    if len({i for i in indices if i != 1}) > 1:
        pdf = array("d", map(pdf, range(N + 1))).__getitem__
    return [
        0.0 if i == 1 else math.fsum(pdf(k) * (k - mu) ** i for k in range(N + 1))
        for i in indices
    ]


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
