"""Ground truth by direct, cancellation-free summation.

Every routine here evaluates its target quantity from the defining sum,
with non-negative terms wherever possible, and rounds the exact sum of
its terms once: math.fsum adds rounded terms, and the binomial inverse
moment and the Poisson moments past mu = 700 sum the terms of an
exact-ratio integer walk from the mode (_ratio_walk, whose Poisson
window the q table of poisson_moments reads too) under an error bound,
so they are the moment itself, correctly rounded.  The binomial central
moments are exact integers on the scale of the exact p, rounded once.
The faster or cleverer formulas elsewhere in the package are tested
against these.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice, repeat
from operator import floordiv
from typing import Iterable, Iterator, Union

import mpmath
from mpmath.libmp import to_fixed

__all__ = [
    "DomainError",
    "Binomial",
    "ExplicitPdf",
    "DistributionSpec",
    "OracleValue",
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


_WALK_MU_CAP = 1e8  # expand_pdf's list holds ~mu doubles; the window walk grows like sqrt(mu)


def _check_walk_mu(mu: float) -> None:
    """Refuse a Poisson walk past _WALK_MU_CAP; below it every walk ends."""
    if mu > _WALK_MU_CAP:
        raise DomainError(f"the Poisson walk takes mu <= {_WALK_MU_CAP:g}, not {mu:g}")


_EXACT_ANCHOR_BITS = 1 << 14  # s N up to this: the exact anchor is the quicker (measured)


def exact_inverse_moment(spec: DistributionSpec, r: int) -> float:
    """E+[1/K**r], the inverse moment restricted to the event K >= 1.

    An explicit pdf gives the correctly rounded sum of its rounded terms,
    also where k**r passes the double range (_over_power).  A binomial
    gives the moment of the binomial with that exact double p, correctly
    rounded: p = 0 gives 0.0 and p = 1 its one atom 1/N**r, and 0 < p <
    1 _binomial_walk at 64 bits past the result, with the bits doubled
    while its rounding is undecided (Ziv's scheme).
    """
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if isinstance(spec, Binomial):
        N, p, bits = spec.N, spec.p, 64
        if p == 0.0:
            return 0.0
        if p == 1.0:
            return _over_power(1.0, N, r)
        while (value := _binomial_walk(N, p, r, bits)) is None:
            bits *= 2
        return value
    if not isinstance(spec, ExplicitPdf):
        raise DomainError(f"unsupported distribution spec: {spec!r}")
    pairs = lambda: zip(count(1), spec.weights[1:])
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


def _round_once(low: int, high: int, den: int) -> float | None:
    """The double that both low / den and high / den round to; None if they differ.

    Integer true division rounds correctly and monotonically, so when both
    ends of an interval round to one double, so does every value in it.
    """
    value = low / den
    return value if value == high / den else None


def _walk_bits(depth: int, var: float) -> int:
    """ceil(log2((D+2) (2D + 2 var + 6))), D = lam/3 + sqrt(lam**2/9 + 2 lam var) + 2.

    With lam = depth log 2 and depth >= 3, 2**this bounds the F of a
    _ratio_walk with stop 1 over a Poisson (var = mu) or binomial (var =
    Npq) pmf if every T(k) >= 1 has pmf(k) >= 2**-depth.  By the Chernoff and
    Bernstein bounds exp(-t**2 / (2 (var + t/3))) on each tail, such a k
    lies within D - 2 of the mean, so within D - 1 of the mode, and each
    side stops within D steps of it.  So the floor bounds sum to under
    (D+2) (D+3), each edge value is at most D + 1, and as 1 / (1 - rho)
    is at most var + 3 a step or more out of the mode, the two tails are
    at most (D+1) (2 var + 6).
    """
    lam = depth * math.log(2.0)
    D = lam / 3.0 + math.sqrt(lam * lam / 9.0 + 2.0 * lam * var) + 2.0
    return math.ceil(math.log2((D + 2.0) * (2.0 * D + 2.0 * var + 6.0)))


def _ratio_walk(
    anchor: int, k0: int, n0: int, n1: int, d0: int, d1: int, stop: int, top: int | None = None
) -> tuple[int, list[int], int]:
    """(lo, terms, F): T(k) ~ 2**W pmf(k) for k = lo, lo + 1, ..., and a bound F.

    The pmf steps by the exact ratio pmf(k+1) / pmf(k) = (n0 + n1 k) /
    (d0 + d1 k), d0 = d1, and k0 is its mode: Poisson(a / 2**s) passes
    (a, 0, 2**s, 2**s) and Binomial(N, a / (a + b)) passes (N a, -a, b,
    b).  anchor >= stop is the floor of X(k0), where X(k) = 2**W pmf(k)
    (1 + eps) for one eps.  The walk steps up by T(k+1) = floor(T(k)
    (n0 + n1 k) / (d0 + d1 k)) and down by the reciprocal ratio at k - 1,
    which is 0 at k = 0, as the upward one is at the end of a finite
    support.  Every ratio away from the mode is at most 1, so a floor
    never grows an earlier one: T(k) lies within |k - k0| + 1 units below
    X(k), and a weighted floor floor(T(k) w), w <= 1, within |k - k0| + 2
    units of X(k) w.  Each side stops at its first k with T(k) < stop,
    one past the support at the latest, where X(k) = 0.  Inside it the
    ratios outward keep falling past k (the pmf is log-concave), so the
    X mass from k on, weighted by w <= 1, is at most the geometric tail
    v / (1 - rho) of v = T(k) + |k - k0| + 1 >= X(k) and rho the ratio
    out of k.  The upward side stops before k = top too, if given, where
    the caller's weights are at most 2**-(W+1): the X mass from there on,
    at most 2**W (1 + eps) in all, then weighs under 1 unit, its tail.
    F sums the floor bounds over the window and both tails.
    """
    sides, tail = [], 0
    up_steps = None if top is None else max(0, top - 1 - k0)
    for nums, dens, steps in (
        (count(n0 + n1 * k0, n1), count(d0 + d1 * k0, d1), up_steps),
        (count(d0 + d1 * (k0 - 1), -d1), count(n0 + n1 * (k0 - 1), -n1), None),
    ):
        side, T = [], anchor
        for n, d in islice(zip(nums, dens), steps):
            T = T * n // d
            if T < stop:
                if n:  # the side stopped inside the support
                    n, d = next(nums), next(dens)
                    tail += -(-(T + len(side) + 2) * d // (d - n))
                break
            side.append(T)
        else:  # the upward side reached top
            tail += 1
        sides.append(side)
    up, down = sides
    d_lo, d_hi = len(down), len(up)
    F = (d_lo * (d_lo + 1) + d_hi * (d_hi + 1)) // 2 + 2 * (d_lo + d_hi + 1) + tail
    return k0 - d_lo, down[::-1] + [anchor] + up, F


def _log2_jensen_binomial(N: int, p: float, r: int) -> float:
    """log2 of Jensen's lower bound P(K >= 1)**(r+1) / (Np)**r on E+[1/K**r]."""
    return (r + 1) * math.log2(-math.expm1(N * math.log1p(-p))) - r * math.log2(N * p)


def _binomial_walk(N: int, p: float, r: int, bits: int) -> float | None:
    """sum of pmf(k) / k**r over k >= 1, rounded once; None if undecided.

    The double p is exactly a / 2**s, so q = b / 2**s with b = 2**s - a
    is exact too, and the pmf steps from its mode k0 = floor((N+1) p) by
    the ratio (N a - a k) / (b + b k) (_ratio_walk).  c is -log2 of
    Jensen's L, rounded up and at most 1080, so a subnormal result keeps
    bits to spare.  The scale is W = bits + B + c, B = _walk_bits(bits +
    c + 1, Npq), and the walk stops below 2**B, near 2**-(bits + c) of
    the pmf's peak.  While s N <= _EXACT_ANCHOR_BITS the anchor is the
    exact floor of 2**W C(N, k0) a**k0 b**(N-k0) / 2**(s N).  Past that
    it is one mpmath exp(log C(N, k0) + k0 log p + (N-k0) log q) at
    max(bits, 64) + g bits, 2**g = 2**8 M, where M = (N+1) (3 log(N+1) +
    |log p| + |log q|) bounds the terms that cancel and 8 bits cover
    mpmath's few-ulp errors in its eight operations: a relative 2**-bits.
    From k = 2**ceil((W+1) / r) on, k**r >= 2**(W+1) > T, so the upward
    walk stops there (its top) and no huge k**r is formed.  With acc the
    sum of the floors over k >= 1, 2**W times the moment lies in [acc (1
    - 2**-bits), (acc + F) (1 + 2**(1-bits))] (_round_once), whichever
    the anchor.
    """
    a, two_s = p.as_integer_ratio()
    b = two_s - a
    sN = (two_s.bit_length() - 1) * N
    k0 = (N + 1) * a // two_s
    c = min(math.ceil(-_log2_jensen_binomial(N, p, r)), 1080)
    B = _walk_bits(bits + c + 1, N * p * (1.0 - p))
    W = bits + B + c
    if sN <= _EXACT_ANCHOR_BITS:
        anchor = (math.comb(N, k0) * a**k0 * b ** (N - k0) << W) >> sN
    else:
        M = (N + 1) * (3.0 * math.log(N + 1) - math.log(p) - math.log1p(-p))
        with mpmath.workprec(max(bits, 64) + math.ceil(math.log2(M)) + 8):
            P = mpmath.mpf(p)
            log_pmf = (mpmath.loggamma(N + 1) - mpmath.loggamma(k0 + 1)
                       - mpmath.loggamma(N - k0 + 1) + k0 * mpmath.log(P)
                       + (N - k0) * mpmath.log1p(-P))
            anchor = to_fixed(mpmath.exp(log_pmf)._mpf_, W)
    k_cut = 1 << -(-(W + 1) // r)
    # past N + 1 the walk has already stopped, and islice takes no 2**(W+1)
    lo, terms, F = _ratio_walk(anchor, k0, N * a, -a, b, b, 1 << B, min(k_cut, N + 2))
    k1, k2 = max(lo, 1), min(lo + len(terms), k_cut)
    acc = sum(map(floordiv, terms[k1 - lo:k2 - lo], map(pow, range(k1, k2), repeat(r))))
    low = max(0, acc - (acc >> bits) - 1)
    high = acc + F
    return _round_once(low, high + (high >> (bits - 1)) + 1, 1 << W)


def _log2_jensen(mu: float, r: int, a: int) -> float:
    """log2 of a Jensen lower bound on E[1/(Q+a)**r], Q ~ Poisson(mu).

    P(Q >= 1)**(r+1) / mu**r for a = 0, the positive-part moment, and
    (mu + a)**-r for a >= 1.  Taken in log space, so it stays finite
    where the bound itself underflows.
    """
    if a:
        return -r * math.log2(mu + a)
    return (r + 1) * math.log2(-math.expm1(-mu)) - r * math.log2(mu)


def _fixed_scale(mu: float, r: int, A: int, prec: int, depth: float = math.inf) -> tuple[int, int]:
    """(S, wp): the fixed-point scale 2**S and the anchor's precision.

    S puts the smallest entry at wp + 2 bits or more, by Jensen's lower
    bound: 1/(mu+A)**r for a >= 1, P(Q >= 1)**(r+1) / mu**r for a = 0,
    or by 2**-depth if that is larger.  With wp = prec + guard and the
    guard 4 bits past a bound on the window's F, each entry's bound
    (_entry_sum) is then 2**-(prec-2) of it or of 2**-depth, whichever
    is larger.  T(k) >= 1 puts pi(k) at 2**-(S+1) or more, so the bound
    is _walk_bits(S + 1, mu).  S depends on the guard, so the guard
    grows until it covers that bound at its own S.
    """
    low = max(math.floor(min(_log2_jensen(mu, r, 0), _log2_jensen(mu, r, A))), -depth)
    guard = 8
    while True:
        need = _walk_bits(prec + guard - low + 3, mu) + 4
        if need <= guard:
            return prec + guard - low + 2, prec + guard
        guard = need


def _poisson_window(mu: float, S: int, wp: int) -> tuple[int, list[int], int]:
    """(lo, terms, F): T(k) ~ 2**S pi(k) for k = lo, lo + 1, ..., and a bound F.

    The double mu is exactly a / 2**s, and the walk is _ratio_walk by
    the ratio a / ((k+1) 2**s) from the mode k0 = floor(mu), down to
    where T floors to 0.  Its anchor is the floor of 2**S pi(k0) (1 +
    eps) for one mpmath exp(k0 log mu - mu - loggamma(k0 + 1)) at wp + g
    bits; 2**g is 2**8 times the size of the logs that cancel, so |eps|
    <= 2**-wp.
    """
    a, b = mu.as_integer_ratio()
    k0 = a // b
    logs = 1.0 + mu + k0 * (abs(math.log(mu)) + math.log(k0 + 1))
    with mpmath.workprec(wp + math.ceil(math.log2(logs)) + 8):
        x = mpmath.mpf(mu)
        anchor = to_fixed(mpmath.exp(k0 * mpmath.log(x) - x - mpmath.loggamma(k0 + 1))._mpf_, S)
    return _ratio_walk(anchor, k0, a, 0, b, b, 1)


def _entry_sum(terms: list[int], powers: Iterable[int], F: int, wp: int) -> tuple[int, int]:
    """(total, err): sum of floor(T(k) / (k+a)**r), within err of 2**S q, q = E[1/(Q+a)**r].

    ``powers`` pairs (k+a)**r with the window's ``terms``, past k = 0 at
    a = 0.  In err = F + ((total + F) >> (wp - 1)) + 1, the window's F
    covers floors and tails, as 1/(k+a)**r <= 1, and the rest the
    anchor's relative error 2**-wp of 2**S q, at most twice total + F.
    """
    total = sum(map(floordiv, terms, powers))
    return total, F + ((total + F) >> (wp - 1)) + 1


def _window_entry(mu: float, a: int, r: int, prec: int) -> tuple[int, int, int]:
    """(total, err, S): _entry_sum of E[1/(Q+a)**r] alone (k >= 1 at a = 0) from j = lo + a.

    At a depth capped at 1080 bits, an entry under 2**-1080 errs by far
    less than the least subnormal; from j = 2**ceil((S+1) / r) on, j**r
    > T, so no floor is taken there.
    """
    S, wp = _fixed_scale(mu, r, a, prec, 1080)
    lo, terms, F = _poisson_window(mu, S, wp)
    skip, j0 = lo + a == 0, lo + a
    terms = terms[skip:max(0, (1 << -(-(S + 1) // r)) - j0)]
    return *_entry_sum(terms, map(pow, count(j0 + skip), repeat(r)), F, wp), S


def _direct_sum(mu: float, a: int, r: int, tol: float) -> OracleValue:
    """Sum of pi_mu(k) / (k+a)**r over k >= 0 (k >= 1 when a = 0).

    Up to mu = 700 it is truncated and bounded as
    poisson_inverse_moment_direct describes, for any a as 1/(k+a)**r <=
    1: terms from pi *= mu / k, by _over_power where (k+a)**r overflows.

    The stop compares the majorant with tol * L, L the Jensen bound of
    _log2_jensen, taken once per call.  The majorant is tested only
    once pi <= 2 tol L.  That gate drops no stop: for k >= mu the
    divisor rounds to at most k+1, so the rounded majorant is at least
    the rounding of pi (1 - 2**-53), which is no less than pi / 2, and
    a majorant at most tol L puts pi at most 2 tol L.  Both tests allow
    equality, so where tol L underflows to 0 the walk still ends once
    pi does.

    Past mu = 700, where e**-mu leaves the normal range, it is
    _window_entry rounded once, with err / 2**S as tail_bound.  From
    prec = max(64, 2 + ceil(-log2 tol)) the floors and tails take at most
    2**-(prec+5) of L (of 2**-1080 where L is smaller) and the anchor
    about 2**(1-wp) of the sum; prec doubles while the rounding is
    undecided or err exceeds tol L (Ziv's scheme), as doubles: where tol L
    underflows, err / 2**S must too, as a wp past 1075 ensures.
    """
    _check_walk_mu(mu)
    limit = tol * 2.0 ** _log2_jensen(mu, r, a)
    if mu > 700.0:
        prec = max(64, 2 + math.ceil(-math.log2(tol)))
        while True:
            total, err, S = _window_entry(mu, a, r, prec)
            value = _round_once(max(0, total - err), total + err, 1 << S)
            if value is not None and (tail := err / (1 << S)) <= limit:
                return OracleValue(value, tail)
            prec *= 2
    tail = math.inf

    def terms() -> Iterator[float]:
        nonlocal tail
        pi = math.exp(-mu)
        gate = 2.0 * limit
        if a:
            yield _over_power(pi, a, r)
        for k in count(1):
            pi *= mu / k
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

    Up to mu = 700 it sums e**(-mu) * mu**k / (k! * k**r) over k >= 1
    and truncates at the first k >= mu where the geometric tail majorant
    pi_mu(k) * (k+1) / (k+1-mu) is at most ``tol`` times the Jensen
    lower bound L = P(Q >= 1)**(r+1) / mu**r of the result, so ``tol``
    is relative.  The majorant also covers the weighted tail because
    1/k**r <= 1, and it is returned as the ``tail_bound``.  Past 700 the
    moment is correctly rounded from the q table's integer walk, and
    ``tail_bound``, at most tol L too, bounds its whole error
    (_direct_sum).  mu above 1e8 is refused (_WALK_MU_CAP).
    """
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    return shifted_poisson_moment_direct(mu, 0, r, tol)


def shifted_poisson_moment_direct(
    mu: float, a: int, r: int, tol: float = 1e-12
) -> OracleValue:
    """E[1/(Q+a)**r] for Q ~ Poisson(mu), by direct summation.

    For a >= 1 the k = 0 term is included, so this is a plain (not
    conditioned) expectation.  For a = 0 the sum starts at k = 1 and the
    result is the positive-part moment; a = 0 with r = 0 is rejected
    because that expectation has no finite defining sum to truncate.
    The route, the stop and the ``tail_bound`` are
    poisson_inverse_moment_direct's, with the Jensen bound (mu + a)**-r
    for a >= 1, so ``tol`` is relative here too.
    """
    _check_mu(mu)
    if a < 0:
        raise DomainError("shift a must be a non-negative integer")
    if r < 0:
        raise DomainError("moment order r must be non-negative")
    if a == 0 and r == 0:
        raise DomainError("a = 0 with r = 0 is not a defined moment here")
    if not 0.0 < tol < math.inf:  # a NaN limit, from NaN or inf times 0, never stops the walk
        raise DomainError("tol must be positive and finite")
    if r == 0:
        return OracleValue(1.0, 0.0)
    return _direct_sum(mu, a, r, tol)


_MOMENT_CAP = 400  # the exact build grows like i**3; at 400 a cold one takes under 1 s


def central_moment_binomial(N: int, p: float, i: int) -> float:
    """E[(K - Np)**i] for K ~ Binomial(N, p), the exact moment rounded once.

    It is a polynomial in p with integer coefficients, so at the exact
    double p = a / 2**s it is an exact integer over 2**(s i)
    (_scaled_central_moments), whose quotient rounds once.  Where that
    passes the double range, and for i past _MOMENT_CAP, it raises
    DomainError.  N = 0 is accepted as the one-point distribution at
    zero; the shifted-sample consumers need that degenerate case.
    """
    if N < 0:
        raise DomainError("N must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    if not 0 <= i <= _MOMENT_CAP:
        raise DomainError(f"moment index i must lie in 0..{_MOMENT_CAP}")
    a, two_s = p.as_integer_ratio()
    try:
        return _scaled_central_moments(N, a, two_s.bit_length() - 1, (i,))[i] / two_s**i
    except OverflowError:
        raise DomainError(f"central moment i={i} overflows double precision") from None


def _scaled_central_moments(n: int, a: int, s: int, indices) -> dict[int, int]:
    """{i: 2**(s i) mu_i} for each index, mu_i the i-th central moment of Binomial(n, a / 2**s).

    mu_i is a polynomial in p of degree at most i, with integer
    coefficients from Romanovsky's recurrence mu_{i+1} = p q (n i
    mu_{i-1} + d mu_i / dp), mu_0 = 1 and mu_1 = 0, so 2**(s i) mu_i is
    an exact integer.  The coefficients of the next moment are built
    from the last two, and each wanted one is evaluated at p
    (_scaled_polynomial).  The build costs about i**3 in all.
    """
    wanted = set(indices)
    scaled = {}
    prev, cur = [], [1]
    for i in range(max(wanted, default=-1) + 1):
        if i in wanted:
            scaled[i] = _scaled_polynomial(cur, a, s)
        f = [j * c + n * i * d for j, c, d in zip(count(1), cur[1:], prev)]
        prev, cur = cur, [x - y for x, y in zip([0, *f, 0], [0, 0, *f])]
    return scaled


def _scaled_polynomial(c: list[int], a: int, s: int) -> int:
    """sum of c[j] a**j 2**(s (d - j)) over j, d = len(c) - 1: 2**(s d) c(a / 2**s).

    Horner's rule for a few coefficients.  Past that by halves, so that
    the big products are few: the low half shifted past the high half's
    degree, plus a**m times the high half.
    """
    if len(c) > 8:
        m = len(c) // 2
        low, high = (_scaled_polynomial(half, a, s) for half in (c[:m], c[m:]))
        return (low << s * (len(c) - m)) + a**m * high
    h = 0
    for t, cj in enumerate(reversed(c)):
        h = h * a + (cj << s * t)
    return h


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
