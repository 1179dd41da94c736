"""Ground truth by direct, cancellation-free summation.

Every routine here evaluates its target quantity from the defining sum,
with non-negative terms wherever possible, and rounds the exact sum of
its terms once: math.fsum adds rounded terms of E+[1/Q**r] up to mu =
700, and the binomial inverse moment, the shifted Poisson moments and
E+[1/Q**r] past 700 sum the terms of an exact-ratio integer walk from
the mode (_ratio_walk), on one scale and stop (_walk_scale) under one
error bound (_walk_sums), which the q table of poisson_moments takes
too, so they are the moment itself, correctly rounded (_ziv).  The
binomial central moments and factorial cumulants are exact, rounded
once.  The faster or cleverer formulas elsewhere in the package are
tested against these.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, count, islice, repeat
from operator import floordiv, truediv
from typing import Callable, Iterable, Iterator, Union

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
        _check_N(self.N)
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


def _check_N(N: int, least: int = 1) -> None:
    """Reject an N that is not an int (10.0 is not one) or lies below ``least``, 1 or 0."""
    if not isinstance(N, int) or N < least:
        raise DomainError(f"N must be a {'positive' if least else 'non-negative'} integer")


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
    1 _binomial_walk from 56 bits (_ziv), a double's 53 and 3 to spare.
    """
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if isinstance(spec, Binomial):
        N, p = spec.N, spec.p
        if p == 0.0:
            return 0.0
        if p == 1.0:
            return _over_power(1.0, N, r)
        return _ziv(partial(_binomial_walk, N, p, r), 56)
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


def _ziv(attempt: Callable[[int], object], prec: int):
    """attempt(prec), prec doubled while it returns None, undecided (Ziv's scheme)."""
    while (value := attempt(prec)) is None:
        prec *= 2
    return value


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
    up_steps = None if top is None else min(max(0, top - 1 - k0), sys.maxsize)  # islice's limit
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


_WALK_GUARD = 8  # g: bits past the floors' 2**B, and the anchor's past prec


def _walk_scale(prec: int, log2_L: float, var: float, cap: float) -> tuple[int, int]:
    """(W, B): the scale 2**W and the stop 2**B of every walk for a moment m to prec bits.

    With L a lower bound on m (Jensen's), c = ceil(-log2 L) at most cap,
    B = _walk_bits(prec + c + 1, var) and the guard g = _WALK_GUARD, W =
    prec + g + B + c puts 2**W max(m, 2**-cap) at 2**(prec + g + B) or
    more.  The walk stops below 2**B, near 2**-(prec + g + c) of the
    peak, and upward at _power_cutoff.  That stop adds edge tails near
    2**B / (1 - rho) to F, up to 2**(B+g) with g (F = 175 2**B at mu =
    1e6), and the anchor is at wp = prec + g bits, so _walk_sums' err is
    about 2**-prec of 2**W max(m, 2**-cap); a larger F costs a retry (_ziv).
    """
    c = min(math.ceil(-log2_L), cap)
    B = _walk_bits(prec + c + 1, var)
    return prec + _WALK_GUARD + B + c, B


def _power_cutoff(W: int, r: int) -> int:
    """2**ceil((W+1) / r): from here on j**r >= 2**(W+1), so floor(T / j**r) is 0 for every T."""
    return 1 << -(-(W + 1) // r)


def _walk_sums(
    lo: int, terms: list[int], F: int, r: int, shifts: range, W: int, wp: int
) -> list[tuple[int, int]]:
    """(total, err) per shift a: total sums floor(T(k) / (k+a)**r) over k + a >= 1.

    One list of j**r serves every shift.  Each total is within err of
    2**W m, m the sum of pmf(k) / (k+a)**r over k + a >= 1, for (lo,
    terms, F) a _ratio_walk over that pmf on the scale 2**W from an
    anchor within a relative |eps| <= 2**-wp, X(k) = 2**W pmf(k) (1 +
    eps).  As every weight 1/(k+a)**r is at most 1, F puts the sum of
    X(k) / (k+a)**r in [total, total + F]: it bounds the window's floors,
    also those not formed from k + a = _power_cutoff(W, r) on, where
    T(k) < 2**(W+1) <= (k+a)**r floors to 0, and the tails.  2**W m is
    that sum over 1 + eps, so within F + 2**(1-wp) (total + F) of total,
    which err rounds up.
    """
    j0, top = max(lo + shifts[0], 1), min(lo + len(terms) + shifts[-1], _power_cutoff(W, r))
    powers = list(map(pow, range(j0, top), repeat(r)))
    sums = []
    for a in shifts:
        skip = lo + a == 0  # no 1/0**r
        total = sum(map(floordiv, terms[skip:], powers[lo + a + skip - j0:]))
        sums.append((total, F + ((total + F) >> (wp - 1)) + 1))
    return sums


def _log2_jensen_binomial(N: int, p: float, r: int) -> float:
    """log2 of Jensen's lower bound P(K >= 1)**(r+1) / (Np)**r on E+[1/K**r]."""
    return (r + 1) * math.log2(-math.expm1(N * math.log1p(-p))) - r * math.log2(N * p)


def _binomial_walk(N: int, p: float, r: int, prec: int) -> float | None:
    """sum of pmf(k) / k**r over k >= 1, rounded once; None if undecided.

    The double p is exactly a / 2**s, so q = b / 2**s with b = 2**s - a
    is exact too, and the pmf steps from its mode k0 = floor((N+1) p) by
    the ratio (N a - a k) / (b + b k), with Jensen's bound, var = Npq and
    the cap 1080 (_walk_scale, _walk_sums).  While s N <= _EXACT_ANCHOR_BITS
    the anchor is the exact floor of 2**W C(N, k0) a**k0 b**(N-k0) /
    2**(s N).  Past that it is one mpmath exp(log C(N, k0) + k0 log p +
    (N-k0) log q) at wp + g bits, 2**g = 2**8 M: M = (N+1) (3 log(N+1) +
    |log p| + |log q|) bounds the terms that cancel, and 8 bits cover
    mpmath's few-ulp errors in its eight operations.
    """
    a, two_s = p.as_integer_ratio()
    b = two_s - a
    sN = (two_s.bit_length() - 1) * N
    k0 = (N + 1) * a // two_s
    W, B = _walk_scale(prec, _log2_jensen_binomial(N, p, r), N * p * (1.0 - p), 1080)
    wp = prec + _WALK_GUARD
    if sN <= _EXACT_ANCHOR_BITS:
        anchor = (math.comb(N, k0) * a**k0 * b ** (N - k0) << W) >> sN
    else:
        M = (N + 1) * (3.0 * math.log(N + 1) - math.log(p) - math.log1p(-p))
        with mpmath.workprec(wp + math.ceil(math.log2(M)) + 8):
            P = mpmath.mpf(p)
            log_pmf = (mpmath.loggamma(N + 1) - mpmath.loggamma(k0 + 1)
                       - mpmath.loggamma(N - k0 + 1) + k0 * mpmath.log(P)
                       + (N - k0) * mpmath.log1p(-P))
            anchor = to_fixed(mpmath.exp(log_pmf)._mpf_, W)
    lo, terms, F = _ratio_walk(anchor, k0, N * a, -a, b, b, 1 << B, _power_cutoff(W, r))
    (total, err), = _walk_sums(lo, terms, F, r, range(1), W, wp)
    return _round_once(max(0, total - err), total + err, 1 << W)


def _log2_jensen(mu: float, r: int, a: int) -> float:
    """log2 of a Jensen lower bound on E[1/(Q+a)**r], Q ~ Poisson(mu).

    P(Q >= 1)**(r+1) / mu**r for a = 0, the positive-part moment, and
    (mu + a)**-r for a >= 1.  Taken in log space, so it stays finite
    where the bound itself underflows.
    """
    if a:
        return -r * math.log2(mu + a)
    return (r + 1) * math.log2(-math.expm1(-mu)) - r * math.log2(mu)


def _poisson_window(
    mu: float, W: int, wp: int, stop: int = 1, top: int | None = None
) -> tuple[int, list[int], int]:
    """(lo, terms, F): T(k) ~ 2**W pi(k) for k = lo, lo + 1, ..., and a bound F.

    The double mu is exactly a / 2**s, and the walk is _ratio_walk by
    the ratio a / ((k+1) 2**s) from the mode k0 = floor(mu), to ``stop``
    and ``top``; expand_pdf reads the whole window, down to stop 1.  Its
    anchor is the floor of 2**W pi(k0) (1 + eps) for one mpmath exp(k0
    log mu - mu - loggamma(k0 + 1)) at wp + g bits; 2**g is 2**8 times
    the size of the logs that cancel, so |eps| <= 2**-wp.
    """
    a, b = mu.as_integer_ratio()
    k0 = a // b
    logs = 1.0 + mu + k0 * (abs(math.log(mu)) + math.log(k0 + 1))
    with mpmath.workprec(wp + math.ceil(math.log2(logs)) + 8):
        x = mpmath.mpf(mu)
        anchor = to_fixed(mpmath.exp(k0 * mpmath.log(x) - x - mpmath.loggamma(k0 + 1))._mpf_, W)
    return _ratio_walk(anchor, k0, a, 0, b, b, stop, top)


def _poisson_walk(mu: float, a: int, r: int, limit: float, prec: int) -> OracleValue | None:
    """E[1/(Q+a)**r] (k >= 1 at a = 0) rounded once, err / 2**W its tail_bound; or None.

    The window with Jensen's bound, var = mu and the cap 1080 (_walk_scale,
    _walk_sums); None while undecided or the bound passes ``limit``.
    """
    W, B = _walk_scale(prec, _log2_jensen(mu, r, a), mu, 1080)
    wp = prec + _WALK_GUARD
    lo, terms, F = _poisson_window(mu, W, wp, 1 << B, _power_cutoff(W, r) - a)
    (total, err), = _walk_sums(lo, terms, F, r, range(a, a + 1), W, wp)
    value, tail = _round_once(max(0, total - err), total + err, 1 << W), err / (1 << W)
    return OracleValue(value, tail) if value is not None and tail <= limit else None


def _direct_sum(mu: float, a: int, r: int, tol: float) -> OracleValue:
    """Sum of pi_mu(k) / (k+a)**r over k >= 0 (k >= 1 when a = 0).

    A shift a >= 1, and a = 0 past mu = 700, where e**-mu leaves the
    normal range, is _poisson_walk (_ziv) from prec = max(64, 2 +
    ceil(-log2 tol)): the moment correctly rounded, its err near
    2**-prec, below tol L where the moment is within a few L.  Where tol
    L underflows, err / 2**W must too: a wp past 1075.

    Otherwise it is E+[1/Q**r], truncated and bounded as
    poisson_inverse_moment_direct describes: the fsum of _float_terms,
    whose stop compares the majorant with tol * L, L the Jensen bound of
    _log2_jensen, taken once per call.  The majorant is tested only
    once pi <= 2 tol L.  That gate drops no stop: for k >= mu the
    divisor rounds to at most k+1, so the rounded majorant is at least
    the rounding of pi (1 - 2**-53), which is no less than pi / 2, and
    a majorant at most tol L puts pi at most 2 tol L.  Both tests allow
    equality, so where tol L underflows to 0 the walk still ends once pi
    does.
    """
    _check_walk_mu(mu)
    limit = tol * 2.0 ** _log2_jensen(mu, r, a)
    if mu > 700.0 or a:
        prec = max(64, 2 + math.ceil(-math.log2(tol)))
        return _ziv(partial(_poisson_walk, mu, a, r, limit), prec)
    terms, tail = _float_terms(mu, r, limit)
    return OracleValue(math.fsum(terms), tail)


def _float_terms(
    mu: float, r: int, limit: float = 0.0, m1: int | None = None
) -> tuple[Iterator[float], float]:
    """(terms, tail): pi(k) / k**r for k = 1, 2, ..., and the tail majorant; mu <= 700.

    The one float walk of E+[1/Q**r]: pi = e**-mu, then pi *= mu / k.
    Below k = ceil(mu) it tests nothing.  From there on it stops as
    _direct_sum says, also after m1 terms if given; a limit of 0.0 stops
    it only once pi is 0.0, so it drops only terms that are 0.0.  Past k =
    2 mu each step at least halves pi, so pi is 0.0 within 1075 more:
    every walk ends before k = 2476 (the longest, at mu = 700, has 1942
    terms).  Term k is pi / float(k**r), the double CPython divides by
    in pi / k**r (_float_powers), and _over_power past the double range,
    up to the first k with r log2 k > 1080: from there on every term is
    0.0 (_over_power), so none is formed, which changes no sum of a
    prefix of the terms.
    """
    pi, pis = math.exp(-mu), []
    append = pis.append
    free = math.ceil(mu) if m1 is None else min(math.ceil(mu), m1 + 1)
    for k in range(1, free):
        pi *= mu / k
        append(pi)
    gate, tail = 2.0 * limit, math.inf
    for k in count(free) if m1 is None else range(free, m1 + 1):
        pi *= mu / k
        if pi <= gate:
            tail = pi * (k + 1) / (k + 1 - mu)
            if tail <= limit:
                break
        append(pi)
    P = _float_powers(r, 1 << (len(pis) - 1).bit_length())
    terms = map(truediv, pis, P)
    if len(P) < len(pis):
        k = len(P) + 1
        while k <= len(pis) and r * math.log2(k) <= 1080.0:
            k += 1
        terms = chain(terms, map(_over_power, pis[len(P):k - 1], count(len(P) + 1), repeat(r)))
    return terms, tail


@lru_cache(maxsize=64)
def _float_powers(r: int, size: int) -> tuple[float, ...]:
    """float(k**r) for k = 1 .. size, up to the first k**r past the double range.

    size is a float walk's length rounded up to a power of two, so at
    most 4096 (2048 up to the longest walk), and the cache holds at most
    64 (r, size) pairs.
    """
    powers = []
    for k in range(1, size + 1):
        if r * math.log2(k) > 1025.0:  # k**r >= 2**1024, not formed
            break
        try:
            powers.append(float(k**r))
        except OverflowError:
            break
    return tuple(powers)


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
    conditioned) expectation, correctly rounded at every mu from the
    integer walk, and ``tail_bound``, at most tol (mu + a)**-r, Jensen's
    bound, bounds its whole error (_direct_sum).  For a = 0 the sum
    starts at k = 1 and the result is poisson_inverse_moment_direct's
    positive-part moment; a = 0 with r = 0 is rejected because that
    expectation has no finite defining sum to truncate.
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
    _check_N(N, 0)
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


# The expansion of order m reads alpha(l, j) only for l + j <= m - 1 and
# cumulants only up to m, and charlier_expansion refuses orders past this
# cap, so special_numbers.alpha refuses l + j >= _ORDER_CAP and the
# cumulant builder max_j past it.  Cold _part_coefficients builds take
# 0.07 s at m = 40, 1.84 s at 120, 3.66 s at 160.
_ORDER_CAP = 120


def factorial_cumulants_from_pdf(weights: Iterable[float], max_j: int) -> list[float]:
    """Factorial cumulants kappa(1)..kappa(max_j) of an explicit pdf, each rounded once.

    The factorial moments G_n = sum_k f(k) k! / (k-n)! of the double
    weights are exact rationals, and so is kappa(n) = G_n - sum_{0<i<n}
    C(n-1, i-1) kappa(i) G_{n-i}, n! times the n-th coefficient of log
    sum_k f(k) (1+x)**k (G_0, the mass, enters none).  Each G_n is
    built as its kappa needs it, and each kappa is rounded as it is
    made, so the first one past the double range raises DomainError, as
    does max_j past _ORDER_CAP, at once.
    """
    if not 1 <= max_j <= _ORDER_CAP:
        raise DomainError(f"max_j must lie in 1..{_ORDER_CAP}")
    pdf = ExplicitPdf(tuple(weights))
    w = [(k, Fraction(x)) for k, x in enumerate(pdf.weights) if x]
    G, kappas, rounded = [None], [], []
    for n in range(1, max_j + 1):
        G.append(sum(f * math.perm(k, n) for k, f in w if k >= n))
        cross = (math.comb(n - 1, i - 1) * kappas[i - 1] * G[n - i] for i in range(1, n))
        kappas.append(G[n] - sum(cross))
        try:
            rounded.append(float(kappas[-1]))
        except OverflowError:
            raise DomainError(f"factorial cumulant {n} passes the double range") from None
    return rounded
