"""Inverse moments of the positive Poisson distribution.

The ascending series for E+[1/Q**r] converges everywhere but needs ever
more terms as mu grows, while the large-mu series built from Stirling
numbers diverges yet delivers excellent accuracy when truncated at the
right length.  Production evaluation therefore switches between the two
at a calibrated cross-over point.  ``calibrate_crossover`` finds that
point, together with the term counts for both branches, by measuring
relative error against the direct oracle.

Shifted moments E[1/(Q+a)**r] for a >= 1 come from the direct sum's
integer walk, correctly rounded at every mu.  The expansion's inputs
need no mpmath sum.  The q table holds each E[1/(Q+a)**r] as an exact
integer on one scale 2**S with its own error bound, so its alternating
differences are exact integer sums (build_q_table).  Its Poisson terms,
like the direct oracles' for a >= 1 or past mu = 700, come from the
integer walk out from the mode by the pmf's exact ratios, on the one
scale, stop and bound of every walk (exact_oracle._walk_scale), about
2.3 sqrt(mu (S - B)) steps.  At r = 1, y(n), mu**n times the n-th
alternating forward difference of a -> E[1/(Q+a)], is exact integers
times e**(-mu) Er(mu) and e**(-mu), which the expansion kernel takes
from one integer series while mu is at most its working precision in
bits, and from _er_from_ei past that (charlier_expansion._r1_rows and
_scaled_g_e0).
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import count

import mpmath
from mpmath import mpf

from .exact_oracle import (
    _WALK_GUARD, DomainError, _check_mu, _check_walk_mu, _direct_sum, _float_terms,
    _log2_jensen, _poisson_window, _power_cutoff, _walk_scale, _walk_sums,
    shifted_poisson_moment_direct,
)
from .special_numbers import _stirling_row

__all__ = [
    "CalibrationError",
    "CrossoverProfile",
    "ShiftedMomentTable",
    "er_function",
    "positive_poisson_inverse_moment",
    "shifted_inverse_moment",
    "build_q_table",
    "calibrate_crossover",
]


class CalibrationError(RuntimeError):
    """No series pair reached the requested accuracy.

    ``best_achieved`` carries the smallest relative error that was seen
    while searching, so callers can report how far away the target was.
    """

    def __init__(self, message: str, best_achieved: float | None = None) -> None:
        super().__init__(message)
        self.best_achieved = best_achieved


@dataclass(frozen=True)
class CrossoverProfile:
    """Calibrated evaluation strategy for one moment order and accuracy.

    For mu <= mu_star the ascending series with M1 terms meets the
    target relative error; beyond mu_star the truncated large-mu series
    with M2 terms takes over.  ``validated_max_rel_error`` records the
    worst relative error observed on the calibration sweep grid, when a
    sweep was run.
    """

    r: int
    target_rel_error: float
    mu_star: float
    M1: int
    M2: int
    validated_max_rel_error: float | None = None

    def __post_init__(self) -> None:
        if self.M1 < 1 or self.M2 < 1:
            raise DomainError("a profile needs at least one term in each series")
        if not self.mu_star >= 0.0:  # NaN fails the test too
            raise DomainError("mu_star must be non-negative")


def er_function(mu: float) -> float:
    """Sum of mu**i / (i * i!) over i >= 1.

    This is the entire part of the exponential integral: Ei(mu) minus
    log(mu) minus the Euler constant, which is how it is computed, at 20
    digits, so the rounded double is accurate to about one ulp.  The
    series value itself overflows doubles near mu = 700, hence the
    domain cut there; callers needing e**(-mu) * Er(mu) at large mu
    should work at extended precision instead.
    """
    if not mu >= 0.0:
        raise DomainError("mu must be non-negative")
    if mu == 0.0:
        return 0.0
    if mu > 700.0:
        raise DomainError("series overflows double precision beyond mu = 700")
    with mpmath.workdps(20):
        return float(_er_from_ei(mu))


def _er_from_ei(mu: float) -> mpf:
    """Er(mu) = Ei(mu) - log(mu) - euler at the current working precision.

    Below mu = 1 the difference cancels about log10(|log mu| / mu)
    digits, so it is taken with that many guard digits.  The count comes
    from log10(mu), which stays finite down to the smallest subnormal
    mu, where 1/mu would overflow.
    """
    guard = 3 + max(0, math.ceil(-math.log10(mu)))
    with mpmath.extradps(guard):
        x = mpf(mu)
        er = mpmath.ei(x) - mpmath.log(x) - mpmath.euler
    return +er


# The oracle's tail is at most this much of Jensen's bound on E+[1/Q**r]
_ORACLE_TOL = 1e-18


def _positive_moment_double(mu: float, r: int) -> float:
    """E+[1/Q**r] by the direct sum, to full double accuracy (oracle grade)."""
    return _direct_sum(mu, 0, r, _ORACLE_TOL).value


def _ascending_partial(mu: float, r: int, m1: int) -> float:
    """First m1 >= 1 terms of the ascending series, the oracle's own (exact_oracle._float_terms).

    Past mu = 700 e**-mu leaves the normal range: DomainError, reached
    only by a hand-made profile with mu_star > 700 (calibration stays
    below 210).
    """
    if mu > 700.0:
        raise DomainError(f"the ascending series takes mu <= 700, not {mu:g}")
    return math.fsum(_float_terms(mu, r, m1=m1)[0])


# The large-mu series needs |s(r+i, r)| for i = 0 .. M2-1.  Entries stay
# within double range through row 168; beyond that float() would
# overflow, so the cap is hard.
_ASYM_ROW_CAP = 168


@cache
def _asym_row(r: int) -> tuple[float, ...]:
    """|s(r+i, r)| as doubles for every i the row cap allows."""
    return tuple(
        float(abs(_stirling_row(j)[r])) for j in range(r, _ASYM_ROW_CAP + 1)
    )


def _asymptotic_partial(mu: float, r: int, m2: int) -> float:
    """First m2 terms of the large-mu series sum_i |s(r+i, r)| / mu**(r+i)."""
    if r > _ASYM_ROW_CAP:
        raise DomainError(
            f"no large-mu term exists for r={r}: the series reads Stirling rows"
            f" only up to {_ASYM_ROW_CAP}"
        )
    if r + m2 - 1 > _ASYM_ROW_CAP:
        raise DomainError(
            f"large-mu series with r={r} supports at most {_ASYM_ROW_CAP - r + 1} terms"
        )
    x = 1.0 / mu
    terms = []
    xp = x**r
    for c in _asym_row(r)[:m2]:
        terms.append(c * xp)
        xp *= x
    return math.fsum(terms)


def _bracket_slack(mu: float, n: int) -> float:
    """Relative slack of a large-mu bracket of the oracle at mu or below, mu <= 700.

    In units of 2**-53 it is 2 m + 5 n + 24, m = mu / (1 - e**-mu),
    which covers, for a bracket or series over indices up to n:

    * the oracle's error, at most 2 m + 6.  Its float walk (mu <= 700)
      puts at most 2k + 4 roundings in term k (exp, two per step of pi,
      k**r and the division) and one in its fsum, and its stop at 1e-18
      of Jensen's bound adds under 0.01.  The index k rises while
      1/k**r falls, so by Chebyshev's sum inequality over the weights
      pi(k), k >= 1, the terms' mean index is at most E[Q | Q >= 1] =
      m.  Terms below the normal range err by under 2**-1074 each,
      nothing against the sum, at least pi(1) >= 700 e**-700;
    * the bracket's or series' own rounding, at most 5 n + 15: 2n + 4
      roundings in c_n, 2n + 7 more in a lower-bound term, one per
      addition, and four in the final products and differences.

    An ascending partial is a prefix of the oracle's walk, so it errs by
    at most as much as the oracle: twice the slack at n = 0 covers both.
    """
    return (2.0 * mu / -math.expm1(-mu) + 5.0 * n + 24.0) * 2.0**-53


def _large_mu_sums(
    mu_a: float, mu_b: float, r: int, m2: int
) -> tuple[int, float, float, float, float]:
    """(n, head, rest, upper, lower) of the large-mu series over [mu_a, mu_b].

    With c_n = |s(n,r)| / mu**n, every mu in the interval and b_n =
    min(1, pi_a(n) mu_a / (mu_a - n)) (1 for n >= mu_a), which bounds
    P(Q <= n) at mu_a and so at every larger mu:

    * head >= sum_{n < r+m2} c_n P(Q <= n), as c_n(mu_a) b_n;
    * rest >= sum_{n >= r+m2} c_n P(Q >= n+1): the c_n(mu_a) from r+m2
      to n, where they stop falling or drop below 1e-20 of the sum,
      plus twice the middle and far tails of _large_mu_bracket, taken
      with N = floor(mu_b) + 2 and each factor at its worse end;
    * upper = sum c_n(mu_b) and lower = sum c_n(mu_b) (1 - b_n), both
      over the indices below n, so lower <= E+[1/Q**r].

    c_n and P(Q <= n) fall with mu and P(Q >= n+1) rises, so each end
    bounds its factor over the interval.  For the far tail e**-mu mu
    falls for mu >= 1 and (N+2) / (N+2-mu) rises.  The sums are the
    doubles as computed, within _bracket_slack(mu_b, n) of the exact
    ones.
    """
    row = _asym_row(r)
    xa, xb = 1.0 / mu_a, 1.0 / mu_b
    pa, pb = xa**r, xb**r
    pi = math.exp(-mu_a)
    for k in range(1, r + 1):
        pi *= mu_a / k
    head = rest = upper = lower = 0.0
    c_prev = math.inf
    split = r + m2
    n = r
    for s_n in row:
        c = s_n * pa
        if n >= split:
            if c >= c_prev or c < 1e-20 * rest:
                break
            rest += c
        cb = s_n * pb
        upper += cb
        b = 1.0
        if n < mu_a:
            b = pi * mu_a / (mu_a - n)
            if b < 1.0:
                lower += cb * (1.0 - b)
            else:
                b = 1.0
            pi *= mu_a / (n + 1)
        if n < split:
            head += c * b
        c_prev = c
        n += 1
        pa *= xa
        pb *= xb
    big_n = math.floor(mu_b) + 2
    tail = 2.0**r * math.sqrt(math.e) * math.exp(-mu_a) * mu_a * (big_n + 2) / (
        (big_n + 2 - mu_b) * math.sqrt(big_n - 1)
    )
    if n < big_n:  # the middle terms n .. N-1
        log_end = max(math.lgamma(j) - j * math.log(mu_a) for j in (n, big_n - 1))
        log_h = (r - 1) * math.log1p(math.log(big_n)) - math.lgamma(r)
        tail += (big_n - n) * math.exp(log_end + log_h)
    return n, head, rest + 2.0 * tail, upper, lower


def _large_mu_bracket(mu: float, r: int) -> tuple[float, float] | None:
    """(lo, hi) with lo <= _positive_moment_double(mu, r) <= hi, 1 <= mu <= 700.

    From 1/k**r = sum_{n>=r} |s(n,r)| k! / (n+k)!,

        E+[1/Q**r] = sum_{n>=r} c_n P(Q >= n+1),  c_n = |s(n,r)| / mu**n,

    a sum of non-negative terms whose first M terms without the P factor
    are the large-mu series.  M stops at the smallest c_n, or once c_n
    drops below 1e-20 of the sum.  With N = floor(mu) + 2
    (_large_mu_sums at mu_a = mu_b = mu and m2 = 0):

    * lo sums c_n (1 - P(Q <= n)) for n < r+M, where
      P(Q <= n) <= pi(n) mu / (mu - n) for n < mu;
    * hi sums c_n for n < r+M and adds two tails.  For r+M <= n < N,
      |s(n,r)| <= (n-1)! H_{n-1}**(r-1) / (r-1)! and the log-convexity of
      (n-1)!/mu**n bound each term by its larger end value times
      (1 + ln N)**(r-1) / (r-1)!.  For n >= N, P(Q >= n+1) <=
      pi(n+1) (n+2) / (n+2-mu) and H**(r-1)/(r-1)! <= 2**(r-1) e**(H/2)
      give 2**r sqrt(e) e**(-mu) mu (N+2) / ((N+2-mu) sqrt(N-1)).  The
      tails are doubled to cover their rounding.

    Both ends then widen by _bracket_slack of hi, which covers the
    oracle's error and the bracket's rounding.  None when the bracket
    would be empty or 1/mu**r could leave the normal range.
    """
    if not 1.0 <= mu <= 700.0 or r * math.log2(mu) > 1000.0 or r > _ASYM_ROW_CAP:
        return None
    n, _, hi, _, lower = _large_mu_sums(mu, mu, r, 0)
    slack = _bracket_slack(mu, n)
    lo = lower - slack * hi
    return (lo, hi * (1.0 + slack)) if lo > 0.0 else None


def _large_mu_interval_bound(mu_a: float, mu_b: float, r: int, m2: int) -> float:
    """A bound on the rounded abs(1 - a / _positive_moment_double(mu, r)).

    a = _asymptotic_partial(mu, r, m2), and the bound holds at every
    double mu in [mu_a, mu_b], 1 <= mu_a <= mu_b <= 700; inf elsewhere,
    where 1/mu**r could leave the normal range, or where the bound on
    the moment below is not positive.

    The m2-term partial differs from E = E+[1/Q**r] by D2 - D1, with
    D1 = sum_{n < r+m2} c_n P(Q <= n) and D2 = sum_{n >= r+m2} c_n
    P(Q >= n+1) both non-negative (_large_mu_bracket), so
    |1 - a/E| <= R = max(D1, D2) / E, and _large_mu_sums bounds D1,
    D2 and E over the whole interval.  The computed error is at most
    (R + (1 + R) eta)(1 + 2**-53), eta the relative error of the
    partial (2 (r+m2) + 3 units of 2**-53), the oracle's and the
    division's, which _bracket_slack covers, as it covers the sums'
    own rounding.
    """
    if not 1.0 <= mu_a <= mu_b <= 700.0 or r * math.log2(mu_b) > 1000.0:
        return math.inf
    if r + m2 - 1 > _ASYM_ROW_CAP:
        return math.inf
    n, head, rest, upper, lower = _large_mu_sums(mu_a, mu_b, r, m2)
    slack = _bracket_slack(mu_b, n)
    den = lower - slack * upper
    if not den > 0.0:
        return math.inf
    rel = max(head, rest) * (1.0 + slack) / den
    return (rel + slack * (1.0 + rel)) * (1.0 + slack)


def _log_ascending_tail(mu: float, r: int, m1: int) -> float:
    """log T, T = pi(m1+1) / (m1+1)**r * (m1+2) / (m1+2-mu), for m1 + 2 > mu.

    T bounds the terms of the ascending series past m1: each is at most
    the one before times mu / (m1+2).  In log space, so it stays finite
    where T underflows; the exponent errs by far less than ln 2.
    """
    return (
        (m1 + 1) * math.log(mu) - mu - math.lgamma(m1 + 2)
        - r * math.log(m1 + 1) + math.log((m1 + 2) / (m1 + 2 - mu))
    )


def _ascending_bracket(
    mu: float, r: int, m1: int, partial: float
) -> tuple[float, float] | None:
    """(lo, hi) with lo <= _positive_moment_double(mu, r) <= hi.

    For 0.05 <= mu <= 700 and m1 > mu - 2; None elsewhere, or when lo
    would not be positive.

    ``partial`` is _ascending_partial(mu, r, m1).  The terms past m1 are
    non-negative, so with m1+2 > mu the exact sum lies in [A, A + T],
    A the exact m1-term partial and T the tail bound of
    _log_ascending_tail, here doubled.  The ends widen by twice
    _bracket_slack(mu, 0) of hi, which covers the oracle's error and the
    partial's.  Absolute roundings of T below 2**-1074 vanish against
    it, since A >= pi(1) >= 700 e**-700 there.
    """
    if not (0.05 <= mu <= 700.0 and mu < m1 + 2):
        return None
    hi = partial + 2.0 * math.exp(_log_ascending_tail(mu, r, m1))
    slack = 2.0 * _bracket_slack(mu, 0)
    lo = partial - slack * hi
    return (lo, hi * (1.0 + slack)) if lo > 0.0 else None


def _ascending_interval_bound(mu_a: float, mu_b: float, r: int, m1: int) -> float:
    """A bound on the rounded abs(1 - A / _positive_moment_double(mu, r)).

    A = _ascending_partial(mu, r, m1), and the bound holds at every
    double mu in [mu_a, mu_b], 0.05 <= mu_a <= mu_b <= m1 + 1 and
    mu_b <= 700; inf elsewhere.

    The exact partial falls short of E = E+[1/Q**r] by at most T(mu) of
    _ascending_bracket.  Each factor of T rises with mu while mu <= m1
    + 1, so T(mu_b) bounds it on the interval.  E is at least Jensen's
    bound P(Q >= 1)**(r+1) / mu**r, which rises and then falls with mu,
    so the smaller of its end values bounds it.  The ratio is taken in
    log space and doubled; the rounding of the partial, the oracle and
    the division is covered by twice _bracket_slack(mu_b, 0), as in
    _large_mu_interval_bound.
    """
    if not 0.05 <= mu_a <= mu_b <= min(700.0, m1 + 1.0):
        return math.inf
    log_l = math.log(2.0) * min(_log2_jensen(mu, r, 0) for mu in (mu_a, mu_b))
    rel = 2.0 * math.exp(_log_ascending_tail(mu_b, r, m1) - log_l)
    slack = 2.0 * _bracket_slack(mu_b, 0)
    return (rel + slack * (1.0 + rel)) * (1.0 + slack)


def positive_poisson_inverse_moment(
    mu: float, r: int, profile: CrossoverProfile | None = None
) -> float:
    """E+[1/Q**r] for Q ~ Poisson(mu).

    Without a profile this is the oracle: poisson_inverse_moment_direct
    with its tail at most 1e-18 of Jensen's bound on the result, past
    mu = 700 the moment correctly rounded.  With a profile the
    calibrated strategy applies: ascending series with M1 terms up to
    mu_star (refused past mu = 700), truncated large-mu series with M2
    terms beyond it.  A term whose k**r passes the double range is taken
    by exact_oracle._over_power; a large-mu term whose (1/mu)**r does
    raises DomainError.
    """
    _check_mu(mu)
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if profile is not None and profile.r != r:
        raise DomainError(
            f"profile was calibrated for r={profile.r}, not r={r}"
        )
    if profile is None:
        return _positive_moment_double(mu, r)
    if mu <= profile.mu_star:
        return _ascending_partial(mu, r, profile.M1)
    try:
        return _asymptotic_partial(mu, r, profile.M2)
    except OverflowError:  # (1/mu)**r past the double range
        raise DomainError(f"r = {r} takes a term outside the double range") from None


def shifted_inverse_moment(mu: float, a: int, r: int) -> float:
    """E[1/(Q+a)**r] for Q ~ Poisson(mu).

    Every shift a >= 1 is the direct sum, the moment correctly rounded
    from the integer walk at every mu.  a = 0 returns the positive-part
    moment.
    """
    _check_mu(mu)
    if a < 0:
        raise DomainError("shift a must be a non-negative integer")
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if a == 0:
        return positive_poisson_inverse_moment(mu, r)
    return shifted_poisson_moment_direct(mu, a, r, tol=1e-14).value


@dataclass(frozen=True)
class ShiftedMomentTable:
    """Shifted moments q(a) = E[1/(Q+a)**r] for a = 0 .. A, one mu and r.

    Entry a is the integer ``totals[a]``, within ``errs[a]`` of
    2**S q(a) (the bound is _q_table's).  ``prec`` is the precision in
    bits the table was built for, which a reader doubles when it needs
    a finer table.  ``value`` gives totals[a] / 2**S rounded once;
    ``differences`` holds the alternating forward differences at a = 0,
    computed once, on first use, for every reader of the table.
    """

    mu: float
    r: int
    totals: tuple[int, ...]
    errs: tuple[int, ...]
    S: int
    prec: int

    @property
    def A(self) -> int:
        return len(self.totals) - 1

    def value(self, a: int) -> float:
        return self.totals[a] / (1 << self.S)

    @cached_property
    def differences(self) -> tuple[tuple[int, int], ...]:
        """(nu, err) per n = 0 .. A: nu = sum_a C(n, a) (-1)**a totals[a],
        exact, by n rounds of first differences, within err = sum_a
        C(n, a) errs[a] of 2**S ((-Delta)**n q)(0).
        """
        out = []
        nus, errs = list(self.totals), list(self.errs)
        while nus:
            out.append((nus[0], errs[0]))
            nus = [u - v for u, v in zip(nus, nus[1:])]
            errs = [u + v for u, v in zip(errs, errs[1:])]
        return tuple(out)


def build_q_table(mu: float, r: int, A: int) -> ShiftedMomentTable:
    """Tabulate q(a) = E[1/(Q+a)**r] for a = 0 .. A as exact integers.

    All entries come from the same fixed-point walk over k, from the
    mode out to its stop (_q_table), so the
    table is internally consistent, which matters because consumers
    difference it; mixing evaluation routes across a would turn route
    disagreement into spurious difference signal.  The precision is
    sized so that an A-fold difference, which loses about
    A (1 + log2(mu) / 2) bits against the entries, still leaves a
    double's worth; a reader whose rounding it leaves undecided builds
    a finer table itself (inverse_moment_estimate, and the expansion
    kernel charlier_expansion._inverse_moments, whose one rebuild
    serves all its orders).
    """
    _check_mu(mu)
    _check_walk_mu(mu)
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if A < 0:
        raise DomainError("A must be non-negative")
    mu = float(mu)
    return _q_table(mu, r, A, 80 + A * (1 + max(0, math.ceil(math.log2(mu) / 2))))


def _q_table(mu: float, r: int, A: int, prec: int) -> ShiftedMomentTable:
    """The table of build_q_table at ``prec`` bits, arguments unchecked.

    One _poisson_window, with the smaller Jensen bound of entries 0 and
    A, var = mu and no cap, so the differences keep their relative
    accuracy (exact_oracle._walk_scale); entry a is its _walk_sums.
    """
    W, B = _walk_scale(prec, min(_log2_jensen(mu, r, 0), _log2_jensen(mu, r, A)), mu, math.inf)
    wp = prec + _WALK_GUARD
    lo, terms, F = _poisson_window(mu, W, wp, 1 << B, _power_cutoff(W, r))
    totals, errs = zip(*_walk_sums(lo, terms, F, r, range(A + 1), W, wp))
    return ShiftedMomentTable(mu, r, totals, errs, W, prec)


def _largest_failing_index(fails, passes, start: int, cap: int) -> int:
    """Grid index where a linear walk from start meets the failure boundary.

    Reads ``fails(i)``, whether the error at grid index i reaches the
    target, so any predicate that agrees with the error may stand in for
    it, and ``passes(lo, hi)``, which may be True only if every index in
    lo .. hi passes.  From a failing start the walk climbs while the
    next index fails and returns the last failing one; from a passing
    start it descends while the previous index passes and returns the
    index below the last passing one (0 when even i = 1 passes).  The
    error need not be monotone, so the result depends on start: it is
    the first boundary the walk meets, not the largest failing index
    overall.  ``fails(cap)`` must be False; the walk then terminates.

    The climb reads one index at a time.  The descent steps over whole
    blocks that pass: the block just below the current index doubles
    from one index until a block does not pass, then halves at each
    block that does not, and a block of one index is read by ``fails``.
    Every index skipped passes, so the result is the linear walk's.
    """
    i = min(max(start, 1), cap)
    if fails(i):
        while i < cap and fails(i + 1):
            i += 1
        return i
    width, grow = 1, True
    while i > 1:
        width = min(width, i - 1)
        if width > 1 and not passes(i - width, i - 1):
            width, grow = width // 2, False
            continue
        if width == 1 and fails(i - 1):
            return i - 1
        i -= width
        if grow:
            width *= 2
    return 0


def calibrate_crossover(r: int, target_rel_error: float) -> CrossoverProfile:
    """Calibrate the two-branch evaluation strategy for one (r, target).

    The search measures relative error |1 - approx/exact| against the
    direct oracle on a grid of spacing 0.05:

    1. For each truncation length M2 of the large-mu series, walk the
       grid from the previous M2's failure boundary (from mu = 150 for
       the first) to where the series starts to meet the target.  Keep
       the M2 that pushes this failure boundary lowest (smallest M2 on
       ties).  Descending, the walk steps over whole blocks of grid
       points that _large_mu_interval_bound proves to pass, and halves
       a block it cannot prove down to single points
       (_largest_failing_index); climbing, it reads point by point.  A
       single point asks the oracle only where the rigorous bracket of
       _large_mu_bracket cannot decide it.
    2. One grid step inside that boundary, take M1 as the smallest
       ascending-series length that meets the target there.
    3. Place the cross-over mu_star where the two branch errors balance,
       found by bisection; to its left the ascending branch is the more
       accurate one, to its right the large-mu branch is.
    4. Record the worst relative error of the chosen strategy over the
       grid points in (0, 2 * mu_star].  A max-heap holds blocks of
       grid points, each keyed by a rigorous bound on the error of
       every point in it: _ascending_interval_bound up to mu_star and
       _large_mu_interval_bound beyond, and for a single point the
       error range from _ascending_bracket or _large_mu_bracket, or inf
       where no bound applies.  The sweep pops the block with the
       largest bound while that bound exceeds the worst error so far,
       splits it in two (a block under 16 points into its points), and
       runs the oracle on single points only.  Every point left in the
       heap errs by at most the worst already seen, so the recorded
       maximum is the one an oracle call at every point would give.

    Raises CalibrationError when the large-mu series cannot reach the
    target anywhere below mu = 150 for any M2 <= 120.  Raises
    DomainError for r >= 142: there the series' leading term 1/mu**r at
    mu = 150, where the search starts, lies below the normal double
    range, so its relative error cannot be measured in doubles.
    """
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if not 1e-14 < target_rel_error <= 1e-2:
        raise DomainError("target relative error must lie in (1e-14, 1e-2]")
    step = 0.05  # search grid spacing
    mu_cap = 150.0  # the large-mu branch must meet the target below this
    if r * math.log2(mu_cap) > 1022.0:  # 1/mu_cap**r below the normal range
        raise DomainError(f"r = {r} puts the large-mu series below the normal double range")
    m2_cap = min(120, _ASYM_ROW_CAP - r + 1)
    target = target_rel_error

    @cache
    def exact(mu: float) -> float:
        return _positive_moment_double(mu, r)

    def asym_err(mu: float, m2: int) -> float:
        return abs(1.0 - _asymptotic_partial(mu, r, m2) / exact(mu))

    @cache
    def bracket(mu: float) -> tuple[float, float] | None:
        return _large_mu_bracket(mu, r)

    def err_range(approx: float, b: tuple[float, float] | None) -> tuple[float, float]:
        """(low, high) around the rounded abs(1 - approx/exact(mu)), exact(mu) in b.

        Rounded division and subtraction are monotone, so for every d in
        [lo, hi] the rounded |1 - approx/d| lies between its values at lo
        and hi when approx is outside (lo, hi), and below the larger one
        always.
        """
        if b is None:
            return 0.0, math.inf
        lo, hi = b
        e_lo, e_hi = abs(1.0 - approx / lo), abs(1.0 - approx / hi)
        return (0.0 if lo < approx < hi else min(e_lo, e_hi)), max(e_lo, e_hi)

    def asym_fails(mu: float, m2: int) -> bool:
        """asym_err(mu, m2) >= target; the oracle runs only where the bracket cannot decide."""
        a = _asymptotic_partial(mu, r, m2)
        low, high = err_range(a, bracket(mu))
        if high < target:
            return False
        if low >= target:
            return True
        return abs(1.0 - a / exact(mu)) >= target

    cap_idx = int(round(mu_cap / step))
    best_t: int | None = None
    best_m2 = 0
    best_seen = math.inf
    start = cap_idx
    for m2 in range(1, m2_cap + 1):
        e_cap = asym_err(cap_idx * step, m2)
        best_seen = min(best_seen, e_cap)
        if e_cap >= target:
            continue  # this length never reaches the target below the cap
        t_idx = _largest_failing_index(
            lambda i: asym_fails(i * step, m2),
            lambda lo, hi: _large_mu_interval_bound(lo * step, hi * step, r, m2) < target,
            start, cap_idx,
        )
        start = max(t_idx, 1)
        if best_t is None or t_idx < best_t:
            best_t, best_m2 = t_idx, m2
        elif t_idx >= best_t + int(round(2.0 / step)) and m2 >= best_m2 + 12:
            break  # boundary is drifting up again, the minimum is behind us
    if best_t is None:
        raise CalibrationError(
            f"large-mu series cannot reach {target:g} below mu = {mu_cap:g} "
            f"for any M2 <= {m2_cap}",
            best_achieved=best_seen,
        )
    m2 = best_m2

    mu_eval = max(step, (best_t - 1) * step)
    fx = exact(mu_eval)
    # The walk to where pi underflows: its prefix of the oracle's own
    # terms sums to fx itself, so the search cannot come up empty.
    terms = list(_float_terms(mu_eval, r)[0])
    m1 = next(n for n in count(1) if abs(1.0 - math.fsum(terms[:n]) / fx) < target)

    def branch_gap(mu: float) -> float:
        asc = abs(1.0 - _ascending_partial(mu, r, m1) / exact(mu))
        return asc - asym_err(mu, m2)

    lo = mu_eval
    hi = best_t * step + 0.5
    while branch_gap(hi) < 0.0:
        hi += 0.5
        if hi > lo + 60.0:
            raise CalibrationError("no balance point between the two branches")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if branch_gap(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    mu_star = 0.5 * (lo + hi)

    heap = []  # (-bound, lo, hi, approx): grid points lo .. hi err by at most bound

    def push(lo: int, hi: int) -> None:
        mu, approx = hi * step, None
        if mu <= mu_star:
            if lo < hi:
                bound = _ascending_interval_bound(lo * step, mu, r, m1)
            else:
                approx = _ascending_partial(mu, r, m1)
                bound = err_range(approx, _ascending_bracket(mu, r, m1, approx))[1]
        elif lo < hi:
            bound = _large_mu_interval_bound(lo * step, mu, r, m2)
        else:
            approx = _asymptotic_partial(mu, r, m2)
            bound = err_range(approx, bracket(mu))[1]
        heapq.heappush(heap, (-bound, lo, hi, approx))

    top = int(2.0 * mu_star / step)
    # the last grid index on the ascending side, i * step <= mu_star
    last = next(i for i in count(int(mu_star / step) - 1) if (i + 1) * step > mu_star)
    push(1, last)
    if last < top:
        push(last + 1, top)
    worst = 0.0
    while heap and -heap[0][0] > worst:  # all else errs by at most worst
        _, lo, hi, approx = heapq.heappop(heap)
        if hi - lo >= 16:
            mid = (lo + hi) // 2
            push(lo, mid)
            push(mid + 1, hi)
        elif lo < hi:  # a bound costs about two points' brackets: read short blocks by point
            for j in range(lo, hi + 1):
                push(j, j)
        else:
            worst = max(worst, abs(1.0 - approx / exact(lo * step)))

    return CrossoverProfile(r, target, mu_star, m1, m2, validated_max_rel_error=worst)
