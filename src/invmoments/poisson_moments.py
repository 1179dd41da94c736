"""Inverse moments of the positive Poisson distribution.

The ascending series for E+[1/Q**r] converges everywhere but needs ever
more terms as mu grows, while the large-mu series built from Stirling
numbers diverges yet delivers excellent accuracy when truncated at the
right length.  Production evaluation therefore switches between the two
at a calibrated cross-over point.  ``calibrate_crossover`` finds that
point, together with the term counts for both branches, by measuring
relative error against the direct oracle.

Shifted moments E[1/(Q+a)**r] come from one closed form in Stirling
numbers, valid for every r, where that is numerically stable (small mu
and a within the Stirling row cap) and from direct summation elsewhere.
The closed form cancels heavily, so it runs at elevated precision
through mpmath, as one mpmath.fdot rounded once.  The expansion's
inputs need no mpmath sum.  The q table holds each E[1/(Q+a)**r] as an
exact integer on one scale 2**S with its own error bound, so its
alternating differences are exact integer sums (build_q_table).  Its
Poisson terms, like the direct oracles' past mu = 700, come from the
integer walk out from the mode by the pmf's exact ratios, on the one
scale, stop and bound of every walk (exact_oracle._walk_scale), about
2.3 sqrt(mu (S - B)) steps.  At r = 1, y(n), mu**n times the n-th
alternating forward difference of a -> E[1/(Q+a)], is exact integers
times e**(-mu) Er(mu) and e**(-mu) (_y_integers).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import count
from typing import Iterator

import mpmath
from mpmath import mpf

from .exact_oracle import (
    _WALK_GUARD, DomainError, _check_mu, _check_walk_mu, _direct_sum, _log2_jensen,
    _over_power, _poisson_window, _power_cutoff, _walk_scale, _walk_sums,
    shifted_poisson_moment_direct,
)
from .special_numbers import _ROW_CAP, _stirling_entry, _stirling_row

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
    """First m1 >= 1 terms of the ascending series."""
    return math.fsum(_ascending_terms(mu, r, m1))


def _ascending_terms(mu: float, r: int, m1: int | None) -> Iterator[float]:
    """The terms pi(k) / k**r of the ascending series for k = 1 .. m1.

    With m1 None the walk never ends; its caller stops drawing.  These
    are the oracle's own terms up to mu = 700 (exact_oracle._direct_sum),
    and a k**r past the double range takes the term by _over_power.
    Past 700 e**-mu leaves the normal range: DomainError, reached only by
    a hand-made profile with mu_star > 700 (calibration stays below 210).
    """
    if mu > 700.0:
        raise DomainError(f"the ascending series takes mu <= 700, not {mu:g}")
    pi = math.exp(-mu)
    for k in count(1) if m1 is None else range(1, m1 + 1):
        pi *= mu / k
        try:
            t = pi / k**r
        except OverflowError:  # k**r past the double range
            t = _over_power(pi, k, r)
        yield t


# The large-mu series needs |s(r+i, r)| for i = 0 .. M2-1.  Entries stay
# within double range through row 168; beyond that float() would
# overflow, so the cap is hard.
_ASYM_ROW_CAP = 168


@cache
def _asym_row(r: int) -> tuple[float, ...]:
    """|s(r+i, r)| as doubles for every i the row cap allows."""
    return tuple(
        float(abs(_stirling_row(0, j)[r])) for j in range(r, _ASYM_ROW_CAP + 1)
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


# Relative slack of _large_mu_bracket, 9007 units of 2**-53: the oracle
# errs by at most 1006 units and the bracket's own rounding by at most
# 853 (see there), so it covers both with a factor 4.8 to spare.
_BRACKET_SLACK = 1e-12


def _large_mu_bracket(mu: float, r: int) -> tuple[float, float] | None:
    """(lo, hi) with lo <= _positive_moment_double(mu, r) <= hi, 1 <= mu <= 150.

    From 1/k**r = sum_{n>=r} |s(n,r)| k! / (n+k)!,

        E+[1/Q**r] = sum_{n>=r} c_n P(Q >= n+1),  c_n = |s(n,r)| / mu**n,

    a sum of non-negative terms whose first M terms without the P factor
    are the large-mu series.  M stops at the smallest c_n, or once c_n
    drops below 1e-20 of the sum.  With N = floor(mu) + 2:

    * lo sums c_n (1 - P(Q <= n)) for n < r+M, where
      P(Q <= n) <= pi(n) mu / (mu - n) for n < mu;
    * hi sums c_n for n < r+M and adds two tails.  For r+M <= n < N,
      |s(n,r)| <= (n-1)! H_{n-1}**(r-1) / (r-1)! and the log-convexity of
      (n-1)!/mu**n bound each term by its larger end value times
      (1 + ln N)**(r-1) / (r-1)!.  For n >= N, P(Q >= n+1) <=
      pi(n+1) (n+2) / (n+2-mu) and H**(r-1)/(r-1)! <= 2**(r-1) e**(H/2)
      give 2**r sqrt(e) e**(-mu) mu (N+2) / ((N+2-mu) sqrt(N-1)).  The
      tails are doubled to cover their rounding.

    Both ends then widen by _BRACKET_SLACK of hi, which covers, in
    units of 2**-53, the oracle's error and the bracket's rounding.  The
    oracle errs by at most 1006 for mu <= 150: 2k + 4 roundings in term
    k <= 500, 1 in its fsum, under 0.01 from its stop at 1e-18 of
    Jensen's bound, and under 0.01 from the terms past k = 500, however
    far a large r runs the walk, since t(k) / t(1) <= 150**(k-1) / k!
    is 6e-49 at k = 500 and shrinks by 0.3 per step.  Absolute roundings
    below 2**-1074 vanish against the sum, at least pi(1) >= 150
    e**-150.  Each c_n carries at most 2n + 4 <= 340 roundings, each
    lower-bound term 2n + 7 more, and each sum 170.  None when the
    bracket would be empty or 1/mu**r could leave the normal range.
    """
    if not 1.0 <= mu <= 150.0 or r * math.log2(mu) > 1000.0 or r > _ASYM_ROW_CAP:
        return None
    row = _asym_row(r)
    x = 1.0 / mu
    xp = x**r
    pi = math.exp(-mu)
    for k in range(1, r + 1):
        pi *= mu / k
    upper = lower = 0.0
    c_prev = math.inf
    n = r
    for s_n in row:
        c = s_n * xp
        if c >= c_prev or c < 1e-20 * upper:
            break
        upper += c
        if n < mu:
            b = pi * mu / (mu - n)  # bounds P(Q <= n)
            if b < 1.0:
                lower += c * (1.0 - b)
        c_prev = c
        n += 1
        xp *= x
        pi *= mu / n
    big_n = math.floor(mu) + 2
    log_mu = math.log(mu)
    tail = 2.0**r * math.sqrt(math.e) * math.exp(-mu) * mu * (big_n + 2) / (
        (big_n + 2 - mu) * math.sqrt(big_n - 1)
    )
    if n < big_n:  # the middle terms n .. N-1
        log_end = max(math.lgamma(j) - j * log_mu for j in (n, big_n - 1))
        log_h = (r - 1) * math.log1p(math.log(big_n)) - math.lgamma(r)
        tail += (big_n - n) * math.exp(log_end + log_h)
    hi = upper + 2.0 * tail
    lo = lower - _BRACKET_SLACK * hi
    return (lo, hi * (1.0 + _BRACKET_SLACK)) if lo > 0.0 else None


def _ascending_bracket(
    mu: float, r: int, m1: int, partial: float
) -> tuple[float, float] | None:
    """(lo, hi) with lo <= _positive_moment_double(mu, r) <= hi.

    For 0.05 <= mu <= 150 and mu - 2 < m1 <= 500; None elsewhere, or
    when lo would not be positive.

    ``partial`` is _ascending_partial(mu, r, m1).  The terms past m1 are
    non-negative, and for k > m1 each is at most the one before times
    mu / (m1+2), so with m1+2 > mu the exact sum lies in [A, A + T],

        T = pi(m1+1) / (m1+1)**r * (m1+2) / (m1+2-mu),

    where A is the exact m1-term partial.  T is evaluated in log space,
    whose exponent errs by far less than ln 2, and doubled.  The ends
    widen by _BRACKET_SLACK of hi as in _large_mu_bracket: the oracle
    errs by at most 1006 units of 2**-53 for mu <= 150, and the partial,
    a prefix of the same walk, by at most 2 m1 + 5 <= 1005.
    Absolute roundings of T below 2**-1074 vanish against that slack,
    since A >= pi(1) >= 150 e**-150 there.
    """
    if not (0.05 <= mu <= 150.0 and mu < m1 + 2 and m1 <= 500):
        return None
    log_t = (
        (m1 + 1) * math.log(mu) - mu - math.lgamma(m1 + 2)
        - r * math.log(m1 + 1) + math.log((m1 + 2) / (m1 + 2 - mu))
    )
    hi = partial + 2.0 * math.exp(log_t)
    lo = partial - _BRACKET_SLACK * hi
    return (lo, hi * (1.0 + _BRACKET_SLACK)) if lo > 0.0 else None


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


def _shifted_closed(x: mpf, a: int, r: int) -> mpf:
    """E[1/(Q+a)**r] from the Stirling closed form, for 1 <= a <= 64.

    One mpmath.fdot pairs the exact Stirling integers with their factors.
    Each E+[1/Q**k] among them is the one entry of a q table at the
    working precision (_q_table), rounded once.
    """
    pairs = [(_stirling_entry(0, a, r), -mpmath.expm1(-x))]
    for k in range(1, r):
        table = _q_table(float(x), k, 0, mpmath.mp.prec)
        pairs.append((_stirling_entry(0, a, r - k), mpmath.ldexp(table.totals[0], -table.S)))
    pairs += [(_stirling_entry(k, a - k, r), x**k) for k in range(1, a)]
    return mpmath.fdot(pairs) / x**a


def shifted_inverse_moment(mu: float, a: int, r: int) -> float:
    """E[1/(Q+a)**r] for Q ~ Poisson(mu), choosing the stable route.

    Small mu (2**-60 <= mu <= a + 5) goes through the closed form at
    extended precision, where the direct sum would need many terms
    relative to its size.  The direct sum takes large mu, where the
    closed form cancels catastrophically, shifts past the Stirling row
    cap, where it is relative-accurate anyway, and tiny mu, where
    e**(-mu) rounds to 1 and two or three terms give the closed form's
    double.  a = 0 returns the positive-part moment.
    """
    _check_mu(mu)
    if a < 0:
        raise DomainError("shift a must be a non-negative integer")
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if a == 0:
        return positive_poisson_inverse_moment(mu, r)
    if a <= _ROW_CAP and 2.0**-60 <= mu <= a + 5:
        # the closed form divides by mu**a, a digits per decade below 1,
        # and cancels Stirling numbers as large as a!
        dps = 40 + int(mu) + (a * math.ceil(-math.log10(mu)) if mu < 1.0 else 0)
        dps += math.ceil(math.lgamma(a + 1) / math.log(10))
        with mpmath.workdps(dps):
            return float(_shifted_closed(mpf(mu), a, r))
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


def _y_integers(mu: float, n_max: int) -> list[tuple[int, int, int]]:
    """(u, v, w) per n = 0 .. n_max with y(n) = (u G + v E0 - w) / u(0).

    y(n) = mu**n G + E0 P_n(mu) - R_n(mu), G = e**(-mu) Er(mu),
    E0 = e**(-mu), P_n = sum_{l=1..n} (l-1)! C(n, l) mu**(n-l) and
    R_n = sum_{l=1..n} (l-1)! mu**(n-l), is mu**n times the n-th
    alternating forward difference of a -> E[1/(Q+a)].  The double mu
    is exactly a / 2**s, so on the common scale u(0) = 2**(s n_max)
    every coefficient is an exact integer; only G and E0 are not.
    """
    a, b = mu.as_integer_ratio()
    t = [a**i * b ** (n_max - i) for i in range(n_max + 1)]  # mu**i u(0)
    ys = []
    for n in range(n_max + 1):
        terms = [math.factorial(l - 1) * t[n - l] for l in range(1, n + 1)]
        ys.append((t[n], sum(math.comb(n, l) * x for l, x in enumerate(terms, 1)), sum(terms)))
    return ys


def _largest_failing_index(fails, start: int, cap: int) -> int:
    """Grid index where a linear walk from start meets the failure boundary.

    Reads only ``fails(i)``, whether the error at grid index i reaches
    the target, so any predicate that agrees with the error may stand in
    for it.  From a failing start the walk climbs while the next index
    fails and returns the last failing one; from a passing start it
    descends while the previous index passes and returns the index below
    the last passing one (0 when even i = 1 passes).  The error need not
    be monotone, so the result depends on start: it is the first
    boundary the walk meets, not the largest failing index overall.
    ``fails(cap)`` must be False; the walk then terminates.
    """
    i = min(max(start, 1), cap)
    if fails(i):
        while i < cap and fails(i + 1):
            i += 1
        return i
    while i > 1 and not fails(i - 1):
        i -= 1
    return i - 1


def calibrate_crossover(r: int, target_rel_error: float) -> CrossoverProfile:
    """Calibrate the two-branch evaluation strategy for one (r, target).

    The search measures relative error |1 - approx/exact| against the
    direct oracle on a grid of spacing 0.05:

    1. For each truncation length M2 of the large-mu series, walk the
       grid from the previous M2's failure boundary (from mu = 150 for
       the first) to where the series starts to meet the target.  Keep
       the M2 that pushes this failure boundary lowest (smallest M2 on
       ties).  The walk asks the oracle only at grid points where the
       rigorous bracket of _large_mu_bracket cannot decide.
    2. One grid step inside that boundary, take M1 as the smallest
       ascending-series length that meets the target there.
    3. Place the cross-over mu_star where the two branch errors balance,
       found by bisection; to its left the ascending branch is the more
       accurate one, to its right the large-mu branch is.
    4. Record the worst relative error of the chosen strategy over the
       grid points in (0, 2 * mu_star].  Each point first gets an upper
       bound on its error from a rigorous bracket of the oracle, by
       _ascending_bracket up to mu_star and _large_mu_bracket beyond,
       or inf where neither applies.  The points are visited in
       descending order of that bound, and the oracle runs only while
       the bound exceeds the worst error so far; every point skipped
       errs by at most the maximum already seen, so the recorded
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
            lambda i: asym_fails(i * step, m2), start, cap_idx
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
    # The oracle's own terms: the fsum of all of them is fx itself, so
    # some prefix meets the target and the search cannot come up empty.
    prefix = []
    for t in _ascending_terms(mu_eval, r, None):
        prefix.append(t)
        if abs(1.0 - math.fsum(prefix) / fx) < target:
            break
    m1 = len(prefix)

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

    sweep = []
    for i in range(1, int(2.0 * mu_star / step) + 1):
        mu = i * step
        if mu <= mu_star:
            approx = _ascending_partial(mu, r, m1)
            b = _ascending_bracket(mu, r, m1, approx)
        else:
            approx = _asymptotic_partial(mu, r, m2)
            b = bracket(mu)
        sweep.append((err_range(approx, b)[1], mu, approx))
    sweep.sort(key=lambda point: point[0], reverse=True)
    worst = 0.0
    for bound, mu, approx in sweep:
        if bound <= worst:
            break  # this point and all after it err by at most worst
        worst = max(worst, abs(1.0 - approx / exact(mu)))

    return CrossoverProfile(r, target, mu_star, m1, m2, validated_max_rel_error=worst)
