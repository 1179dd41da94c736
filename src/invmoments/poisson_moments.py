"""Inverse moments of the positive Poisson distribution.

The ascending series for E+[1/Q**r] converges everywhere but needs ever
more terms as mu grows, while the large-mu series built from Stirling
numbers diverges yet delivers excellent accuracy when truncated at the
right length.  Production evaluation therefore switches between the two
at a calibrated cross-over point.  ``calibrate_crossover`` finds that
point, together with the term counts for both branches, by measuring
relative error against the direct oracle.

Shifted moments E[1/(Q+a)**r] come from closed forms built on Stirling
numbers where those are numerically stable (small mu) and from direct
summation elsewhere.  The closed forms cancel heavily, so they run at
elevated precision through mpmath; the package treats that as its
extended-precision substrate wherever plain doubles would lose the
answer to cancellation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import mpmath
from mpmath import mpf

from .exact_oracle import (
    DomainError,
    _check_mu,
    _poisson_terms,
    poisson_inverse_moment_direct,
    shifted_poisson_moment_direct,
)
from .special_numbers import StirlingTable, _shared_table

__all__ = [
    "CalibrationError",
    "CrossoverProfile",
    "ShiftedMomentTable",
    "er_function",
    "positive_poisson_inverse_moment",
    "shifted_inverse_moment",
    "build_q_table",
    "forward_difference_at_zero",
    "y_sequence",
    "calibrate_crossover",
    "reference_profile",
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


# Cross-over profiles for the two standard targets, as produced by
# calibrate_crossover with its default grid.  Stored so production code
# can pick a strategy without paying for a calibration run.
_REFERENCE: dict[tuple[int, float], tuple[float, int, int]] = {
    (1, 1e-5): (13.671, 31, 10),
    (2, 1e-5): (17.061, 35, 15),
    (3, 1e-5): (20.544, 39, 20),
    (4, 1e-5): (24.775, 44, 26),
    (5, 1e-5): (28.966, 49, 32),
    (6, 1e-5): (32.969, 53, 38),
    (1, 1e-10): (25.734, 63, 20),
    (2, 1e-10): (29.206, 67, 26),
    (3, 1e-10): (33.998, 74, 33),
    (4, 1e-10): (37.903, 79, 39),
    (5, 1e-10): (42.573, 85, 46),
    (6, 1e-10): (47.068, 90, 53),
}


def reference_profile(r: int, target_rel_error: float) -> CrossoverProfile:
    """Stored cross-over profile for targets 1e-5 and 1e-10, r = 1..6."""
    try:
        mu_star, m1, m2 = _REFERENCE[(r, target_rel_error)]
    except KeyError:
        raise DomainError(
            f"no stored profile for r={r}, target={target_rel_error}; "
            "run calibrate_crossover"
        ) from None
    return CrossoverProfile(r, target_rel_error, mu_star, m1, m2)


def er_function(mu: float) -> float:
    """Sum of mu**i / (i * i!) over i >= 1.

    This is the entire part of the exponential integral: Ei(mu) minus
    log(mu) minus the Euler constant.  All terms are positive, so the
    compensated double-precision sum is accurate to a few ulp.  The
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
    total = 0.0
    comp = 0.0
    t = 1.0
    i = 0
    while True:
        i += 1
        t *= mu / i
        term = t / i
        s = total + term
        if total >= term:
            comp += (total - s) + term
        else:
            comp += (term - s) + total
        total = s
        if i > mu and term < 1e-17 * total:
            return total + comp


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


def _positive_moment_mp(x: mpf, r: int) -> mpf:
    """Ascending series for E+[1/Q**r] at the current working precision."""
    eps = mpf(10) ** (-(mpmath.mp.dps + 5))
    total = mpf(0)
    t = mpf(1)
    k = 0
    while True:
        k += 1
        t *= x / k
        term = t / mpf(k) ** r
        total += term
        if k > x and term < total * eps:
            return mpmath.exp(-x) * total


def _positive_moment_double(mu: float, r: int) -> float:
    """Ascending series summed to full double accuracy (oracle grade)."""
    total = 0.0
    comp = 0.0
    for k, pi in _poisson_terms(mu):
        t = pi / k**r
        s = total + t
        if total >= t:
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
        if k >= mu and pi * (k + 1) / (k + 1 - mu) < 1e-17 * total:
            return total + comp


def _ascending_partial(mu: float, r: int, m1: int) -> float:
    """First m1 terms of the ascending series."""
    total = 0.0
    comp = 0.0
    for k, pi in _poisson_terms(mu):
        if k > m1:
            break
        t = pi / k**r
        s = total + t
        if total >= t:
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
    return total + comp


# The large-mu series needs |s(r+i, r)| for i = 0 .. M2-1.  Entries stay
# within double range through row 168; beyond that float() would
# overflow, so the cap is hard.
_ASYM_ROW_CAP = 168
_asym_table = StirlingTable(shift=0, j_max=_ASYM_ROW_CAP)
_asym_coeffs: dict[int, list[float]] = {}


def _asym_coefficients(r: int, count: int) -> list[float]:
    if r + count - 1 > _ASYM_ROW_CAP:
        raise DomainError(
            f"large-mu series with r={r} supports at most {_ASYM_ROW_CAP - r + 1} terms"
        )
    have = _asym_coeffs.get(r, [])
    if len(have) < count:
        # extend a copy and publish it in one assignment: threads racing
        # here each store a correct row, never one with a repeated entry
        have = have + [
            float(abs(_asym_table.entry(r + i, r))) for i in range(len(have), count)
        ]
        _asym_coeffs[r] = have
    return have[:count]


def _asymptotic_partial(mu: float, r: int, m2: int) -> float:
    """First m2 terms of the large-mu series sum_i |s(r+i, r)| / mu**(r+i)."""
    coeffs = _asym_coefficients(r, m2)
    x = 1.0 / mu
    terms = []
    xp = x**r
    for c in coeffs:
        terms.append(c * xp)
        xp *= x
    return math.fsum(terms)


def positive_poisson_inverse_moment(
    mu: float, r: int, profile: CrossoverProfile | None = None
) -> float:
    """E+[1/Q**r] for Q ~ Poisson(mu).

    Without a profile the ascending series is summed to full double
    accuracy, which serves as the oracle-grade path.  With a profile the
    calibrated strategy applies: ascending series with M1 terms up to
    mu_star, truncated large-mu series with M2 terms beyond it.
    """
    _check_mu(mu)
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if profile is None:
        return _positive_moment_double(mu, r)
    if profile.r != r:
        raise DomainError(
            f"profile was calibrated for r={profile.r}, not r={r}"
        )
    if mu <= profile.mu_star:
        return _ascending_partial(mu, r, profile.M1)
    return _asymptotic_partial(mu, r, profile.M2)


def _shifted_first_closed(x: mpf, a: int) -> mpf:
    """E[1/(Q+a)] from the closed form, at the current working precision.

    The bracket is written as the alternating tail
    -sum_{k>=a} (-x)**k / k!, which keeps every retained digit
    meaningful; the naive difference of e**(-x) against a partial sum
    sheds digits instead.
    """
    eps = mpf(10) ** (-(mpmath.mp.dps + 5))
    term = (-x) ** a / mpmath.factorial(a)
    total = mpf(0)
    k = a
    floor = mpf(10) ** (-(2 * mpmath.mp.dps))
    while True:
        total += term
        k += 1
        term *= -x / k
        if k > x and abs(term) < (abs(total) + floor) * eps:
            break
    sign = 1 if a % 2 == 0 else -1
    return sign * mpmath.factorial(a - 1) / x**a * total


def _shifted_closed(x: mpf, a: int, r: int) -> mpf:
    """E[1/(Q+a)**r] for r >= 2 from the Stirling closed form."""
    central = _shared_table(0)
    total = mpf(central.entry(a, r)) * (-mpmath.expm1(-x))
    for k in range(1, r):
        total += mpf(central.entry(a, r - k)) * _positive_moment_mp(x, k)
    for k in range(1, a):
        total += mpf(_shared_table(k).entry(a - k, r)) * x**k
    return total / x**a


def shifted_inverse_moment(mu: float, a: int, r: int) -> float:
    """E[1/(Q+a)**r] for Q ~ Poisson(mu), choosing the stable route.

    Small mu (mu <= a + 5) goes through the closed forms at extended
    precision, where the direct sum would need many terms relative to
    its size; large mu falls back to direct summation, where the closed
    forms cancel catastrophically.  a = 0 returns the positive-part
    moment.
    """
    _check_mu(mu)
    if a < 0:
        raise DomainError("shift a must be a non-negative integer")
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if a == 0:
        return positive_poisson_inverse_moment(mu, r)
    if mu <= a + 5:
        with mpmath.workdps(40 + int(mu)):
            x = mpf(mu)
            if r == 1:
                return float(_shifted_first_closed(x, a))
            return float(_shifted_closed(x, a, r))
    return shifted_poisson_moment_direct(mu, a, r, tol=1e-14).value


@dataclass(frozen=True)
class ShiftedMomentTable:
    """Shifted moments q(a) = E[1/(Q+a)**r] for a = 0 .. A, one mu and r.

    The entries are mpmath floats carried at ``dps`` decimal digits,
    enough that A-fold forward differencing of the table still leaves a
    full double of accuracy.  ``value`` gives the rounded double view.
    """

    mu: float
    r: int
    values: tuple
    dps: int

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise DomainError("table must hold at least the a = 0 entry")

    @property
    def A(self) -> int:
        return len(self.values) - 1

    def value(self, a: int) -> float:
        return float(self.values[a])


def _table_dps(mu: float, A: int) -> int:
    # An A-fold difference loses about A * log10(2 * mu) digits against
    # the raw entries, a bit fewer for small mu.
    lost = max(0, math.ceil(A * math.log10(2.0 * max(mu, 1.0))))
    return 40 + lost


def build_q_table(mu: float, r: int, A: int) -> ShiftedMomentTable:
    """Tabulate q(a) = E[1/(Q+a)**r] for a = 0 .. A at working precision.

    All entries come from the same direct summation so the table is
    internally consistent, which matters because consumers difference
    it; mixing evaluation routes across a would turn route disagreement
    into spurious difference signal.  One walk over k serves every
    entry: the Poisson term e**(-mu) mu**k / k! is shared, and each
    entry divides it by its own exact integer (k+a)**r and stops at its
    own tolerance, so it equals its stand-alone sum.
    """
    _check_mu(mu)
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if A < 0:
        raise DomainError("A must be non-negative")
    dps = _table_dps(mu, A)
    with mpmath.workdps(dps):
        eps = mpf(10) ** (-(dps + 5))
        x = mpf(mu)
        t = mpmath.exp(-x)
        totals = [mpf(0)] + [t / a**r for a in range(1, A + 1)]
        live = range(A + 1)
        k = 0
        while live:
            k += 1
            t *= x / k
            running = []
            for a in live:
                term = t / (k + a) ** r
                totals[a] += term
                if not (k > x and term < totals[a] * eps):
                    running.append(a)
            live = running
    return ShiftedMomentTable(float(mu), r, tuple(totals), dps)


def _forward_difference_mp(values: Sequence, n: int) -> mpf:
    """((-Delta)**n q)(0) = sum_a C(n, a) (-1)**a q(a), caller sets dps."""
    total = mpf(0)
    for a in range(n + 1):
        term = mpf(math.comb(n, a)) * values[a]
        total += -term if a % 2 else term
    return total


def forward_difference_at_zero(table: ShiftedMomentTable, n: int) -> float:
    """n-th alternating forward difference of the table at a = 0.

    Computed at the table's working precision, so the heavy cancellation
    in the alternating sum costs guard digits rather than answer digits.
    """
    if n < 0:
        raise DomainError("difference order n must be non-negative")
    if n > table.A:
        raise IndexError(f"difference order n={n} exceeds the table range A={table.A}")
    with mpmath.workdps(table.dps):
        return float(_forward_difference_mp(table.values, n))


def _y_mp_list(mu: float, n_max: int) -> tuple[list, int]:
    """y(0) .. y(n_max) as mpmath floats, with their working precision.

    y(n) = mu**n * e**(-mu) * Er(mu)
           + sum_{l=1..n} (l-1)! * (e**(-mu) * C(n, l) - 1) * mu**(n-l),

    which equals mu**n times the n-th alternating forward difference of
    a -> E[1/(Q+a)].  The subtraction of 1 inside the sum is where the
    cancellation lives, hence the elevated precision.  Below mu = 1 the
    order-mu parts of the sum cancel down to mu**n, which costs up to
    n_max digits per decade of mu; those come on top.  Callers combine
    the values at the returned precision.
    """
    dps = _table_dps(mu, n_max)
    if mu < 1.0:
        dps += n_max * math.ceil(-math.log10(mu))
    with mpmath.workdps(dps):
        x = mpf(mu)
        expmx = mpmath.exp(-x)
        base = expmx * _er_from_ei(mu)
        ys = []
        for n in range(n_max + 1):
            s = x**n * base
            for l in range(1, n + 1):
                s += math.factorial(l - 1) * (expmx * math.comb(n, l) - 1) * x ** (n - l)
            ys.append(s)
    return ys, dps


def y_sequence(mu: float, n: int) -> float:
    """y(n), the scaled n-th difference of the first shifted moment."""
    _check_mu(mu)
    if n < 0:
        raise DomainError("n must be non-negative")
    ys, _ = _y_mp_list(mu, n)
    return float(ys[n])


def _largest_failing_index(err, target: float, start: int, cap: int) -> int:
    """Largest grid index i <= cap with err(i) >= target, walking from start.

    ``err`` must be non-increasing in i over the walked range and must
    satisfy err(cap) < target; the walk then terminates.  Returns 0 when
    even i = 1 passes.
    """
    i = min(max(start, 1), cap)
    if err(i) >= target:
        while i < cap and err(i + 1) >= target:
            i += 1
        return i
    while i > 1 and err(i - 1) < target:
        i -= 1
    return i - 1


def calibrate_crossover(
    r: int,
    target_rel_error: float,
    mu_grid: Iterable[float] | None = None,
    *,
    step: float = 0.05,
    mu_cap: float = 150.0,
    m2_cap: int = 120,
) -> CrossoverProfile:
    """Calibrate the two-branch evaluation strategy for one (r, target).

    The search measures relative error |1 - approx/exact| against the
    direct oracle on a grid of spacing ``step``:

    1. For each truncation length M2 of the large-mu series, find the
       largest grid point where it still misses the target.  Keep the M2
       that pushes this failure boundary lowest (smallest M2 on ties).
    2. One grid step inside that boundary, take M1 as the smallest
       ascending-series length that meets the target there.
    3. Place the cross-over mu_star where the two branch errors balance,
       found by bisection; to its left the ascending branch is the more
       accurate one, to its right the large-mu branch is.
    4. Sweep the chosen strategy over (0, 2 * mu_star] (or ``mu_grid``
       when given) and record the worst relative error seen.

    Raises CalibrationError when the large-mu series cannot reach the
    target anywhere below ``mu_cap`` for any allowed M2.
    """
    if r < 1:
        raise DomainError("moment order r must be a positive integer")
    if not 1e-14 < target_rel_error <= 1e-2:
        raise DomainError("target relative error must lie in (1e-14, 1e-2]")
    m2_cap = min(m2_cap, _ASYM_ROW_CAP - r + 1)
    target = target_rel_error

    exact_cache: dict[float, float] = {}

    def exact(mu: float) -> float:
        v = exact_cache.get(mu)
        if v is None:
            v = _positive_moment_double(mu, r)
            exact_cache[mu] = v
        return v

    def asym_err(mu: float, m2: int) -> float:
        return abs(1.0 - _asymptotic_partial(mu, r, m2) / exact(mu))

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
            lambda i: asym_err(i * step, m2), target, start, cap_idx
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
    m1 = None
    total = 0.0
    comp = 0.0
    for k, pi in _poisson_terms(mu_eval):
        t = pi / k**r
        s = total + t
        if total >= t:
            comp += (total - s) + t
        else:
            comp += (t - s) + total
        total = s
        if abs(1.0 - (total + comp) / fx) < target:
            m1 = k
            break
        if k > mu_eval and t < 1e-18 * total:
            break
    if m1 is None:
        raise CalibrationError(
            f"ascending series cannot reach {target:g} at mu = {mu_eval:g}",
            best_achieved=abs(1.0 - (total + comp) / fx),
        )

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

    if mu_grid is None:
        count = int(2.0 * mu_star / step)
        grid: Iterable[float] = (i * step for i in range(1, count + 1))
    else:
        grid = mu_grid
    worst = 0.0
    for mu in grid:
        if mu <= mu_star:
            approx = _ascending_partial(mu, r, m1)
        else:
            approx = _asymptotic_partial(mu, r, m2)
        worst = max(worst, abs(1.0 - approx / exact(mu)))

    return CrossoverProfile(r, target, mu_star, m1, m2, validated_max_rel_error=worst)
