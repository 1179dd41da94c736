"""The expansion through the integer q table: every double against an independent reference.

``inverse_moment_estimate`` pairs exact Fraction coefficients with the
table's exact integer differences and rounds once, and the kernel
``_inverse_moments`` rounds the same interval from integer rows, so
every value is the truncated series correctly rounded.  ``_series_reference``
evaluates the same series from its definition: q(a) = E[1/(Q+a)**r] as
direct mpmath sums at 100 digits or more, their alternating forward
differences, the binomial coefficients (-1)**j alpha(k-j, j) / j!
mu**(j+k) / N**k as exact Fractions, and one rounding to double.
"""
import math
from fractions import Fraction
from itertools import count

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf
from mpmath.libmp import (
    from_float,
    from_int,
    mpf_div,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    to_fixed,
    to_float,
)

from invmoments import charlier_expansion, poisson_moments
from invmoments.charlier_expansion import (
    _inverse_moments,
    binomial_barbour_polynomial,
    inverse_moment_estimate,
)
from invmoments.cli import GridSpec
from invmoments.exact_oracle import _log2_jensen
from invmoments.poisson_moments import ShiftedMomentTable, build_q_table
from invmoments.special_numbers import alpha

GRID = tuple(GridSpec().points())  # the reports' 500-point p grid


def _series_reference(N: int, p: float, r: int, orders) -> list[float]:
    """Orders ``orders`` of the expansion of E+[1/K**r], K ~ Binomial(N, p), rounded once.

    The differences cancel about n_max log10(2 mu + 2) digits and the
    entries are as small as (mu + n_max + 1)**-r, so both come on top
    of the 100 digits carried; the Poisson terms run until past mu
    they fall below 10**-(dps+10).
    """
    n_max = 2 * (max(orders) - 1)
    mu_f = N * p
    dps = 100 + math.ceil(n_max * math.log10(2 * mu_f + 2))
    dps += math.ceil(r * math.log10(mu_f + n_max + 1))
    with mpmath.workdps(dps):
        mu = mpf(mu_f)
        eps = mpf(10) ** -(dps + 10)
        pis = [mpmath.exp(-mu)]
        while len(pis) <= mu or pis[-1] > eps:
            pis.append(pis[-1] * mu / len(pis))
        q = [mpmath.fsum(pi / mpf(k + a) ** r for k, pi in enumerate(pis) if k + a)
             for a in range(n_max + 1)]
        nu = [mpmath.fsum((-1) ** a * math.comb(n, a) * q[a] for a in range(n + 1))
              for n in range(n_max + 1)]
        parts = [nu[0]]
        for k in range(1, max(orders)):
            part = mpf(0)
            for j in range(1, k + 1):
                c = (-1) ** j * alpha(k - j, j) / math.factorial(j)
                c *= Fraction(mu_f) ** (j + k) / N**k
                part += mpf(c.numerator) / c.denominator * nu[j + k]
            parts.append(part)
        return [float(mpmath.fsum(parts[:m])) for m in orders]


_ps = st.one_of(
    st.integers(1, 10**6).map(lambda i: i / 10**6),  # decimal p: 1 - p is inexact
    st.sampled_from(GRID),
    st.just(1.0),
    st.floats(math.log(1e-12), 0.0).map(lambda x: min(math.exp(x), 1.0)),
)


@settings(max_examples=80, deadline=None)
@given(
    N=st.integers(1, 1000),
    p=_ps,
    r=st.integers(2, 6),
    orders=st.sets(st.integers(1, 8), min_size=1).map(sorted),
)
# order 2 near its zero crossing, where a float-coefficient route errs most
@example(N=10, p=0.68, r=3, orders=[1, 2, 3, 4, 5, 6])
@example(N=1000, p=1.0, r=6, orders=[8])
@example(N=1, p=1e-12, r=2, orders=[1, 8])
def test_r2_values_are_the_series_correctly_rounded(N, p, r, orders):
    assert _inverse_moments(N, p, r, tuple(orders)) == _series_reference(N, p, r, orders)


R1_PS = (
    GRID[1::33]  # 16 report-grid p
    + (0.001, 0.01, 0.05, 0.1, 0.123, 0.2, 0.25, 0.3, 0.37, 0.4, 0.45, 0.5, 0.6, 0.7, 0.9, 0.999)
    + tuple(10.0 ** -(i / 2) for i in range(1, 16))  # down to 10**-7.5
    + (1.0,)
)


def _per_order_values(N: int, p: float, r: int, orders) -> list[float]:
    """The public route: one polynomial and one estimate per order, one shared table."""
    table = build_q_table(N * p, r, 2 * max(orders) - 2)
    return [inverse_moment_estimate(binomial_barbour_polynomial(N, N * p, m), table)
            for m in orders]


ORDERS = tuple(range(1, 9))
ROUTES = [(N, r) for r in range(1, 7) for N in (1, 2, 10, 100, 1000)]


# r = 1 keeps the bare N as its id, as when the test covered r = 1 alone
@pytest.mark.parametrize("N, r", ROUTES,
                         ids=[f"{N}" if r == 1 else f"{N}-r{r}" for N, r in ROUTES])
def test_r1_table_route_equals_the_integer_kernel(N, r):
    # both routes give the truncated series correctly rounded, so they
    # give one double; every r reads the kernel's one set of row integers
    for p in R1_PS + (1e-300,):
        assert _inverse_moments(N, p, r, ORDERS) == _per_order_values(N, p, r, ORDERS), p


@settings(max_examples=25, deadline=None)
@given(
    N=st.integers(1, 10**4),
    p=st.integers(1, 10**6).map(lambda i: i / 10**6),  # 1 - p is inexact
    r=st.integers(1, 6),
    orders=st.sets(st.integers(1, 8), min_size=1).map(sorted),
)
@example(N=10**4, p=0.123, r=2, orders=[1, 2, 3, 4, 5, 6])
def test_kernel_equals_the_per_order_route(N, p, r, orders):
    assert _inverse_moments(N, p, r, tuple(orders)) == _per_order_values(N, p, r, orders)


def test_undecided_rounding_rebuilds_the_table_finer(monkeypatch):
    N, p, r = 10, 0.68, 3
    mu = N * p
    poly = binomial_barbour_polynomial(N, mu, 6)
    want = inverse_moment_estimate(poly, build_q_table(mu, r, 10))
    coarse = poisson_moments._q_table(mu, r, 10, 8)
    orders = tuple(range(1, 7))
    want_all = _per_order_values(N, p, r, orders)
    seen = []

    def recording(*args):
        seen.append(args)
        return poisson_moments._q_table(*args)

    monkeypatch.setattr(charlier_expansion, "_q_table", recording)
    # 8 bits leave the rounding undecided; each rebuild doubles them
    assert inverse_moment_estimate(poly, coarse) == want
    assert seen and seen == [(mu, r, 10, 8 << i) for i in range(1, len(seen) + 1)]
    # the kernel from an 8-bit table: one doubling sequence for all six
    # orders, not one per order
    seen.clear()
    monkeypatch.setattr(charlier_expansion, "build_q_table",
                        lambda mu, r, A: poisson_moments._q_table(mu, r, A, 8))
    assert _inverse_moments(N, p, r, orders) == want_all
    assert seen and seen == [(mu, r, 10, 8 << i) for i in range(1, len(seen) + 1)]


# The q table as it was built before the walk from the mode, copied
# verbatim: a libmp float Poisson term at wp bits, walked from k = 0 to
# its majorant stop, each entry adding its floored fixed-point copy.
def _float_walk_q_table(mu: float, r: int, A: int, prec: int) -> ShiftedMomentTable:
    S, wp = _float_walk_fixed_scale(mu, r, A, prec)
    totals, K = _float_walk_totals(mu, r, A, S, wp)
    F = 2 * (K + 1) + 2
    errs = tuple(F + ((2 * K + 1) * (t + F) >> (wp - 3)) + 1 for t in totals)
    return ShiftedMomentTable(mu, r, tuple(totals), errs, S, prec)


def _float_walk_fixed_scale(mu: float, r: int, A: int, prec: int) -> tuple[int, int]:
    low = min(_log2_jensen(mu, r, 0), _log2_jensen(mu, r, A))
    guard = (int(2.0 * mu) + prec - math.floor(low) + 68).bit_length() + 4
    wp = prec + guard
    return wp - math.floor(low) + 2, wp


def _float_walk_totals(mu: float, r: int, A: int, S: int, wp: int) -> tuple[list[int], int]:
    x = from_float(mu)
    t = mpf_exp(mpf_neg(x), wp)
    fixed = to_fixed(t, S)
    totals = [0] + [fixed // a**r for a in range(1, A + 1)]
    for k in count(1):
        t = mpf_div(mpf_mul(t, x, wp), from_int(k), wp)
        fixed = to_fixed(t, S)
        if fixed:
            totals = [s + fixed // (k + a) ** r for a, s in enumerate(totals)]
        elif k > mu and to_float(mpf_shift(t, S)) * (k + 1) < k + 1 - mu:
            return totals, k


def _both_tables(N: int, p: float, r: int) -> tuple[list[float], list[float]]:
    """Orders 1..6 of the r-th moment expansion through the table and through the float walk's.

    Both are the truncated series correctly rounded, the float walk's
    with its own finer rebuilds, so they must give the same doubles.
    """
    mu = N * p
    polys = [binomial_barbour_polynomial(N, mu, m) for m in range(1, 7)]
    got = [inverse_moment_estimate(poly, build_q_table(mu, r, 10)) for poly in polys]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(charlier_expansion, "_q_table", _float_walk_q_table)
        table = _float_walk_q_table(mu, r, 10, 80 + 10 * (1 + max(0, math.ceil(math.log2(mu) / 2))))
        want = [inverse_moment_estimate(poly, table) for poly in polys]
    return got, want


@pytest.mark.parametrize("N", [10, 100])
@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_walk_from_the_mode_equals_the_float_walk_on_the_report_grid(N, r):
    for p in GRID[::10]:  # 1 - p is inexact at most of them
        got, want = _both_tables(N, p, r)
        assert got == want, p


@settings(max_examples=15, deadline=None)
@given(
    mu=st.floats(math.log(1e-3), math.log(1e5)).map(math.exp),
    p=st.integers(1, 999).map(lambda i: i / 1000),
    r=st.integers(2, 6),
)
@example(mu=1e5, p=0.3, r=2)
@example(mu=3e3, p=0.07, r=6)
def test_walk_from_the_mode_equals_the_float_walk_up_to_mu_1e5(mu, p, r):
    N = max(1, round(mu / p))
    got, want = _both_tables(N, p, r)
    assert got == want


def test_large_mu_expansion_keeps_its_double():
    # the float walk's value at N = 10**6, from k = 0 past mu; the walk
    # from the mode takes about 3 sqrt(mu S) steps instead
    assert _inverse_moments(10**6, 0.5, 2, (3,)) == [4.00001200006e-12]
