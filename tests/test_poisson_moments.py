"""Tests for the positive-support inverse moments and the crossover machinery."""
import hashlib
import importlib.util
import math
import sys
import threading
import time
from fractions import Fraction
from itertools import count
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf

from _reference import (
    _y_integers, linear_failing_index, mode_walk_pmf, reference_moment, shifted_stirling,
)
from invmoments import exact_oracle, poisson_moments

from invmoments.charlier_expansion import _rounded_orders, binomial_barbour_polynomial, expand_pdf
from invmoments.exact_oracle import (
    Binomial,
    DomainError,
    ExplicitPdf,
    exact_inverse_moment,
    poisson_inverse_moment_direct,
    shifted_poisson_moment_direct,
)
from invmoments.poisson_moments import (
    CalibrationError,
    CrossoverProfile,
    _ascending_partial,
    build_q_table,
    calibrate_crossover,
    er_function,
    positive_poisson_inverse_moment,
    shifted_inverse_moment,
)
from invmoments.special_numbers import stirling_first

# sum_{i>=1} 1**i / (i * i!) at 50 digits
ER_AT_1 = 1.3179021514544039
# y_1(1) = e**(-1) * (Er(1) - 1/1), frozen from the same run
Y1_AT_1 = -0.14729145183287003


def test_er_frozen_value():
    assert abs(er_function(1.0) - ER_AT_1) < 1e-15
    assert er_function(0.0) == 0.0


def test_er_domain():
    with pytest.raises(DomainError):
        er_function(-0.5)
    with pytest.raises(DomainError):
        er_function(701.0)


@pytest.mark.parametrize("mu", [0.5, 5.0, 20.0])
def test_er_matches_first_inverse_moment(mu):
    lhs = math.exp(-mu) * er_function(mu)
    rhs = poisson_inverse_moment_direct(mu, 1, tol=1e-16).value
    assert abs(lhs - rhs) <= 1e-12 * rhs


@pytest.mark.parametrize("mu,r", [(0.7, 1), (3.0, 2), (12.0, 3), (40.0, 1)])
def test_no_profile_falls_back_to_direct(mu, r):
    got = positive_poisson_inverse_moment(mu, r)
    want = poisson_inverse_moment_direct(mu, r, tol=1e-15).value
    assert abs(got - want) <= 1e-13 * want


def test_profile_selects_series_by_side():
    prof = CrossoverProfile(1, 1e-5, 13.671, 31, 10)
    exact = poisson_inverse_moment_direct(40.0, 1, tol=1e-16).value
    approx = positive_poisson_inverse_moment(40.0, 1, profile=prof)
    assert abs(approx - exact) <= 1e-5 * exact
    exact_lo = poisson_inverse_moment_direct(2.0, 1, tol=1e-16).value
    approx_lo = positive_poisson_inverse_moment(2.0, 1, profile=prof)
    assert abs(approx_lo - exact_lo) <= 1e-5 * exact_lo


def test_profile_order_mismatch():
    prof = CrossoverProfile(2, 1e-5, 17.061, 35, 15)
    with pytest.raises(DomainError):
        positive_poisson_inverse_moment(3.0, 1, profile=prof)


def test_shifted_small_examples():
    v = shifted_inverse_moment(1.0, 1, 1)
    assert abs(v - (-math.expm1(-1.0))) < 1e-13
    # E[1/(Q+1)] = (1 - e**(-mu)) / mu for any mu
    for mu in (0.25, 2.0, 9.0):
        assert abs(shifted_inverse_moment(mu, 1, 1) - (-math.expm1(-mu)) / mu) < 1e-12


@pytest.mark.parametrize("mu", [0.5, 3.0, 12.0])
def test_shifted_first_order_recurrence(mu):
    # E[1/(Q+a)] = (1 - (a-1) E[1/(Q+a-1)]) / mu, starting from a = 1
    prev = shifted_inverse_moment(mu, 1, 1)
    for a in range(2, 9):
        want = (1.0 - (a - 1) * prev) / mu
        got = shifted_inverse_moment(mu, a, 1)
        assert abs(got - want) <= 1e-9 * max(abs(want), 1e-300), (mu, a)
        prev = got


@pytest.mark.parametrize("mu", [0.5, 3.0, 12.0])
@pytest.mark.parametrize("r", [2, 3])
def test_shifted_higher_order_recurrence(mu, r):
    # E[1/(Q+a)**r] = (E[1/(Q+a-1)**(r-1)] - (a-1) E[1/(Q+a-1)**r]) / mu
    for a in range(2, 7):
        lower = shifted_inverse_moment(mu, a - 1, r - 1)
        same = shifted_inverse_moment(mu, a - 1, r)
        want = (lower - (a - 1) * same) / mu
        got = shifted_inverse_moment(mu, a, r)
        assert abs(got - want) <= 1e-8 * max(abs(want), 1e-300), (mu, a, r)


def test_shifted_unit_shift_lowers_order():
    # E[1/(Q+1)**r] = E_plus[1/Q**(r-1)] / mu with the positive-support moment
    for mu in (0.8, 4.0):
        for r in (2, 3, 4):
            lhs = shifted_inverse_moment(mu, 1, r)
            rhs = poisson_inverse_moment_direct(mu, r - 1, tol=1e-15).value / mu
            assert abs(lhs - rhs) <= 1e-10 * rhs


def test_shifted_large_mu_route_consistency():
    # mu = 30, well past the shift: compare to the 55-digit mpmath sum
    want = float(reference_moment(mode_walk_pmf(30.0), 2, 2))
    got = shifted_inverse_moment(30.0, 2, 2)
    assert abs(got - want) <= 1e-10 * want


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=-300.0, max_value=0.0),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
)
@example(-20.0, 3, 3)
@example(-30.0, 3, 3)
@example(-50.0, 3, 3)
@example(-200.0, 6, 4)
def test_shifted_tiny_mu_matches_direct(log10_mu, a, r):
    # at tiny mu the k = 0 term, e**-mu / a**r, is nearly the whole moment
    # and the walk's scale must still resolve the terms past it; the
    # reference is the 55-digit mpmath sum, independent of the walk
    mu = 10.0**log10_mu
    want = float(reference_moment(mode_walk_pmf(mu), a, r))
    got = shifted_inverse_moment(mu, a, r)
    assert abs(1.0 - got / want) <= 1e-12, (mu, a, r)


@pytest.mark.parametrize("a", [20, 45, 60, 64, 65, 100])
@pytest.mark.parametrize("r", [1, 2, 4])
def test_shifted_large_shift_matches_direct(a, r):
    # shifts up to 100, with mu from far below the shift to past it,
    # against the 55-digit mpmath sum, independent of the walk
    for mu in (1e-300, 1e-3, 0.5, 5.0, a + 4.0):
        want = float(reference_moment(mode_walk_pmf(mu), a, r))
        got = shifted_inverse_moment(mu, a, r)
        assert abs(1.0 - got / want) <= 1e-12, (mu, a, r)


@pytest.mark.parametrize("mu", [1e-308, 5e-324])
@pytest.mark.parametrize("r", [1, 2, 6])
def test_positive_moment_tiny_mu_returns(mu, r):
    # once the Poisson term underflows to 0 the stop test must still fire
    assert positive_poisson_inverse_moment(mu, r) == mu
    assert shifted_inverse_moment(mu, 0, r) == mu


def _y(mu, n):
    # y(n) = mu**n G + E0 P_n - R_n as the r = 1 kernel once formed it
    # (_reference._y_integers): exact integers over u(0), G and E0 at
    # 200 bits, rounded once
    ys = _y_integers(mu, n)
    return _rounded_orders([ys[n]], ys[0][0], mu, 200)[0]


def test_y_sequence_frozen():
    assert abs(_y(1.0, 1) - Y1_AT_1) < 1e-15


@pytest.mark.parametrize("mu", [0.5, 1.0, 5.0, 20.0])
def test_y_sequence_is_scaled_difference(mu):
    # the exact y(n) lies within mu**n (nu -+ err) / 2**S of the table's
    # integer difference, and the kernel's y(n) is its rounded double
    table = build_q_table(mu, 1, 10)
    for n in range(1, 11):
        nu, err = table.differences[n]
        scale = Fraction(mu) ** n / (1 << table.S)
        got = _y(mu, n)
        assert (nu - err) * scale - math.ulp(got) <= got <= (nu + err) * scale + math.ulp(got), n


def test_forward_difference_brute_force():
    table = build_q_table(1.0, 1, 4)
    delta4 = table.differences[4][0] / (1 << table.S)
    acc = 0.0
    for a in range(5):
        v = shifted_poisson_moment_direct(1.0, a, 1, tol=1e-16).value if a else \
            poisson_inverse_moment_direct(1.0, 1, tol=1e-16).value
        acc += math.comb(4, a) * (-1.0) ** a * v
    assert abs(delta4 - acc) <= 1e-9 * max(abs(acc), 1e-300)


def test_q_table_shape_and_values():
    table = build_q_table(2.0, 1, 6)
    assert table.A == 6
    assert table.mu == 2.0 and table.r == 1
    prev = None
    for a in range(7):
        v = table.value(a)
        assert v > 0.0
        if prev is not None:
            assert v < prev  # shifting right can only shrink an inverse moment
        prev = v
        if a:
            want = shifted_poisson_moment_direct(2.0, a, 1, tol=1e-16).value
        else:
            want = poisson_inverse_moment_direct(2.0, 1, tol=1e-16).value
        assert abs(v - want) <= 1e-12 * want


def test_calibrate_quick_loose_target():
    prof = calibrate_crossover(1, 1e-2)
    assert prof.r == 1 and prof.target_rel_error == 1e-2
    assert prof.M1 >= 1 and prof.M2 >= 1
    assert prof.mu_star > 0.0
    assert prof.validated_max_rel_error is not None
    assert prof.validated_max_rel_error < 1e-2


def test_calibrate_rejects_bad_target():
    with pytest.raises(DomainError):
        calibrate_crossover(1, 0.5)
    with pytest.raises(DomainError):
        calibrate_crossover(1, 1e-15)
    with pytest.raises(DomainError):
        calibrate_crossover(0, 1e-5)


def test_calibrate_unreachable_target_reports_best_error():
    with pytest.raises(CalibrationError) as info:
        calibrate_crossover(40, 1e-13)
    assert isinstance(info.value.best_achieved, float)


def test_profile_is_frozen():
    prof = CrossoverProfile(1, 1e-5, 13.671, 31, 10)
    with pytest.raises(AttributeError):
        prof.M1 = 99


def test_ascending_branch_refuses_mu_past_700():
    # e**-mu leaves the normal range past 700; calibration never puts
    # mu_star there, so only a hand-made profile reaches the refusal
    prof = CrossoverProfile(1, 1e-5, 1000.0, 31, 20)
    assert positive_poisson_inverse_moment(700.0, 1, prof) > 0.0
    with pytest.raises(DomainError):
        positive_poisson_inverse_moment(700.0000000000001, 1, prof)


@pytest.mark.parametrize("m1,m2", [(0, 10), (-3, 10), (31, 0)])
def test_profile_rejects_empty_series(m1, m2):
    # a series with no terms would evaluate to 0.0 on its side of mu_star
    with pytest.raises(DomainError):
        CrossoverProfile(1, 1e-5, 13.671, m1, m2)


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda mu: positive_poisson_inverse_moment(mu, 2),
        lambda mu: poisson_inverse_moment_direct(mu, 1),
        lambda mu: shifted_poisson_moment_direct(mu, 1, 1),
        lambda mu: shifted_inverse_moment(mu, 1, 2),
        lambda mu: build_q_table(mu, 2, 3),
        lambda mu: er_function(mu),
        lambda mu: expand_pdf(binomial_barbour_polynomial(10, 5.0, 3), mu),
    ],
    ids=[
        "positive_poisson_inverse_moment",
        "poisson_inverse_moment_direct",
        "shifted_poisson_moment_direct",
        "shifted_inverse_moment",
        "build_q_table",
        "er_function",
        "expand_pdf",
    ],
)
def test_non_finite_mu_is_domain_error(call, mu):
    # NaN slips through a plain "mu <= 0" test and the series never stop
    with pytest.raises(DomainError):
        call(mu)


@pytest.mark.parametrize("call", [lambda: calibrate_crossover(150, 1e-5)], ids=["calibrate_crossover"])
def test_huge_r_overflow_is_domain_error(call):
    # the large-mu series at mu = 150 lies below the normal double
    # range, and the calibration refuses the order rather than measure it
    with pytest.raises(DomainError):
        call()


def test_calibration_refuses_from_r_142():
    # 1/150**r is a normal double through r = 141 (r log2(150) <= 1022);
    # that order is searched, and no M2 reaches the target below mu = 150
    with pytest.raises(DomainError):
        calibrate_crossover(142, 1e-5)
    with pytest.raises(CalibrationError):
        calibrate_crossover(141, 1e-5)


def _mp_poisson_moment(mu, a, r):
    """E[1/(Q+a)**r] (k >= 1 when a = 0) summed at 30 digits; the terms fall fast past k = 60."""
    with mpmath.workdps(30):
        x = mpf(mu)
        return mpmath.fsum(
            mpmath.exp(-x) * x**k / mpmath.factorial(k) / mpf(k + a) ** r
            for k in range(0 if a else 1, 200)
        )


@pytest.mark.parametrize(
    "call,want",
    [
        (lambda: positive_poisson_inverse_moment(5.0, 400), _mp_poisson_moment(5.0, 0, 400)),
        (lambda: exact_inverse_moment(Binomial(10, 0.5), 400), mpf(10) / 1024),
        (lambda: exact_inverse_moment(ExplicitPdf((0.25, 0.5, 0.25)), 2000), mpf(0.5)),
        (lambda: poisson_inverse_moment_direct(5.0, 400).value, _mp_poisson_moment(5.0, 0, 400)),
        (lambda: shifted_poisson_moment_direct(5.0, 1, 400).value, _mp_poisson_moment(5.0, 1, 400)),
    ],
    ids=[
        "positive_poisson_inverse_moment",
        "exact_inverse_moment",
        "exact_inverse_moment_pdf",
        "poisson_inverse_moment_direct",
        "shifted_poisson_moment_direct",
    ],
)
def test_huge_r_sums_terms_past_the_double_range(call, want):
    # k**r exceeds the double range, but the moment does not: E+[1/Q**400]
    # at mu = 5 is P(Q = 1) = 5 e**-5 = 0.0337 to double precision; each
    # such term is an exact-integer quotient rounded once, or 0.0 once it
    # provably rounds to it
    got = call()
    assert abs(mpf(got) - want) <= 2.0**-52 * want, got


# (value, tail_bound) of the direct sum at tol 1e-18, as the float walk
# gave them when it formed k**r for every term: only pi(1) = mu e**-mu
# is not 0.0, and where tol times Jensen's bound underflows so does the tail
HUGE_R_FLOAT_SUMS = {
    (0.37, 10**3): ("0x1.05b4969d42f7fp-2", "0x1.ab1a6257aee93p-323"),
    (0.37, 10**5): ("0x1.05b4969d42f7fp-2", "0x0.0p+0"),
    (3.0, 10**3): ("0x1.31e44999b0483p-3", "0x0.0p+0"),
    (3.0, 10**5): ("0x1.31e44999b0483p-3", "0x0.0p+0"),
    (150.0, 10**3): ("0x1.c5601f73d030fp-210", "0x0.0p+0"),
    (150.0, 10**5): ("0x1.c5601f73d030fp-210", "0x0.0p+0"),
}


@pytest.mark.parametrize("mu,r", sorted(HUGE_R_FLOAT_SUMS))
def test_float_sums_at_huge_r_form_no_power_past_the_cutoff(mu, r):
    # once r log2 k passes 1080 every term is 0.0 and k**r is not formed:
    # with it, r = 10**5 took 4 s at mu = 3 and 50 s at mu = 150
    value, tail = HUGE_R_FLOAT_SUMS[mu, r]
    start = time.perf_counter()
    got = poisson_inverse_moment_direct(mu, r, 1e-18)
    assert (got.value.hex(), got.tail_bound.hex()) == (value, tail)
    assert positive_poisson_inverse_moment(mu, r).hex() == value
    assert _ascending_partial(mu, r, 300).hex() == value
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("r", [169, 400])
def test_large_mu_series_past_row_cap_names_no_term(r):
    # the term count left for such an r is negative, and the error says
    # that no term exists instead of quoting it
    prof = CrossoverProfile(r, 1e-5, 0.5, 3, 2)
    with pytest.raises(DomainError, match=f"no large-mu term exists for r={r}"):
        positive_poisson_inverse_moment(5.0, r, prof)


def test_large_mu_series_at_row_cap_reports_term_count():
    with pytest.raises(DomainError, match="r=168 supports at most 1 terms"):
        poisson_moments._asymptotic_partial(200.0, 168, 2)
    assert poisson_moments._asymptotic_partial(2.0, 168, 1) == 2.0**-168  # |s(168, 168)| = 1


def _er_series(x):
    """Er(x) from its defining series, at the current working precision."""
    eps = mpf(10) ** (-(mpmath.mp.dps + 5))
    total = mpf(0)
    t = mpf(1)
    i = 0
    while True:
        i += 1
        t *= x / i
        term = t / i
        total += term
        if i > x and term < total * eps:
            return total


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-324.0, max_value=5.0), st.sampled_from((40, 75)))
@example(-324.0, 40)
@example(5.0, 40)
def test_er_from_ei_matches_series(log10_mu, dps):
    # the series is summed with 10 guard digits, so its own rounding
    # stays well below one ulp at the compared precision
    mu = max(10.0**log10_mu, 5e-324)
    with mpmath.workdps(dps + 10):
        want = _er_series(mpf(mu))
    with mpmath.workdps(dps):
        got = poisson_moments._er_from_ei(mu)
        ulp = mpmath.ldexp(1, mpmath.mag(want) - mpmath.mp.prec)
        assert abs(got - want) <= 10 * ulp, (mu, dps)


def _shifted_direct_sums(x, r, A):
    """E[1/(Q+a)**r] for a = 0 .. A summed directly, at the current working precision.

    One walk over k; it stops once past x the term falls below 1e-(dps+5)
    of every sum, a bound on the tail since 1/(k+a)**r <= 1.
    """
    eps = mpf(10) ** (-(mpmath.mp.dps + 5))
    t = mpmath.exp(-x)
    totals = [mpf(0)] + [t / a**r for a in range(1, A + 1)]
    for k in count(1):
        t = t * x / k
        totals = [s + t / (k + a) ** r for a, s in enumerate(totals)]
        if k > x and t * (k + 1) < min(totals) * eps * (k + 1 - x):
            return totals


def _entry_walk(mu, a, r, anchor, stop, top):
    """(sum of floor(T(k) / (k+a)**r), lo, hi): one entry walked on its own from the mode.

    T(k0) = anchor at k0 = floor(mu); each step floors T times the exact
    rational pmf ratio, each side stops at its first T < stop, and the
    upward side before k = top too.
    """
    x, k0 = Fraction(mu), math.floor(mu)
    total = anchor // (k0 + a) ** r if k0 + a else 0
    hi, T = k0, anchor
    while hi + 1 < top and (T := math.floor(T * x / (hi + 1))) >= stop:
        hi += 1
        total += T // (hi + a) ** r
    lo, T = k0, anchor
    while lo and (T := math.floor(T * lo / x)) >= stop:
        lo -= 1
        total += T // (lo + a) ** r if lo + a else 0
    return total, lo, hi


@pytest.mark.parametrize("mu", [1e-3, 0.5, 7.3, 61.0])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_q_table_one_pass_equals_per_entry_sums(mu, r):
    # the shared walk gives each entry exactly the integer total of its
    # own walk from the same anchor on the same scale 2**W, with the same
    # stops: below 2**B, and upward at entry 0's cutoff
    table = build_q_table(mu, r, 10)
    log2_L = min(exact_oracle._log2_jensen(mu, r, 0), exact_oracle._log2_jensen(mu, r, 10))
    W, B = exact_oracle._walk_scale(table.prec, log2_L, mu, math.inf)
    top = exact_oracle._power_cutoff(W, r)
    lo, terms, _ = exact_oracle._poisson_window(mu, W, table.prec + exact_oracle._WALK_GUARD,
                                                1 << B, top)
    anchor = terms[math.floor(mu) - lo]
    want = [_entry_walk(mu, a, r, anchor, 1 << B, top) for a in range(11)]
    assert want == [(total, lo, lo + len(terms) - 1) for total in table.totals]
    assert table.S == W


def test_q_table_walk_grows_like_sqrt_mu():
    # steps, not wall time: each side of the walk ends where 2**W pi(k)
    # falls below its stop 2**B, about sqrt(2 (W - B) log(2) mu) from the
    # mode, so the window holds about 2 sqrt(2 log 2) = 2.35 times
    # sqrt(mu (W - B)) terms (2.23-2.30 here, as the mode's pi is below
    # 1), where a walk from k = 0 would take more than mu
    for e in range(2, 8):
        mu = 10.0**e
        table = poisson_moments._q_table(mu, 2, 2, 120)
        log2_L = min(exact_oracle._log2_jensen(mu, 2, 0), exact_oracle._log2_jensen(mu, 2, 2))
        W, B = exact_oracle._walk_scale(120, log2_L, mu, math.inf)
        lo, terms, _ = exact_oracle._poisson_window(mu, W, 120 + exact_oracle._WALK_GUARD, 1 << B,
                                                    exact_oracle._power_cutoff(W, 2))
        assert table.S == W
        assert 2.0 <= len(terms) / math.sqrt(mu * (W - B)) <= 2.5, mu
        assert lo > 0 or e == 2


def test_q_table_at_huge_r_stops_at_the_cutoff():
    # at r = 1000 the uncapped scale is near 2**9775, and the window down
    # to its stop would reach k = 5932; its upward side ends before the
    # cutoff 2**ceil((W+1) / r) = 1024 instead, where every floor is 0,
    # and each entry is still within its bound of a 40-digit sum
    mu, r, A = 800.0, 1000, 2
    table = build_q_table(mu, r, A)
    log2_L = min(exact_oracle._log2_jensen(mu, r, 0), exact_oracle._log2_jensen(mu, r, A))
    W, B = exact_oracle._walk_scale(table.prec, log2_L, mu, math.inf)
    top = exact_oracle._power_cutoff(W, r)
    lo, terms, _ = exact_oracle._poisson_window(mu, W, table.prec + exact_oracle._WALK_GUARD,
                                                1 << B, top)
    assert table.S == W
    assert lo + len(terms) == top == 1024
    with mpmath.workdps(40):
        x = mpf(mu)
        for a, (total, err) in enumerate(zip(table.totals, table.errs)):
            want = mpmath.ldexp(mpmath.fsum(
                mpmath.exp(k * mpmath.log(x) - x - mpmath.loggamma(k + 1)) / mpf(k + a) ** r
                for k in range(a == 0, 40)), W)
            assert abs(total - want) <= err + want * mpf(10) ** -35, a
            assert err <= total >> (table.prec - 2), a


@settings(max_examples=40, deadline=None)
@given(
    log_mu=st.floats(math.log(1e-300), math.log(1e4)),
    r=st.integers(1, 6),
    A=st.integers(0, 12),
)
@example(log_mu=math.log(1e-300), r=6, A=12)
@example(log_mu=math.log(1e4), r=1, A=12)
@example(log_mu=math.log(1e4), r=6, A=12)
def test_q_table_entries_within_their_bounds(log_mu, r, A):
    # |totals[a] - 2**S q(a)| <= errs[a], q(a) summed directly at 100
    # digits, whose own error stays below 1e-90 of it; and each bound is
    # within 2**-(prec-2) of its entry, so it says something
    mu = min(math.exp(log_mu), 1e4)
    table = build_q_table(mu, r, A)
    with mpmath.workdps(100):
        wants = _shifted_direct_sums(mpf(mu), r, A)
        for a, (total, err) in enumerate(zip(table.totals, table.errs)):
            want = mpmath.ldexp(wants[a], table.S)
            assert abs(total - want) <= err + want * mpf(10) ** -90, (mu, r, a)
            assert err <= total >> (table.prec - 2), (mu, r, a)


def test_asym_coefficients_concurrent_fill():
    # threads that fill the same cached row at once must each get the
    # whole, correct row
    r, count, workers = 3, 60, 8
    want = [float(abs(stirling_first(r + i, r))) for i in range(count)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            poisson_moments._asym_row.cache_clear()
            results = []
            threads = [
                threading.Thread(
                    target=lambda: results.append(
                        list(poisson_moments._asym_row(r)[:count])
                    )
                )
                for _ in range(workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert results == [want] * workers
            assert list(poisson_moments._asym_row(r)[:count]) == want
    finally:
        sys.setswitchinterval(old)


def test_calibration_calls_oracle_at_few_grid_points(monkeypatch):
    # the M2 walk and the validation sweep step over most grid points on
    # interval bounds; only points those cannot prove, the M1 search and
    # the bisection reach the oracle
    seen = set()
    oracle = poisson_moments._positive_moment_double

    def counting(mu, r):
        seen.add(mu)
        return oracle(mu, r)

    monkeypatch.setattr(poisson_moments, "_positive_moment_double", counting)
    for r, target, most in ((1, 1e-5, 400), (6, 1e-10, 500)):
        seen.clear()
        calibrate_crossover(r, target)
        assert len(seen) < most, (r, target)


@pytest.mark.parametrize(
    "r, target", [(1, 1e-2), (2, 1e-10), (1, 1e-13), (8, 1e-5), (6, 1e-10), (20, 1e-5)]
)
def test_certified_sweep_equals_oracle_at_every_point(r, target):
    # the sweep as it ran before the certificate: the oracle at every
    # grid point of (0, 2 mu*]; at 1e-13 the interval bounds' slack is
    # close to the target, so most points near mu* reach the oracle, and
    # (20, 1e-5), mu* near 107.5, sweeps past mu = 150
    prof = calibrate_crossover(r, target)
    worst = 0.0
    for i in range(1, int(2.0 * prof.mu_star / 0.05) + 1):
        mu = i * 0.05
        if mu <= prof.mu_star:
            approx = poisson_moments._ascending_partial(mu, r, prof.M1)
        else:
            approx = poisson_moments._asymptotic_partial(mu, r, prof.M2)
        exact = poisson_moments._positive_moment_double(mu, r)
        worst = max(worst, abs(1.0 - approx / exact))
    assert prof.validated_max_rel_error == worst


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=math.log(0.05), max_value=math.log(150.0)),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=350),
)
@example(math.log(13.65), 1, 17)  # m1 = 29
@example(math.log(13.65), 1, 19)  # (1, 1e-5): M1 = 31 at the last point below mu*
@example(math.log(150.0), 1, 350)  # more terms than the oracle takes
@example(math.log(0.05), 12, 0)
def test_ascending_point_bound_holds(log_mu, r, extra):
    # the one-point interval bound covers the partial's error against the
    # double oracle, as calibration computes it, and against a 40-digit sum
    mu = min(max(math.exp(log_mu), 0.05), 150.0)
    m1 = max(1, math.floor(mu) - 1 + extra)  # the bound is inf for m1 + 1 < mu
    bound = poisson_moments._ascending_interval_bound(mu, mu, r, m1)
    if bound == math.inf:
        return
    approx = poisson_moments._ascending_partial(mu, r, m1)
    _check_point_bound(mu, r, approx, bound)


def _positive_moment_mp(mu: float, r: int):
    """E+[1/Q**r] summed at 40 digits, tail below 10**-45 of the sum."""
    with mpmath.workdps(40):
        x = mpf(mu)
        term = mpmath.exp(-x)
        total = mpf(0)
        k = 0
        while True:
            k += 1
            term = term * x / k
            total += term / mpf(k) ** r
            if k > x and term * (k + 1) / (k + 1 - x) < total * mpf(10) ** -45:
                return total


def _check_point_bound(mu: float, r: int, approx: float, bound: float, refs=None) -> None:
    exact, ref = refs or (poisson_moments._positive_moment_double(mu, r), _positive_moment_mp(mu, r))
    assert abs(1.0 - approx / exact) <= bound, (mu, r, approx, bound)
    with mpmath.workdps(40):
        assert abs(1 - approx / ref) <= bound, (mu, r, approx, bound)


def _check_large_mu_point_bounds(mu: float, r: int) -> None:
    # the one-point interval bound of every length M2 the row cap allows
    refs = None
    for m2 in range(1, min(120, 169 - r) + 1):
        bound = poisson_moments._large_mu_interval_bound(mu, mu, r, m2)
        if bound < math.inf:
            refs = refs or (poisson_moments._positive_moment_double(mu, r), _positive_moment_mp(mu, r))
            approx = poisson_moments._asymptotic_partial(mu, r, m2)
            _check_point_bound(mu, r, approx, bound, refs)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=12))
@example(3000, 1)
@example(600, 2)
@example(1, 12)
def test_large_mu_point_bound_holds_on_grid(i, r):
    _check_large_mu_point_bounds(i * 0.05, r)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=math.log(0.05), max_value=math.log(150.0)),
    st.integers(min_value=1, max_value=12),
)
def test_large_mu_point_bound_holds_log_uniform(log_mu, r):
    _check_large_mu_point_bounds(min(math.exp(log_mu), 150.0), r)


@settings(max_examples=12, deadline=None)
@given(
    st.floats(min_value=math.log(150.0), max_value=math.log(700.0)),
    st.integers(min_value=1, max_value=20),
)
@example(math.log(700.0), 1)
@example(math.log(215.0), 20)
def test_large_mu_point_bound_holds_past_150(log_mu, r):
    _check_large_mu_point_bounds(min(math.exp(log_mu), 700.0), r)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=20, max_value=3000),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=120),
)
@example(274, 16, 1, 10)  # (1, 1e-5): M2 = 10 just above its boundary near mu = 13.7
@example(520, 32, 1, 20)  # (1, 1e-10)
@example(900, 64, 6, 53)  # (6, 1e-10)
@example(2999, 1, 8, 120)
def test_large_mu_interval_bound_holds_on_grid(lo, width, r, m2):
    # every grid point inside the interval errs, as the point test
    # computes it, by at most the interval's bound
    hi = min(lo + width, 3000)
    bound = poisson_moments._large_mu_interval_bound(lo * 0.05, hi * 0.05, r, m2)
    assert bound >= 0.0
    if bound == math.inf:
        return
    for i in range(lo, hi + 1):
        mu = i * 0.05
        approx = poisson_moments._asymptotic_partial(mu, r, m2)
        err = abs(1.0 - approx / poisson_moments._positive_moment_double(mu, r))
        assert err <= bound, (mu, r, m2, err, bound)


LARGE_MU_POINTS = (1.0, 1.5, 2.0, 3.0, 5.0, 7.25, 10.0, 13.7, 20.0, 27.0, 29.2, 40.0, 47.07,
                   60.0, 80.0, 100.0, 107.5, 125.0, 149.99, 150.0)


@pytest.mark.parametrize("mu", LARGE_MU_POINTS)
def test_large_mu_sums_bound_their_parts_at_50_digits(mu):
    # at one point each part of _large_mu_sums against its 50-digit value:
    # head >= D1 = sum_{n < r+m2} c_n P(Q <= n), rest >= D2 = E -
    # sum_{n < r+m2} c_n P(Q >= n+1) and lower <= E, E = E+[1/Q**r],
    # c_n = |s(n,r)| / mu**n, P from the regularized incomplete gamma;
    # each within the sums' own rounding, 5 n + 15 units of 2**-53
    # (_bracket_slack).  Where the explicit terms alone fall short of
    # D2, only the middle and far tails make rest a bound.
    with mpmath.workdps(50):
        x = mpf(mu)
        # P(Q <= n) and P(Q >= n+1) for n = 0 .. 32
        cdf = [mpmath.gammainc(n + 1, x, mpmath.inf, regularized=True) for n in range(33)]
        sf = [mpmath.gammainc(n + 1, 0, x, regularized=True) for n in range(33)]
        # pi(k), k >= 1, until the tail P(Q > k) is below 10**-55 E+[1/Q**8]
        pis, e8 = [mpmath.exp(-x) * x], mpf(0)
        while len(pis) <= x or pis[-1] * (len(pis) + 1) / (len(pis) + 1 - x) >= e8 * mpf(10) ** -55:
            e8 += pis[-1] / mpf(len(pis)) ** 8
            pis.append(pis[-1] * x / (len(pis) + 1))
    for r in range(1, 9):
        with mpmath.workdps(50):
            E = mpmath.fsum(pi / mpf(k) ** r for k, pi in enumerate(pis, 1))
            c = {n: abs(shifted_stirling(0, n, r)) / x**n for n in range(r, r + 25)}
            low = [c[n] * cdf[n] for n in c]  # the terms of D1 and of E - D2
            high = [c[n] * sf[n] for n in c]
        for m2 in (1, 4, 10, 25):
            n, head, rest, upper, lower = poisson_moments._large_mu_sums(mu, mu, r, m2)
            u = (5 * n + 15) * 2.0**-53
            with mpmath.workdps(50):
                assert head * (1 + u) >= mpmath.fsum(low[:m2]), (mu, r, m2)
                assert rest * (1 + u) >= E - mpmath.fsum(high[:m2]), (mu, r, m2)
                assert lower - u * upper <= E, (mu, r, m2)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=150),
)
@example(200, 73, 1, 17)  # (1, 1e-5): M1 = 31 up to mu* = 13.67
@example(600, 71, 6, 58)  # (6, 1e-10): M1 = 90 up to mu* = 47.07
@example(1, 0, 8, 0)
@example(200, 16, 1, 36)  # the tail is below the rounding: only the slack covers it
def test_ascending_interval_bound_holds_on_grid(lo, width, r, extra):
    # the same for the M1-term ascending partial, any m1 >= mu_b - 1
    hi = min(lo + width, 3000)
    m1 = math.ceil(hi * 0.05) + extra
    bound = poisson_moments._ascending_interval_bound(lo * 0.05, hi * 0.05, r, m1)
    assert bound >= 0.0
    if bound == math.inf:
        return
    for i in range(lo, hi + 1):
        mu = i * 0.05
        approx = poisson_moments._ascending_partial(mu, r, m1)
        err = abs(1.0 - approx / poisson_moments._positive_moment_double(mu, r))
        assert err <= bound, (mu, r, m1, err, bound)


PUBLISHED_ROWS = tuple((r, t) for t in (1e-5, 1e-10) for r in range(1, 7))


def test_certified_descent_equals_linear_walk(monkeypatch):
    # every M2 walk returns the index the one-point-at-a-time walk
    # returns, while reading far fewer points
    certified = poisson_moments._largest_failing_index
    reads = {"certified": 0, "linear": 0}

    def counted(fails, key):
        def f(i):
            reads[key] += 1
            return fails(i)
        return f

    def both(fails, passes, start, cap):
        got = certified(counted(fails, "certified"), passes, start, cap)
        assert got == linear_failing_index(counted(fails, "linear"), start, cap), (start, cap)
        return got

    monkeypatch.setattr(poisson_moments, "_largest_failing_index", both)
    rows = PUBLISHED_ROWS + tuple((r, t) for r in range(1, 9) for t in (1e-2, 5e-11, 1e-13))
    for r, target in rows:
        calibrate_crossover(r, target)
    assert reads["certified"] * 3 < reads["linear"], reads


# the last line of scripts/profile_digest.py: its 112 profiles, bit for bit
PROFILE_SHA256 = "331cf85ef73149140fb4ddda2dceae860fa778e8903d024e558a36054908653a"


def test_112_profile_digest():
    # every calibration reads the float Poisson sum, so any double it moves
    # shows in some profile line
    path = Path(__file__).resolve().parent.parent / "scripts" / "profile_digest.py"
    spec = importlib.util.spec_from_file_location("profile_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    digest = hashlib.sha256()
    for r in range(1, 9):
        for target in module.TARGETS:
            digest.update(module.profile_line(r, target).encode() + b"\n")
    assert digest.hexdigest() == PROFILE_SHA256
