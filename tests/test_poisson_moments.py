"""Tests for the positive-support inverse moments and the crossover machinery."""
import math
import sys
import threading

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf

from invmoments import poisson_moments

from invmoments.exact_oracle import (
    DomainError,
    poisson_inverse_moment_direct,
    shifted_poisson_moment_direct,
)
from invmoments.poisson_moments import (
    CrossoverProfile,
    build_q_table,
    calibrate_crossover,
    er_function,
    forward_difference_at_zero,
    positive_poisson_inverse_moment,
    reference_profile,
    shifted_inverse_moment,
    y_sequence,
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
    prof = reference_profile(1, 1e-5)
    exact = poisson_inverse_moment_direct(40.0, 1, tol=1e-16).value
    approx = positive_poisson_inverse_moment(40.0, 1, profile=prof)
    assert abs(approx - exact) <= 1e-5 * exact
    exact_lo = poisson_inverse_moment_direct(2.0, 1, tol=1e-16).value
    approx_lo = positive_poisson_inverse_moment(2.0, 1, profile=prof)
    assert abs(approx_lo - exact_lo) <= 1e-5 * exact_lo


def test_profile_order_mismatch():
    prof = reference_profile(2, 1e-5)
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
    # mu = 30 goes through the series-free branch; compare to the slow sum
    direct = shifted_poisson_moment_direct(30.0, 2, 2, tol=1e-16).value
    got = shifted_inverse_moment(30.0, 2, 2)
    assert abs(got - direct) <= 1e-10 * direct


def test_y_sequence_frozen():
    assert abs(y_sequence(1.0, 1) - Y1_AT_1) < 1e-15


@pytest.mark.parametrize("mu", [0.5, 1.0, 5.0, 20.0])
def test_y_sequence_is_scaled_difference(mu):
    table = build_q_table(mu, 1, 10)
    for n in range(1, 11):
        delta = forward_difference_at_zero(table, n)
        want = delta * mu**n
        got = y_sequence(mu, n)
        assert abs(got - want) <= 1e-9 * max(abs(want), 1e-300), n


def test_forward_difference_brute_force():
    table = build_q_table(1.0, 1, 4)
    delta4 = forward_difference_at_zero(table, 4)
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


def test_forward_difference_bounds():
    table = build_q_table(2.0, 1, 3)
    with pytest.raises(IndexError):
        forward_difference_at_zero(table, 4)


def test_reference_profiles_frozen():
    p = reference_profile(3, 1e-5)
    assert (p.M1, p.M2) == (39, 20)
    assert abs(p.mu_star - 20.544) < 5e-4
    q = reference_profile(6, 1e-10)
    assert (q.M1, q.M2) == (90, 53)
    assert abs(q.mu_star - 47.068) < 5e-4
    with pytest.raises(DomainError):
        reference_profile(7, 1e-5)
    with pytest.raises(DomainError):
        reference_profile(1, 1e-7)


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


def test_profile_is_frozen():
    prof = CrossoverProfile(1, 1e-5, 13.671, 31, 10)
    with pytest.raises(AttributeError):
        prof.M1 = 99


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda mu: positive_poisson_inverse_moment(mu, 2),
        lambda mu: poisson_inverse_moment_direct(mu, 1),
        lambda mu: shifted_poisson_moment_direct(mu, 1, 1),
        lambda mu: shifted_inverse_moment(mu, 1, 2),
        lambda mu: build_q_table(mu, 2, 3),
        lambda mu: y_sequence(mu, 2),
        lambda mu: er_function(mu),
    ],
    ids=[
        "positive_poisson_inverse_moment",
        "poisson_inverse_moment_direct",
        "shifted_poisson_moment_direct",
        "shifted_inverse_moment",
        "build_q_table",
        "y_sequence",
        "er_function",
    ],
)
def test_non_finite_mu_is_domain_error(call, mu):
    # NaN slips through a plain "mu <= 0" test and the series never stop
    with pytest.raises(DomainError):
        call(mu)


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


def _shifted_direct_sum(x, expmx, a, r):
    """E[1/(Q+a)**r] summed on its own, at the current working precision."""
    eps = mpf(10) ** (-(mpmath.mp.dps + 5))
    total = expmx / mpf(a) ** r if a > 0 else mpf(0)
    t = expmx
    k = 0
    while True:
        k += 1
        t *= x / k
        term = t / mpf(k + a) ** r
        total += term
        if k > x and term < total * eps:
            return total


@pytest.mark.parametrize("mu", [1e-3, 0.5, 7.3, 61.0])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_q_table_one_pass_equals_per_entry_sums(mu, r):
    table = build_q_table(mu, r, 10)
    with mpmath.workdps(table.dps):
        x = mpf(mu)
        expmx = mpmath.exp(-x)
        want = tuple(_shifted_direct_sum(x, expmx, a, r) for a in range(11))
    assert table.values == want


def test_asym_coefficients_concurrent_fill(monkeypatch):
    # threads that fill the same cached row at once must not store a
    # coefficient twice, which would shift every later one
    r, count, workers = 3, 60, 8
    want = [float(abs(stirling_first(r + i, r))) for i in range(count)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(poisson_moments, "_asym_coeffs", {})
            results = []
            threads = [
                threading.Thread(
                    target=lambda: results.append(
                        poisson_moments._asym_coefficients(r, count)
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
            assert poisson_moments._asym_coefficients(r, count) == want
    finally:
        sys.setswitchinterval(old)
