"""Tests for the three classical series the expansion is benchmarked against."""
import pytest

from invmoments.competing import rempala, stephan, znidaric
from invmoments.exact_oracle import Binomial, DomainError, exact_inverse_moment


def test_stephan_converges_to_exact():
    # partial sums approach the exact value from below; enough terms pins
    # the value to near machine precision even at p = 1
    cases = [
        (20, 0.8, 2000, 1e-12),
        (5, 1.0, 500, 1e-11),
        (10, 0.9, 20000, 1e-11),
    ]
    for N, p, M, tol in cases:
        exact = exact_inverse_moment(Binomial(N, p), 1)
        got = stephan(N, p, M)
        assert got.terms == M
        assert abs(got.value - exact) <= tol * exact, (N, p, M)


def test_stephan_slow_at_half():
    # the series converges like a geometric with ratio near 1 - p, so at
    # p = 0.5 it takes thousands of terms to clear even 1e-6 absolute
    exact = exact_inverse_moment(Binomial(10, 0.5), 1)
    assert abs(stephan(10, 0.5, 12000).value - exact) < 1e-6
    assert abs(stephan(10, 0.5, 100).value - exact) > 1e-6


def test_stephan_partial_sums_increase():
    vals = [stephan(10, 0.5, M).value for M in (1, 2, 3, 5, 8, 13)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    exact = exact_inverse_moment(Binomial(10, 0.5), 1)
    assert all(v < exact for v in vals)


def test_stephan_domain():
    with pytest.raises(DomainError):
        stephan(10, 0.0, 5)
    with pytest.raises(DomainError):
        stephan(10, 0.5, 0)
    with pytest.raises(DomainError):
        stephan(0, 0.5, 5)


def test_rempala_hand_values():
    # M = 1 keeps only the i = 0 term: 1 / (N p)
    assert abs(rempala(10, 0.5, 1).value - 0.2) < 1e-16
    assert rempala(10, 1.0, 7).value == 0.1


def test_rempala_truncation_limit():
    with pytest.raises(DomainError):
        rempala(10, 0.5, 11)
    r = rempala(10, 0.5, 10)
    assert r.terms == 10


@pytest.mark.parametrize("M", [2, 3])
def test_rempala_overflow_is_domain_error(M):
    # at p = 1e-300 the ratio q/p is 1e300: for M = 3 the i = 2 term
    # overflows, for M = 2 the final division by N p does
    with pytest.raises(DomainError):
        rempala(10, 1e-300, M)


def test_rempala_error_is_not_monotone():
    # at N = 100, p = 0.5 the optimal truncation is near M = 13; pushing to
    # the full M = N makes the answer worse by sixteen orders of magnitude
    exact = exact_inverse_moment(Binomial(100, 0.5), 1)
    err_13 = abs(rempala(100, 0.5, 13).value - exact)
    err_100 = abs(rempala(100, 0.5, 100).value - exact)
    assert err_13 < 1e-15
    assert err_100 > 1e-2
    assert err_100 > err_13


def test_rempala_sharp_accuracy_transition():
    # same machinery, N = M = 100: moving p across the ratio q/p = 1
    # boundary flips the series from convergent to useless
    exact_60 = exact_inverse_moment(Binomial(100, 0.60), 1)
    rel_60 = abs(rempala(100, 0.60, 100).value - exact_60) / exact_60
    assert rel_60 < 1e-6
    exact_50 = exact_inverse_moment(Binomial(100, 0.50), 1)
    rel_50 = abs(rempala(100, 0.50, 100).value - exact_50) / exact_50
    assert rel_50 > 1.0


def test_znidaric_closed_forms():
    # one term: N p / (N p + q)**2; the linear correction vanishes so the
    # two-term sum is identical
    for N, p in ((10, 0.5), (25, 0.3)):
        q = 1.0 - p
        b = N * p + q
        one = znidaric(N, p, 1).value
        assert abs(one - N * p / b**2) < 2e-15 * abs(one)
        assert znidaric(N, p, 2).value == one


def test_znidaric_trails_rempala_at_moderate_p():
    exact = exact_inverse_moment(Binomial(10, 0.5), 1)
    for M in (3, 5, 7):
        err_z = abs(znidaric(10, 0.5, M).value - exact)
        err_r = abs(rempala(10, 0.5, M).value - exact)
        assert err_z > err_r, M


def test_znidaric_domain():
    with pytest.raises(DomainError):
        znidaric(10, 0.0, 3)
    with pytest.raises(DomainError):
        znidaric(10, 0.5, 0)


def test_results_carry_method_labels():
    assert stephan(5, 0.5, 3).method == "stephan"
    assert rempala(5, 0.5, 3).method == "rempala"
    assert znidaric(5, 0.5, 3).method == "znidaric"
