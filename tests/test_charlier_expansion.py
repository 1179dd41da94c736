"""Tests for the difference-operator expansion around a Poisson base."""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from invmoments.charlier_expansion import (
    CumulantSequence,
    ExpansionPolynomial,
    barbour_error_bound,
    barbour_polynomial,
    binomial_barbour_polynomial,
    binomial_cumulants,
    binomial_factorial_cumulant,
    expand_pdf,
    first_inverse_moment_binomial,
    inverse_moment_estimate,
    taylor_polynomial,
)
from invmoments.exact_oracle import (
    Binomial,
    DomainError,
    binomial_pdf,
    exact_inverse_moment,
    poisson_inverse_moment_direct,
)
from invmoments.poisson_moments import build_q_table, positive_poisson_inverse_moment


def test_order_one_is_identity():
    poly = barbour_polynomial(CumulantSequence(2.0), 1)
    assert poly.coefficients == {0: 1.0}
    assert poly.max_degree == 0


def test_order_three_structure():
    k2, k3 = Fraction(3, 7), Fraction(-2, 5)
    seq = CumulantSequence(Fraction(1), (k2, k3))
    poly = barbour_polynomial(seq, 3)
    want = {
        0: Fraction(1),
        2: k2 / 2,
        3: -k3 / 6,
        4: k2 * k2 / 8,
    }
    assert poly.coefficients == want


def test_insufficient_cumulants():
    with pytest.raises(DomainError):
        barbour_polynomial(CumulantSequence(1.0, (0.25,)), 3)


def test_taylor_low_orders_are_identity():
    seq = CumulantSequence(1.0, (0.5, 0.1, 0.2))
    for m in (1, 2):
        assert taylor_polynomial(seq, m).coefficients == {0: 1.0}


def test_taylor_and_barbour_differ_by_next_cumulant():
    # at matched accuracy the m=5 derivative form minus the m=3 difference
    # form leaves kappa_4 / 24 at degree 4 and nothing below it
    k2, k3, k4 = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
    seq = CumulantSequence(Fraction(2), (k2, k3, k4))
    t5 = taylor_polynomial(seq, 5)
    b3 = barbour_polynomial(seq, 3)
    diff4 = t5.coefficient(4) - b3.coefficient(4)
    assert diff4 == k4 / 24
    for d in (2, 3):
        assert t5.coefficient(d) == b3.coefficient(d)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_degree_bound(m):
    higher = tuple(Fraction(1, 2 + i) for i in range(max(0, 2 * m - 3)))
    seq = CumulantSequence(Fraction(1), higher)
    poly = barbour_polynomial(seq, m)
    assert poly.max_degree <= 2 * (m - 1)
    assert poly.coefficient(0) == 1
    assert poly.coefficient(1) == 0


def test_poisson_cumulants_collapse_to_identity():
    # with every higher factorial cumulant zero, every order is the identity
    for m in range(1, 7):
        need = max(0, 2 * m - 3)
        seq = CumulantSequence(5.0, (0.0,) * need)
        poly = barbour_polynomial(seq, m)
        assert set(poly.coefficients) == {0}


def test_binomial_factorial_cumulants():
    # kappa_j = -N (j-1)! (-p)**j: alternating, exact in Fraction arithmetic
    p = Fraction(2, 5)
    assert binomial_factorial_cumulant(10, p, 1) == 10 * p
    assert binomial_factorial_cumulant(10, p, 2) == -10 * p * p
    assert binomial_factorial_cumulant(10, p, 3) == 20 * p**3
    ks = binomial_cumulants(10, p, 4)
    assert ks.kappa(1) == 10 * p and ks.kappa(4) == -60 * p**4


def test_binomial_order_three_coefficients():
    N, p = 12, Fraction(1, 3)
    mu = N * p
    poly = barbour_polynomial(binomial_cumulants(N, p, 4), 3)
    assert poly.coefficient(2) == -(mu**2) / (2 * N)
    assert poly.coefficient(3) == -(mu**3) / (3 * N**2)
    assert poly.coefficient(4) == mu**4 / (8 * N**2)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.fractions(min_value=Fraction(1, 100), max_value=1),
    st.integers(min_value=1, max_value=6),
)
def test_binomial_polynomial_two_routes_agree(N, p, m):
    mu = N * p
    via_cumulants = barbour_polynomial(binomial_cumulants(N, p, max(1, m)), m)
    via_alpha = binomial_barbour_polynomial(N, mu, m)
    assert via_cumulants.coefficients == via_alpha.coefficients


def test_expand_pdf_identity_is_poisson():
    poly = ExpansionPolynomial({0: 1.0}, 1, "barbour")
    mu = 3.0
    arr = expand_pdf(poly, mu)
    t = math.exp(-mu)
    for k in range(12):
        assert abs(arr[k] - t) < 1e-15
        t *= mu / (k + 1)


def test_expand_pdf_mass_and_accuracy():
    N, p, mu = 10, 0.5, 5.0
    poly1 = binomial_barbour_polynomial(N, mu, 1)
    poly3 = binomial_barbour_polynomial(N, mu, 3)
    arr1 = expand_pdf(poly1, mu)
    arr3 = expand_pdf(poly3, mu)
    assert abs(math.fsum(arr1) - 1.0) < 1e-12
    assert abs(math.fsum(arr3) - 1.0) < 1e-12
    err1 = max(abs(arr1[k] - binomial_pdf(N, p, k)) for k in range(N + 1))
    err3 = max(abs(arr3[k] - binomial_pdf(N, p, k)) for k in range(N + 1))
    assert err3 < err1


def test_estimate_with_identity_poly_is_table_head():
    poly = ExpansionPolynomial({0: 1.0}, 1, "barbour")
    table = build_q_table(4.0, 1, 0)
    got = inverse_moment_estimate(poly, table)
    assert abs(got - table.value(0)) < 1e-16


def test_estimate_degree_exceeds_table():
    poly = binomial_barbour_polynomial(10, 5.0, 3)
    table = build_q_table(5.0, 1, poly.max_degree - 1)
    with pytest.raises(IndexError):
        inverse_moment_estimate(poly, table)


def test_two_route_estimate_sample():
    N, p, m = 10, 0.7, 4
    mu = N * p
    poly = binomial_barbour_polynomial(N, mu, m)
    table = build_q_table(mu, 1, poly.max_degree)
    via_table = inverse_moment_estimate(poly, table)
    via_helper = first_inverse_moment_binomial(N, p, m)
    assert abs(via_table - via_helper) <= 1e-12 * abs(via_helper)


def test_first_inverse_moment_order_one_is_poisson():
    for mu_pair in ((10, 0.5), (100, 0.03)):
        N, p = mu_pair
        got = first_inverse_moment_binomial(N, p, 1)
        want = poisson_inverse_moment_direct(N * p, 1, tol=1e-16).value
        assert abs(got - want) <= 1e-13 * want


def test_first_inverse_moment_converges():
    N, p = 10, 0.5
    exact = exact_inverse_moment(Binomial(N, p), 1)
    errs = [abs(first_inverse_moment_binomial(N, p, m) - exact) for m in (1, 3, 6)]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-4


def test_first_inverse_moment_degenerate_p():
    assert first_inverse_moment_binomial(10, 0.0, 3) == 0.0


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((2, 3, 6)), st.floats(min_value=-300.0, max_value=-6.0))
@example(2, -41.0)
@example(3, -41.0)
@example(6, -100.0)
@example(3, -301.0)
def test_first_inverse_moment_tiny_mu(m, log10_p):
    # the order-mu parts of y(n) cancel down to mu**n, so the working
    # precision has to grow as mu shrinks; the truncation error of
    # order m >= 2 is already below 1e-12 relative for p <= 1e-6
    p = 10.0**log10_p
    exact = exact_inverse_moment(Binomial(10, p), 1)
    got = first_inverse_moment_binomial(10, p, m)
    assert abs(1.0 - got / exact) <= 1e-12, (p, m)


def test_error_bound_formula():
    assert abs(barbour_error_bound(10, 0.1, 2) - 0.050569644706284616) < 1e-17
    for m in (1, 2, 3):
        direct = 2.0 ** (2 * m - 1) * (1 - math.exp(-100 * 0.01)) * 0.01**m
        assert abs(barbour_error_bound(100, 0.01, m) - direct) <= 1e-15 * direct


def test_polynomial_validation():
    with pytest.raises(DomainError):
        ExpansionPolynomial({0: 2.0}, 1, "barbour")
    with pytest.raises(DomainError):
        ExpansionPolynomial({0: 1.0, 1: 0.5}, 2, "barbour")
    with pytest.raises(DomainError):
        ExpansionPolynomial({0: 1.0, 3: 0.4}, 2, "barbour")
    with pytest.raises(DomainError):
        ExpansionPolynomial({0: 1.0}, 1, "pade")
