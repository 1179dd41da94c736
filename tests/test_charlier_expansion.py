"""Tests for the difference-operator expansion around a Poisson base."""
import math
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from _reference import binomial_pmf
from invmoments import charlier_expansion
from invmoments.charlier_expansion import (
    ExpansionPolynomial,
    barbour_error_bound,
    barbour_polynomial,
    binomial_barbour_polynomial,
    binomial_cumulants,
    expand_pdf,
    first_inverse_moment_binomial,
    inverse_moment_estimate,
)
from invmoments.exact_oracle import (
    Binomial,
    DomainError,
    ExplicitPdf,
    exact_inverse_moment,
    factorial_cumulants_from_pdf,
    poisson_inverse_moment_direct,
)
from invmoments.poisson_moments import build_q_table, positive_poisson_inverse_moment


def test_order_one_is_identity():
    poly = barbour_polynomial((2.0,), 1)
    assert poly.coefficients == {0: 1.0}
    assert poly.max_degree == 0


def test_order_three_structure():
    k2, k3 = Fraction(3, 7), Fraction(-2, 5)
    poly = barbour_polynomial((Fraction(1), k2, k3), 3)
    want = {
        0: Fraction(1),
        2: k2 / 2,
        3: -k3 / 6,
        4: k2 * k2 / 8,
    }
    assert poly.coefficients == want


def test_insufficient_cumulants():
    with pytest.raises(DomainError):
        barbour_polynomial((1.0, 0.25), 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_degree_bound(m):
    higher = tuple(Fraction(1, 2 + i) for i in range(max(0, 2 * m - 3)))
    poly = barbour_polynomial((Fraction(1),) + higher, m)
    assert poly.max_degree <= 2 * (m - 1)
    assert poly.coefficient(0) == 1
    assert poly.coefficient(1) == 0


def test_poisson_cumulants_collapse_to_identity():
    # with every higher factorial cumulant zero, every order is the identity
    for m in range(1, 7):
        need = max(0, 2 * m - 3)
        poly = barbour_polynomial((5.0,) + (0.0,) * need, m)
        assert set(poly.coefficients) == {0}


def test_binomial_cumulants_values():
    # kappa_j = -N (j-1)! (-p)**j: alternating, exact in Fraction arithmetic
    p = Fraction(2, 5)
    assert binomial_cumulants(10, p, 4) == (10 * p, -10 * p * p, 20 * p**3, -60 * p**4)
    for bad in ((0, p, 4), (10, p, 0), (10, Fraction(3, 2), 1), (10, -0.1, 1)):
        with pytest.raises(DomainError):
            binomial_cumulants(*bad)


def test_binomial_order_three_coefficients():
    N, p = 12, Fraction(1, 3)
    mu = N * p
    poly = barbour_polynomial(binomial_cumulants(N, p, 4), 3)
    assert poly.coefficient(2) == -(mu**2) / (2 * N)
    assert poly.coefficient(3) == -(mu**3) / (3 * N**2)
    assert poly.coefficient(4) == mu**4 / (8 * N**2)


def _general_method_rel_errors(weights, r):
    """Relative error of the order m = 1..6 estimate built from the pdf alone."""
    exact = exact_inverse_moment(ExplicitPdf(weights), r)
    errs = []
    for m in range(1, 7):
        kappas = factorial_cumulants_from_pdf(weights, m)
        poly = barbour_polynomial(kappas, m)
        table = build_q_table(kappas[0], r, 2 * (m - 1))
        errs.append(abs(1.0 - inverse_moment_estimate(poly, table) / exact))
    return errs


def test_general_method_from_pdf_end_to_end():
    # pdf -> factorial cumulants -> polynomial -> q table -> estimate
    with mpmath.workdps(30):
        binomial = tuple(float(binomial_pmf(20, k, 0.3)) for k in range(21))
    errs = _general_method_rel_errors(binomial, 1)  # 6.5e-2 down to 1.4e-7
    assert all(b < a for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] < 1e-6
    raw = [math.comb(k + 4, k) * 0.6**5 * 0.4**k for k in range(200)]
    total = math.fsum(raw)
    negative_binomial = tuple(w / total for w in raw)
    errs = _general_method_rel_errors(negative_binomial, 1)
    # not monotone here: m = 2 (2.9e-2) is worse than m = 1 (1.3e-2)
    # before the higher orders take over, down to 5.3e-5 at m = 6
    assert errs[5] < errs[0]
    assert errs[5] < 1e-4


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.fractions(min_value=Fraction(1, 100), max_value=1),
    st.integers(min_value=1, max_value=8),
)
def test_binomial_polynomial_two_routes_agree(N, p, m):
    mu = N * p
    via_cumulants = barbour_polynomial(binomial_cumulants(N, p, max(1, m)), m)
    via_alpha = binomial_barbour_polynomial(N, mu, m)
    assert via_cumulants.coefficients == via_alpha.coefficients


def test_expand_pdf_identity_is_poisson():
    poly = ExpansionPolynomial({0: 1.0}, 1)
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
    pmf = [float(binomial_pmf(N, k, p)) for k in range(N + 1)]
    err1 = max(abs(arr1[k] - pmf[k]) for k in range(N + 1))
    err3 = max(abs(arr3[k] - pmf[k]) for k in range(N + 1))
    assert err3 < err1


def test_estimate_with_identity_poly_is_table_head():
    poly = ExpansionPolynomial({0: 1.0}, 1)
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


@pytest.mark.parametrize(
    "N, p, m",
    [
        (10, 0.1, 512),  # p**m underflows to 0; the bound is 5.68e-205
        (10, 0.25, 512),  # p**m = 2**-1024, subnormal
        (10, 0.1, 513),  # 2.27e-205 with 2**(2m-1) past the double range
        (10, 0.25, 513),  # p**m = 2**-1026, subnormal
        (10, 0.5, 600),  # 2.06e180
        (10, 1.0, 600),  # 8.6e360 passes the double range
    ],
)
def test_error_bound_past_the_double_range(N, p, m):
    got = barbour_error_bound(N, p, m)
    if m <= 512 and p**m >= 2.0**-1022:  # the double formula, bit for bit
        assert got == 2.0 ** (2 * m - 1) * (-math.expm1(-N * p)) * p**m
        return
    with mpmath.workdps(30):
        want = float(mpmath.ldexp(-mpmath.expm1(-N * mpmath.mpf(p)) * mpmath.mpf(p) ** m, 2 * m - 1))
    assert got == want if math.isinf(want) else abs(got - want) <= 4e-16 * want, (got, want)


@pytest.mark.parametrize(
    "N, p, m, want",
    [  # 30-digit references; p**m underflows in each, the double formula gave 0.0
        (10, 0.1, 400, 2.10749450479449766e-160),
        (10, 0.1, 512, 5.68179394505730585e-205),
        (10, 0.2, 512, 1.04205605596750329e-50),
        (10, 0.01, 200, 1.22866782837539933e-281),
    ],
)
def test_error_bound_where_p_to_the_m_underflows(N, p, m, want):
    assert abs(barbour_error_bound(N, p, m) - want) <= 4e-16 * want


def test_error_bound_keeps_its_bits_where_p_to_the_m_is_normal():
    # the mpmath route takes only the p**m the double range cannot hold
    seen = 0
    for N in (1, 10, 100, 10**4):
        for p in (0.0, 1e-300, 1e-30, 0.003, 0.1, 0.25, 0.5, 0.99, 1.0):
            for m in (1, 2, 3, 6, 40, 120, 300, 512):
                if p**m >= 2.0**-1022 or p == 0.0:
                    seen += 1
                    want = 2.0 ** (2 * m - 1) * (-math.expm1(-N * p)) * p**m
                    assert barbour_error_bound(N, p, m).hex() == want.hex(), (N, p, m)
    assert seen > 150


class _Built(Exception):
    """Raised by a stand-in for the coefficient build, which the cap lets through."""


def test_order_cap_admits_120_and_refuses_121(monkeypatch):
    # the stand-in keeps the order-120 build (about 2 s cold) out of the test
    def build(top):
        raise _Built(top)

    monkeypatch.setattr(charlier_expansion, "_part_coefficients", build)
    for call in (lambda m: binomial_barbour_polynomial(10, 1.0, m),
                 lambda m: first_inverse_moment_binomial(10, 0.1, m)):
        with pytest.raises(_Built):
            call(charlier_expansion._ORDER_CAP)
        with pytest.raises(DomainError):
            call(charlier_expansion._ORDER_CAP + 1)
    assert charlier_expansion._ORDER_CAP == 120
    with pytest.raises(DomainError):  # refused before the p = 0 shortcut
        first_inverse_moment_binomial(10, 0.0, 121)


# Binomial(10, 0.01)'s factorial cumulants through 171, the last whose
# (j-1)! still converts to a double
_KAPPAS_171 = [-10 * math.factorial(j - 1) * (-0.01) ** j for j in range(1, 172)]


@pytest.mark.parametrize(
    "call",
    [
        lambda: binomial_cumulants(10, 0.5, 172),
        lambda: binomial_cumulants(10, 0.5, 121),
        lambda: barbour_polynomial(_KAPPAS_171, 171),
        lambda: barbour_polynomial(_KAPPAS_171, 121),
    ],
    ids=["cumulants-172", "cumulants-121", "polynomial-171", "polynomial-121"],
)
def test_cumulant_route_refuses_orders_past_the_cap_at_once(call):
    # past 170, (j-1)! and k! have no double, so the cap must refuse
    # before any is formed
    start = time.perf_counter()
    with pytest.raises(DomainError, match="must lie in 1..120"):
        call()
    assert time.perf_counter() - start < 0.1


def test_cumulant_route_admits_order_120():
    assert len(binomial_cumulants(10, 0.5, 120)) == 120
    poisson = barbour_polynomial((2.0,) + (0.0,) * 119, 120)
    assert set(poisson.coefficients) == {0}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_to_the_polynomial_layer_is_domain_error(bad):
    # a NaN or infinite coefficient would reach inverse_moment_estimate
    # and come out as a NaN or infinite estimate
    with pytest.raises(DomainError):
        binomial_barbour_polynomial(10, bad, 3)
    with pytest.raises(DomainError):
        barbour_polynomial((2.0, bad), 2)
    with pytest.raises(DomainError):
        ExpansionPolynomial({0: 1, 2: bad}, 2)


def test_polynomial_validation():
    with pytest.raises(DomainError):
        ExpansionPolynomial({0: 2.0}, 1)
    with pytest.raises(DomainError):
        ExpansionPolynomial({0: 1.0, 1: 0.5}, 2)
    with pytest.raises(DomainError):
        ExpansionPolynomial({0: 1.0, 3: 0.4}, 2)
