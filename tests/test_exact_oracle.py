"""Oracle-layer tests.

Frozen constants were computed independently at 50 decimal digits from
the defining series before the module existed; the module has to land
on them, not the other way round.
"""
import math

import pytest
from hypothesis import given, settings, strategies as st

from invmoments.exact_oracle import (
    Binomial,
    DomainError,
    ExplicitPdf,
    binomial_pdf,
    central_moment_binomial,
    exact_inverse_moment,
    factorial_cumulants_from_pdf,
    poisson_inverse_moment_direct,
    shifted_poisson_moment_direct,
)

# e**(-1) * sum_{i>=1} 1/(i * i!) at 50 digits, rounded to double
F1_AT_1 = 0.48482910699568764
F2_AT_1 = 0.42177343810541403


def test_binomial_pdf_values():
    assert binomial_pdf(1, 0.3, 1) == 0.3
    assert binomial_pdf(2, 0.5, 1) == 0.5
    assert binomial_pdf(5, 0.0, 0) == 1.0
    assert binomial_pdf(5, 1.0, 5) == 1.0
    assert binomial_pdf(5, 0.7, 9) == 0.0
    assert binomial_pdf(5, 0.7, -1) == 0.0


def test_binomial_pdf_domain():
    with pytest.raises(DomainError):
        binomial_pdf(0, 0.5, 0)
    with pytest.raises(DomainError):
        binomial_pdf(5, 1.5, 2)


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=60), st.floats(min_value=0.0, max_value=1.0))
def test_binomial_pdf_sums_to_one(N, p):
    total = math.fsum(binomial_pdf(N, p, k) for k in range(N + 1))
    assert abs(total - 1.0) < 1e-12


def test_binomial_pdf_large_N_stable():
    # log-space path; compare against a mode-relative recursion
    N, p = 10_000, 0.37
    mode = int(N * p)
    v = binomial_pdf(N, p, mode)
    assert 0.0 < v < 1.0
    ratio = binomial_pdf(N, p, mode + 1) / v
    expected = (N - mode) / (mode + 1) * p / (1 - p)
    assert abs(ratio - expected) < 1e-9


@pytest.mark.parametrize("N,p", [(301, 0.3), (1000, 0.02), (5000, 0.77)])
@pytest.mark.parametrize("r", [1, 3])
def test_exact_inverse_moment_large_N_matches_per_k_pdf(N, p, r):
    # the log-space path hoists the (N, p) invariants out of the k loop;
    # the result must equal the plain sum over binomial_pdf bit for bit
    acc = 0.0
    comp = 0.0
    for k in range(1, N + 1):
        t = binomial_pdf(N, p, k) / k**r
        s = acc + t
        comp += (acc - s) + t if abs(acc) >= abs(t) else (t - s) + acc
        acc = s
    assert exact_inverse_moment(Binomial(N, p), r) == acc + comp


def test_exact_inverse_moment_hand_values():
    assert exact_inverse_moment(Binomial(2, 0.5), 1) == 0.625
    assert abs(exact_inverse_moment(Binomial(10, 1.0), 1) - 0.1) < 1e-15


@given(st.floats(min_value=0.01, max_value=1.0))
def test_exact_inverse_moment_single_trial(p):
    assert abs(exact_inverse_moment(Binomial(1, p), 1) - p) < 1e-15


def test_exact_inverse_moment_explicit_pdf():
    pdf = ExplicitPdf((0.25, 0.5, 0.25))
    assert exact_inverse_moment(pdf, 1) == 0.5 + 0.25 / 2
    assert exact_inverse_moment(pdf, 2) == 0.5 + 0.25 / 4


def test_exact_inverse_moment_rejects_bad_order():
    with pytest.raises(DomainError):
        exact_inverse_moment(Binomial(5, 0.5), 0)


def test_explicit_pdf_validation():
    with pytest.raises(DomainError):
        ExplicitPdf((0.5, 0.4))
    with pytest.raises(DomainError):
        ExplicitPdf((1.1, -0.1))
    with pytest.raises(DomainError):
        ExplicitPdf(())
    # NaN compares False with everything, so the checks must fail on it
    with pytest.raises(DomainError):
        ExplicitPdf((0.5, math.nan))
    with pytest.raises(DomainError):
        ExplicitPdf((math.nan,))
    with pytest.raises(DomainError):
        factorial_cumulants_from_pdf((0.25, math.nan, 0.75), 2)


def test_poisson_direct_frozen():
    ov = poisson_inverse_moment_direct(1.0, 1, tol=1e-15)
    assert abs(ov.value - F1_AT_1) < 1e-14
    assert ov.tail_bound < 1e-15
    ov2 = poisson_inverse_moment_direct(1.0, 2, tol=1e-15)
    assert abs(ov2.value - F2_AT_1) < 1e-14
    assert ov2.value < ov.value  # 1/k**2 <= 1/k on k >= 1


def test_poisson_direct_small_mu_leading_behaviour():
    mu = 1e-8
    ov = poisson_inverse_moment_direct(mu, 1, tol=1e-30)
    assert abs(ov.value / (mu * math.exp(-mu)) - 1.0) < 1e-7


def test_poisson_direct_tail_respects_tol():
    loose = poisson_inverse_moment_direct(7.0, 1, tol=1e-6)
    tight = poisson_inverse_moment_direct(7.0, 1, tol=1e-15)
    assert loose.tail_bound < 1e-6
    assert tight.tail_bound < 1e-15
    # positive terms only ever get added, so tighter tol cannot shrink the sum
    assert loose.value <= tight.value
    assert tight.value - loose.value <= loose.tail_bound


def test_poisson_direct_domain():
    with pytest.raises(DomainError):
        poisson_inverse_moment_direct(0.0, 1)
    with pytest.raises(DomainError):
        poisson_inverse_moment_direct(2.0, 0)
    with pytest.raises(DomainError):
        poisson_inverse_moment_direct(2.0, 1, tol=0.0)


def test_shifted_direct_values():
    ov = shifted_poisson_moment_direct(1.0, 1, 1, tol=1e-15)
    assert abs(ov.value - (-math.expm1(-1.0))) < 1e-14
    tiny = shifted_poisson_moment_direct(1e-9, 4, 2, tol=1e-20)
    assert abs(tiny.value - 1.0 / 16.0) < 1e-8


def test_shifted_direct_a_zero_matches_positive_moment():
    for mu in (0.5, 3.0, 11.0):
        a0 = shifted_poisson_moment_direct(mu, 0, 2, tol=1e-14)
        direct = poisson_inverse_moment_direct(mu, 2, tol=1e-14)
        assert a0.value == direct.value


def test_shifted_direct_r_zero():
    assert shifted_poisson_moment_direct(2.0, 3, 0).value == 1.0
    with pytest.raises(DomainError):
        shifted_poisson_moment_direct(2.0, 0, 0)


def test_central_moment_binomial():
    assert central_moment_binomial(10, 0.5, 0) == 1.0
    assert abs(central_moment_binomial(10, 0.5, 1)) < 1e-14
    assert abs(central_moment_binomial(10, 0.5, 2) - 2.5) < 1e-13
    # N = 0 degenerates to the point mass at zero
    assert central_moment_binomial(0, 0.3, 0) == 1.0
    assert central_moment_binomial(0, 0.3, 3) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=1, max_value=8),
)
def test_factorial_cumulants_binomial_closed_form(N, p, j):
    weights = tuple(binomial_pdf(N, p, k) for k in range(N + 1))
    kappas = factorial_cumulants_from_pdf(weights, j)
    expected = -N * math.factorial(j - 1) * (-p) ** j
    # the series inversion cancels heavily for high j (worst observed over
    # this domain is 7e-7 relative); a formula error would miss by orders
    scale = max(abs(expected), 1.0)
    assert abs(kappas[j - 1] - expected) < 1e-5 * scale


def test_factorial_cumulants_poisson_vanish():
    mu = 3.0
    weights = []
    t = math.exp(-mu)
    for k in range(80):
        weights.append(t)
        t *= mu / (k + 1)
    kappas = factorial_cumulants_from_pdf(weights, 5)
    assert abs(kappas[0] - mu) < 1e-10
    for j in range(2, 6):
        assert abs(kappas[j - 1]) < 1e-8, j


def test_factorial_cumulants_degenerate_at_zero():
    assert factorial_cumulants_from_pdf((1.0,), 4) == [0.0, 0.0, 0.0, 0.0]
