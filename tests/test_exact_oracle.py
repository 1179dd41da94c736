"""Oracle-layer tests.

Frozen constants were computed independently at 50 decimal digits from
the defining series before the module existed; the module has to land
on them, not the other way round.
"""
import math
import random
import time

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mpf

from _reference import binomial_pmf, mode_walk_pmf, reference_moment
from invmoments import exact_oracle
from invmoments.charlier_expansion import (
    ExpansionPolynomial,
    barbour_error_bound,
    binomial_barbour_polynomial,
    binomial_cumulants,
    expand_pdf,
    first_inverse_moment_binomial,
)
from invmoments.cli import GridSpec
from invmoments.competing import rempala
from invmoments.exact_oracle import (
    Binomial,
    DomainError,
    ExplicitPdf,
    central_moment_binomial,
    exact_inverse_moment,
    factorial_cumulants_from_pdf,
    poisson_inverse_moment_direct,
    shifted_poisson_moment_direct,
    _binomial_walk,
    _float_powers,
    _log2_jensen,
    _ratio_walk,
)
from invmoments.poisson_moments import (
    CrossoverProfile,
    _ascending_partial,
    _positive_moment_double,
    build_q_table,
    positive_poisson_inverse_moment,
)

# e**(-1) * sum_{i>=1} 1/(i * i!) at 50 digits, rounded to double
F1_AT_1 = 0.48482910699568764
F2_AT_1 = 0.42177343810541403


# mpmath references for the binomial oracle, which walks out from the mode.
# They share nothing with the oracle but the inputs.  Q = 1 - P is exact
# (_reference.binomial_pmf), so no rounding of 1 - p enters them.
REF_DPS = 34
# Relative error of a reference: the anchor pmf is good to about 1e-33,
# each of the up to ~1e4 ratio steps of a run at N = 10**6 adds about
# 1e-34, and each run stops at 1e-32 of its total.
REF_ERR = 1e-25


def _mp_run(N, P, r, k, step):
    """sum of pmf(j) / j**r for j = k, k + step, ... inside 1..N.

    The pmf is log-concave, so the ratio rho of neighbours only falls
    along the run.  Once rho < 1 the rest of the run is below
    pmf(j) * rho / (1 - rho), because 1/j**r <= 1, and the run stops when
    that is 1e-32 of its own total.
    """
    Q = mpmath.fsub(1, P, exact=True)
    total = mpf(0)
    pmf = binomial_pmf(N, k, P)
    while 1 <= k <= N:
        total += pmf / mpf(k) ** r
        rho = (N - k) / mpf(k + 1) * P / Q if step > 0 else k / mpf(N - k + 1) * Q / P
        if rho < 1 and pmf * rho / (1 - rho) <= mpf(10) ** -32 * total:
            break
        pmf *= rho
        k += step
    return total


def _mp_inverse_moment(N, p, r):
    """E+[1/K**r] for K ~ Binomial(N, p) at REF_DPS digits, from the mode out."""
    with mpmath.workdps(REF_DPS):
        P = mpf(p)
        mode = min(N, max(1, math.floor((N + 1) * P)))
        total = _mp_run(N, P, r, mode, 1)
        if mode > 1:
            total += _mp_run(N, P, r, mode - 1, -1)
        return total


def _near_midpoint(want, err=REF_ERR):
    """Whether want lies within a relative err of a point halfway between two doubles."""
    d = float(want)
    with mpmath.workprec(256):
        return any(
            abs(want - (mpf(d) + mpf(e)) / 2) <= err * abs(want)
            for e in (math.nextafter(d, -math.inf), math.nextafter(d, math.inf))
        )


@pytest.mark.parametrize("N,p", [(301, 0.3), (1000, 0.02), (5000, 0.77)])
@pytest.mark.parametrize("r", [1, 3])
def test_exact_inverse_moment_large_N_matches_per_k_pdf(N, p, r):
    # the per-k reference pmf summed from the mode out, correctly rounded
    want = _mp_inverse_moment(N, p, r)
    assert not _near_midpoint(want)
    assert exact_inverse_moment(Binomial(N, p), r) == float(want)


REPORT_GRID = GridSpec().points()[:-1]  # p = 1 sums only its atom


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=math.log(301), max_value=math.log(1e6)).map(
        lambda x: max(301, int(round(math.exp(x))))
    ),
    st.one_of(
        st.integers(1, 999).map(lambda i: i / 1000),  # 1 - p inexact for most p < 0.5
        st.sampled_from(REPORT_GRID),
        st.floats(min_value=math.log(1e-300), max_value=math.log(0.5)).map(math.exp),
        st.floats(min_value=math.log(1e-15), max_value=math.log(0.5)).map(
            lambda x: 1.0 - math.exp(x)
        ),
    ),
    st.integers(1, 8),
)
@example(1000, 0.02, 1)  # the Loader sum was 1.1 ulp off
@example(10**5, 1e-300, 1)  # and 9.9e-14 off: its exponent carries k |log Np|
@example(301, 0.3, 1)
@example(5000, 0.77, 3)
def test_exact_inverse_moment_large_N_against_mpmath(N, p, r):
    # the moment of the binomial with the exact double p, correctly rounded
    want = _mp_inverse_moment(N, p, r)
    assume(not _near_midpoint(want))
    assert exact_inverse_moment(Binomial(N, p), r) == float(want), (N, p, r)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 300),
    st.one_of(
        st.integers(1, 999).map(lambda i: i / 1000),  # 1 - p inexact for most p < 0.5
        st.sampled_from(REPORT_GRID),
        st.floats(min_value=math.log(1e-300), max_value=math.log(0.5)).map(math.exp),
        st.floats(min_value=math.log(1e-15), max_value=math.log(0.5)).map(
            lambda x: 1.0 - math.exp(x)
        ),
    ),
    st.integers(1, 6),
)
@example(10, 0.1, 1)  # the comb sum with q = 1.0 - p was 1 ulp off
@example(100, 0.3, 2)
@example(300, 0.3, 1)  # and 1.7e-14 off here
@example(1, 0.3, 6)
@example(250, 5e-324, 3)  # s N past the exact anchor's bits
def test_exact_inverse_moment_small_N_against_mpmath(N, p, r):
    # up to N = 300 too, the moment of the binomial with the exact double p
    want = _mp_inverse_moment(N, p, r)
    assume(not _near_midpoint(want))
    assert exact_inverse_moment(Binomial(N, p), r) == float(want), (N, p, r)


@pytest.mark.parametrize("N,p,r", [(10, 0.3, 1), (100, 0.002, 2), (300, 0.3, 1), (300, 0.7, 3),
                                   (1000, 0.5, 1), (1000, 0.02, 2), (3000, 1e-3, 1)])
def test_both_anchors_give_the_same_double(N, p, r, monkeypatch):
    # the exact anchor below _EXACT_ANCHOR_BITS and the mpmath one above
    # it bound the same walk, so either gives the correctly rounded moment
    values = []
    for bits in (0, 10**9):
        monkeypatch.setattr(exact_oracle, "_EXACT_ANCHOR_BITS", bits)
        values.append(exact_inverse_moment(Binomial(N, p), r))
    assert values[0] == values[1]


@pytest.mark.parametrize("N,p", [(10, 0.3), (250, 0.1 + 0.2), (4000, 0.5), (10, 5e-324)])
def test_exact_anchor_is_the_scaled_pmf_floored(N, p):
    # floor(2**W pmf(k0)) against a reference far past 2**W
    a, two_s = p.as_integer_ratio()
    k0, W = (N + 1) * a // two_s, 200
    s = two_s.bit_length() - 1
    assert s * N <= exact_oracle._EXACT_ANCHOR_BITS
    anchor = (math.comb(N, k0) * a**k0 * (two_s - a) ** (N - k0) << W) >> (s * N)
    with mpmath.workprec(s * N + W + 64):
        assert anchor == int(mpmath.floor(mpmath.ldexp(binomial_pmf(N, k0, p), W)))


def test_huge_r_walks_no_term_past_the_cut(monkeypatch):
    # only k < 2**ceil((W+1) / r) = 2 is divided at r = 10**6, so the
    # upward side from the mode is not walked at all
    walked, walk = [], exact_oracle._ratio_walk

    def counting(*args):
        lo, terms, F = walk(*args)
        walked.append((args, len(terms)))
        return lo, terms, F

    monkeypatch.setattr(exact_oracle, "_ratio_walk", counting)
    for N, p, r, want in [(10**5, 0.5, 10**6, 0.0), (1000, 0.5, 400, 1000 * 2.0**-1000)]:
        walked.clear()
        assert exact_inverse_moment(Binomial(N, p), r) == want
        (args, n), = walked
        full = walk(*args[:7])[1]  # the same walk without its top
        assert n < len(full) // 2 + 2, (N, n, len(full))


@pytest.mark.parametrize("N,p,r", [(1000, 0.02, 1), (20000, 0.37, 3), (4000, 1e-200, 2)])
def test_exact_inverse_moment_retries_an_undecided_rounding(N, p, r):
    # Ziv's scheme from 2 bits instead of 56: the first
    # walk cannot decide the rounding, and every walk that can, at twice
    # the bits and so a finer scale and a longer walk, lands on the
    # double the oracle returns
    want = exact_inverse_moment(Binomial(N, p), r)
    bits, got = 2, []
    while bits <= 256:
        got.append(_binomial_walk(N, p, r, bits))
        bits *= 2
    assert got[0] is None
    assert set(got) == {None, want}


def test_binomial_walk_rarely_retries(monkeypatch):
    # the left-out tails are bounded from the walk's own edge values, near
    # 2**-(bits + 8 + c) of the pmf's peak, so a rounding stays undecided only
    # where the moment sits within about 2**-60 of a midpoint; with the
    # Bernstein mass of 1e-17 L an earlier window put in the bound
    # instead, 8% of these calls walked twice
    walks = []

    def counting(*args):
        walks.append(args)
        return _binomial_walk(*args)

    monkeypatch.setattr(exact_oracle, "_binomial_walk", counting)
    rng = random.Random(3)
    calls = 400
    for _ in range(calls):
        N = round(10.0 ** rng.uniform(3.0, 5.0))
        p = rng.choice((rng.uniform(0.01, 0.99), rng.randint(1, 999) / 1000))
        exact_inverse_moment(Binomial(N, p), rng.choice((1, 1, 2, 3)))
    assert len(walks) <= calls + 2


@pytest.mark.parametrize("r", [400, 10**4, 10**6])
@pytest.mark.parametrize(
    "N,p,want",
    [
        # P(K = 1) = N p q**(N-1) carries the moment; the other terms weigh
        # less than 2**-r of the total, or everything is below 2**-1075
        (301, 0.5, 301 * 2.0**-301),
        (1000, 0.5, 1000 * 2.0**-1000),
        (10**5, 0.5, 0.0),
        (301, 1e-300, 301 * 1e-300),
        (10**5, 1e-300, 10**5 * 1e-300),
    ],
)
def test_exact_inverse_moment_huge_r(N, p, r, want):
    # the walk forms no float k**r, and no k**r at all past 2**W
    start = time.perf_counter()
    assert exact_inverse_moment(Binomial(N, p), r) == want
    assert time.perf_counter() - start < 1.0


def test_large_N_oracle_reads_no_loader_term(monkeypatch):
    # the exact-ratio walk is the one binomial pmf: Loader's saddle-point
    # pieces are gone, and no N takes a float sum of pmf doubles
    for name in ("binomial_pdf", "_pdf_in_k", "_stirlerr", "_bd0", "_COMB_LIMIT"):
        assert not hasattr(exact_oracle, name), name

    def refuse(*args):
        raise AssertionError("called")

    monkeypatch.setattr(exact_oracle.math, "fsum", refuse)
    for N in (1, 10, 300, 1000):
        assert exact_inverse_moment(Binomial(N, 0.02), 2) > 0.0


@pytest.mark.parametrize(
    "N,p,r", [(1000, 5e-324, 1), (1000, 5e-324, 3), (301, 5e-324, 1), (10**5, 1e-320, 2)]
)
def test_exact_inverse_moment_subnormal_mean(N, p, r):
    # Np below 2**-1024, where k / Np overflows in the deviance: the answer
    # is subnormal, about Np, and comes back within one subnormal step
    got = exact_inverse_moment(Binomial(N, p), r)
    assert got > 0.0
    assert abs(mpf(got) - _mp_inverse_moment(N, p, r)) <= 2.0**-1074


@pytest.mark.parametrize("N,p", [(10**6, 0.5), (10**6, 0.99997), (3000, 0.99997)])
def test_exact_inverse_moment_large_N_fixed_cases(N, p):
    # the log-gamma sum of an earlier oracle was 5.8e-10 off at (10**6, 0.5)
    want = _mp_inverse_moment(N, p, 1)
    assert not _near_midpoint(want)
    assert exact_inverse_moment(Binomial(N, p), 1) == float(want)


def _check_walk(pmf, params, k0, W, stop, support):
    """The bounds _ratio_walk states, against pmf(k) at 40 digits past 2**W.

    params = (n0, n1, d0, d1) gives the step ratio (n0 + n1 k) / (d0 +
    d1 k) out of k upward, and its reciprocal at k - 1 downward.  Every
    T(k) lies within |k - k0| + 1 units below X(k) = 2**W pmf(k); each
    side stops at its first T(k) < stop, and the reference mass it
    leaves out, from that k outward, is at most its geometric tail term;
    F is the floor bounds plus the two tail terms.
    """
    n0, n1, d0, d1 = params
    up = lambda k: (n0 + n1 * k, d0 + d1 * k)
    down = lambda k: (d0 + d1 * (k - 1), n0 + n1 * (k - 1))
    X = lambda k: mpmath.ldexp(pmf(k), W)
    anchor = int(mpmath.floor(X(k0)))
    lo, terms, F = _ratio_walk(anchor, k0, *params, stop)
    hi = lo + len(terms) - 1
    for k, T in enumerate(terms, lo):
        assert T >= stop
        assert X(k) - (abs(k - k0) + 1) <= T <= X(k), k
    floors = sum(abs(k - k0) + 2 for k in range(lo, hi + 1))
    tails = 0
    for edge, step, out in ((hi, up, 1), (lo, down, -1)):
        n, d = step(edge)
        T = terms[edge - lo] * n // d
        k = edge + out
        assert T < stop
        if k not in support:
            continue
        n, d = step(k)
        tail = -(-(T + abs(k - k0) + 1) * d // (d - n))
        left_out = mpf(0)
        while k in support:
            x = X(k)
            left_out += x
            if x < mpf(10) ** -30 * left_out:
                break
            k += out
        assert left_out <= tail, (edge, out)
        tails += tail
    assert F == floors + tails


@pytest.mark.parametrize(
    "N,p,r",
    [(10**5, 0.5, 1), (20000, 0.37, 6), (20000, 0.999, 3), (1000, 1e-6, 3), (301, 0.01, 1)],
)
def test_binomial_walk_within_its_bounds(N, p, r):
    # the binomial ratio (N - k) a / ((k + 1) b) at the scale and stop the
    # oracle sizes for its first 56 bits, from an anchor without error
    a, two_s = p.as_integer_ratio()
    b = two_s - a
    log2_L = exact_oracle._log2_jensen_binomial(N, p, r)
    W, B = exact_oracle._walk_scale(56, log2_L, N * p * (1.0 - p), 1080)
    with mpmath.workdps(math.ceil(W * math.log10(2.0)) + 40):
        P = mpf(p)
        _check_walk(lambda k: binomial_pmf(N, k, P), (N * a, -a, b, b), (N + 1) * a // two_s,
                    W, 1 << B, range(N + 1))


@pytest.mark.parametrize("mu", [1e-3, 0.5, 7.3, 61.0, 1000.0])
@pytest.mark.parametrize("W,stop", [(96, 1), (96, 1 << 20), (200, 1)])
def test_poisson_walk_within_its_bounds(mu, W, stop):
    # the Poisson ratio a / ((k + 1) 2**s), with stop 1 as the q table
    # walks it and with a larger stop too
    a, two_s = mu.as_integer_ratio()
    with mpmath.workdps(math.ceil(W * math.log10(2.0)) + 40):
        x = mpf(mu)
        pmf = lambda k: mpmath.exp(k * mpmath.log(x) - x - mpmath.loggamma(k + 1))
        _check_walk(pmf, (a, 0, two_s, two_s), a // two_s, W, stop, range(10**18))


def test_degenerate_binomial_sums_only_its_atom():
    # p = 0 puts all mass at 0 and p = 1 at N, so no walk over 1..N is needed
    start = time.perf_counter()
    assert exact_inverse_moment(Binomial(10**9, 1.0), 2) == 1e-18
    assert exact_inverse_moment(Binomial(10**9, 0.0), 2) == 0.0
    assert time.perf_counter() - start < 1.0


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


def _explicit_two_routes(weights, r):
    """The explicit-pdf sum as it once ran: plain quotients, or _over_power
    for every term once some k**r overflows."""
    pairs = lambda: zip(range(1, len(weights)), weights[1:])
    try:
        return math.fsum(w / k**r for k, w in pairs())
    except OverflowError:
        return math.fsum(exact_oracle._over_power(w, k, r) for k, w in pairs())


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=400),
)
@example([0.25, 0.5, 0.25], 1024)  # 2**1024 just past the double range
@example([1.0] * 40, 194)  # 39**194 overflows, 38**194 not
def test_explicit_pdf_one_route_keeps_the_two_routes_doubles(raw, r):
    total = math.fsum(raw)
    assume(total > 0.0)
    head = tuple(w / total for w in raw[:-1])
    last = 1.0 - math.fsum(head)
    assume(last >= 0.0)  # rounding can push the remainder below zero
    pdf = ExplicitPdf(head + (last,))
    assert exact_inverse_moment(pdf, r) == _explicit_two_routes(pdf.weights, r)


def test_explicit_pdf_at_a_huge_order_forms_no_huge_power():
    # the k = 2 term rounds to 0.0, so no 10**9-bit 2**(10**9) may be
    # formed for it
    start = time.perf_counter()
    assert exact_inverse_moment(ExplicitPdf((0.25, 0.5, 0.25)), 10**9) == 0.5
    assert time.perf_counter() - start < 0.1


def test_exact_inverse_moment_rounds_the_sum_once():
    # terms 0.5, 2**-54 and 2**-107: the exact sum lies just above the
    # tie between 0.5 and its successor, so it rounds up; a sum that
    # rounds the tie to even on the way and only then adds the last
    # term ends one ulp low, at 0.5
    pdf = ExplicitPdf((0.5, 0.5, 2**-53, 3 * 2**-107))
    assert exact_inverse_moment(pdf, 1).hex() == "0x1.0000000000001p-1"


def test_exact_inverse_moment_rejects_bad_order():
    with pytest.raises(DomainError):
        exact_inverse_moment(Binomial(5, 0.5), 0)


@pytest.mark.parametrize("route", [
    lambda N: first_inverse_moment_binomial(N, 0.5, 3),
    lambda N: exact_inverse_moment(Binomial(N, 0.5), 1),
    lambda N: barbour_error_bound(N, 0.5, 3),
    lambda N: binomial_cumulants(N, 0.5, 3),
    lambda N: rempala(N, 0.5, 3),
], ids=["expansion", "oracle", "a_priori_bound", "cumulants", "rempala"])
def test_an_N_past_the_double_range_is_a_domain_error(route):
    # every route forms the double N p, which overflowed with a bare OverflowError
    with pytest.raises(DomainError, match="double range"):
        route(10**400)
    with pytest.raises(DomainError, match="double range"):
        route(2**1024 - 2**970)  # the least int that rounds past the largest double


def test_an_N_that_rounds_to_the_largest_double_is_accepted():
    assert float(Binomial(2**1024 - 2**970 - 1, 0.5).N) == 1.7976931348623157e308


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


def test_poisson_direct_tol_is_relative():
    # the stop scales tol by a Jensen lower bound of the result, so a value
    # far below tol keeps its digits instead of being cut to nothing
    assert poisson_inverse_moment_direct(1e-300, 1).value == 1e-300
    for mu in (1e-5, 0.37, 150.0):
        for r in (1, 2, 4):
            loose = poisson_inverse_moment_direct(mu, r).value
            tight = poisson_inverse_moment_direct(mu, r, tol=1e-30).value
            assert abs(1.0 - loose / tight) <= 1e-12, (mu, r)
    for a in (1, 3):
        loose = shifted_poisson_moment_direct(150.0, a, 4).value
        tight = shifted_poisson_moment_direct(150.0, a, 4, tol=1e-30).value
        assert abs(1.0 - loose / tight) <= 1e-12, a


@pytest.mark.parametrize("mu", [1e-308, 5e-324])
@pytest.mark.parametrize("r", [1, 2, 6])
def test_direct_walks_end_once_pi_underflows(mu, r):
    # at 5e-324, tol times the bound (about mu) is 0; the walk must still
    # stop once the Poisson term underflows to 0
    if mu == 5e-324:
        assert 1e-12 * 2.0 ** _log2_jensen(mu, r, 0) == 0.0
    for tol in (1e-12, 1e-30):
        assert poisson_inverse_moment_direct(mu, r, tol).value == mu
        assert shifted_poisson_moment_direct(mu, 0, r, tol).value == mu
        assert shifted_poisson_moment_direct(mu, 2, r, tol).value == 2.0**-r


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
    with pytest.raises(DomainError):  # a NaN tol would never stop the walk
        poisson_inverse_moment_direct(2.0, 1, tol=math.nan)
    with pytest.raises(DomainError):
        shifted_poisson_moment_direct(2.0, 1, 1, tol=math.nan)
    for mu in (5.0, 800.0):  # inf times a Jensen bound that underflows to 0 is NaN
        with pytest.raises(DomainError):
            poisson_inverse_moment_direct(mu, 1000, tol=math.inf)
        with pytest.raises(DomainError):
            shifted_poisson_moment_direct(mu, 3, 1000, tol=math.inf)


@pytest.mark.parametrize(
    "call",
    [
        lambda: first_inverse_moment_binomial(10.0, 0.3, 3),
        lambda: exact_inverse_moment(Binomial(1.5, 0.3), 1),
        lambda: binomial_barbour_polynomial(2.5, 1.0, 3),
        lambda: central_moment_binomial(2.5, 0.1, 3),
        lambda: barbour_error_bound(2.5, 0.1, 3),
        lambda: CrossoverProfile(1, 1e-5, math.nan, 10, 10),
        lambda: CrossoverProfile(1, 1e-5, -1.0, 10, 10),
    ],
    ids=["first_inverse_moment", "binomial_oracle", "binomial_barbour", "central_moment",
         "error_bound", "nan_mu_star", "negative_mu_star"],
)
def test_non_integer_N_and_a_bad_mu_star_raise_domain_error(call):
    # a float N reached arithmetic that raised AttributeError or TypeError,
    # or none at all, and a NaN mu_star sent every mu to the large-mu branch
    with pytest.raises(DomainError):
        call()


def test_a_zero_mu_star_is_a_valid_profile():
    assert CrossoverProfile(1, 1e-5, 0.0, 1, 120).mu_star == 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: poisson_inverse_moment_direct(2e8, 1),
        lambda: shifted_poisson_moment_direct(1e9, 1, 1),
        lambda: positive_poisson_inverse_moment(1e300, 1),
        lambda: build_q_table(1e9, 2, 2),
        lambda: expand_pdf(ExpansionPolynomial({0: 1}, 1), 1e9),
    ],
    ids=["direct", "shifted_direct", "ascending", "q_table", "expand_pdf"],
)
def test_unbounded_walks_refuse_huge_mu(call):
    # a walk from k = 1 past mu takes a minute at mu = 1e8, and at 1e300 never ends
    start = time.perf_counter()
    with pytest.raises(DomainError):
        call()
    assert time.perf_counter() - start < 1.0


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


def _poisson_terms(mu):
    """Yield (k, pi_mu(k)) for k = 1, 2, ...: the recurrence of the direct sums up to mu = 700."""
    t = math.exp(-mu)
    k = 0
    while True:
        k += 1
        t *= mu / k
        yield k, t


def _ungated_direct(mu, r, tol):
    """The direct sum of E+[1/Q**r] with its majorant computed at every k >= mu."""
    limit = tol * 2.0 ** _log2_jensen(mu, r, 0)
    terms = []
    for k, pi in _poisson_terms(mu):
        if k >= mu:
            tail = pi * (k + 1) / (k + 1 - mu)
            if tail <= limit:
                return math.fsum(terms).hex(), tail.hex()
        terms.append(pi / k**r)


def _ungated_ascending(mu, r):
    """The oracle-grade ascending series with its majorant at every k >= mu."""
    terms = []
    total = 0.0  # the stop reads the plain running sum
    for k, pi in _poisson_terms(mu):
        terms.append(pi / k**r)
        total += terms[-1]
        if k >= mu and pi * (k + 1) / (k + 1 - mu) <= 1e-17 * total:
            return math.fsum(terms).hex()


# past 700 the direct sums read the integer window (see the reference tests below)
MUS_AROUND_700 = (699.0, 699.9999999999999, 700.0, 700.0000000000001, 701.0, 950.0)
MUS_UP_TO_700 = tuple(mu for mu in MUS_AROUND_700 if mu <= 700.0)
MUS_PAST_700 = tuple(mu for mu in MUS_AROUND_700 if mu > 700.0)


@settings(max_examples=200, deadline=None)
@given(
    mu=st.one_of(
        st.floats(math.log(1e-300), math.log(700.0)).map(lambda x: min(math.exp(x), 700.0)),
        st.sampled_from(MUS_UP_TO_700),
    ),
    r=st.integers(1, 8),
    tol=st.sampled_from([1e-12, 1e-30]),
)
@example(mu=1e-300, r=1, tol=1e-30)
@example(mu=700.0, r=8, tol=1e-12)
def test_gated_stop_tests_equal_ungated_walks(mu, r, tol):
    # the float walk of E+[1/Q**r] tests pi alone before its tail
    # majorant; that must move no stop, so value and tail bound keep
    # every bit (a shift a >= 1 takes the integer walk, tested below)
    want = _ungated_direct(mu, r, tol)
    for got in (shifted_poisson_moment_direct(mu, 0, r, tol),
                poisson_inverse_moment_direct(mu, r, tol)):
        assert (got.value.hex(), got.tail_bound.hex()) == want
    assert _positive_moment_double(mu, r).hex() == _ungated_ascending(mu, r)


@pytest.mark.parametrize("r", [1, 3, 40, 116, 150, 400, 10**5])
def test_float_powers_stop_at_the_double_range(r):
    # each entry is the double that pi / k**r divides by, and the list
    # ends at its size or at the first k**r that does not convert
    for size in (1, 2, 64, 2048):
        powers = _float_powers(r, size)
        assert powers == tuple(float(k**r) for k in range(1, len(powers) + 1))
        assert all(math.isfinite(x) for x in powers)
        if len(powers) < size:
            with pytest.raises(OverflowError):
                float((len(powers) + 1) ** r)


def test_float_walks_ask_for_at_most_2048_powers(monkeypatch):
    # every float walk ends by k = 1942 (mu = 700, where it runs until pi
    # underflows), so no size passes 2048, even for an m1 of a million
    sizes = []

    def recording(r, size):
        sizes.append(size)
        return _float_powers(r, size)

    monkeypatch.setattr(exact_oracle, "_float_powers", recording)
    for mu in (5e-324, 29.2, 350.0, 699.9999999999999, 700.0):
        for r in (1, 116, 400):
            poisson_inverse_moment_direct(mu, r, 1e-300)
            start = time.perf_counter()
            assert _ascending_partial(mu, r, 10**6) == _ascending_partial(mu, r, 1942)
            assert time.perf_counter() - start < 0.1
    assert max(sizes) == 2048


def test_float_power_cache_holds_a_bounded_number_of_pairs():
    # one (r, size) entry per r and walk length, 64 at most
    assert _float_powers.cache_info().maxsize == 64
    for r in range(1, 200):
        poisson_inverse_moment_direct(1.0, r, 1e-12)
    assert _float_powers.cache_info().currsize <= 64


@settings(max_examples=50, deadline=None)
@given(
    mu=st.one_of(
        st.floats(math.log(700.0), math.log(1e7)).map(math.exp).filter(lambda mu: mu > 700.0),
        st.floats(math.log(1e-300), math.log(1e7)).map(math.exp),
        st.sampled_from(MUS_PAST_700 + (1e-300, 1e-5, 0.37, 3.7, 10.9, 25.7, 150.0, 699.5, 700.0)),
    ),
    a=st.one_of(st.integers(0, 6), st.sampled_from([10**4, 10**6])),
    r=st.integers(1, 8),
    tol=st.sampled_from([1e-12, 1e-30]),
)
@example(mu=700.0000000000001, a=0, r=2, tol=1e-30)
@example(mu=701.0, a=3, r=8, tol=1e-12)
@example(mu=950.0, a=0, r=40, tol=1e-18)
@example(mu=1e5, a=0, r=40, tol=1e-18)
@example(mu=1e7, a=6, r=8, tol=1e-30)
@example(mu=1e-300, a=1, r=1, tol=1e-30)
@example(mu=0.37, a=3, r=3, tol=1e-12)
@example(mu=10.9, a=6, r=8, tol=1e-30)
@example(mu=25.7, a=10**4, r=8, tol=1e-12)
@example(mu=150.0, a=3, r=3, tol=1e-14)
@example(mu=1e-300, a=10**6, r=8, tol=1e-30)
def test_direct_sums_past_700_are_the_reference_rounded(mu, a, r, tol):
    # past mu = 700, and for a shift a >= 1 at every mu, the direct
    # oracles are the moment correctly rounded, with the walk's whole
    # error bound at most tol times Jensen's bound
    assume(mu > 700.0 or a)
    want = float(reference_moment(mode_walk_pmf(mu), a, r))
    got = shifted_poisson_moment_direct(mu, a, r, tol)
    assert got.value == want
    assert got.tail_bound <= tol * 2.0 ** _log2_jensen(mu, r, a)
    if a == 0:
        assert poisson_inverse_moment_direct(mu, r, tol) == got
        assert positive_poisson_inverse_moment(mu, r) == want


@pytest.mark.parametrize("mu", [700.5, 800.0])
@pytest.mark.parametrize("a", [0, 1, 3])
def test_direct_sums_past_700_at_huge_r_are_quick_and_rounded(mu, a):
    # the scale's depth is capped at 1080 bits and no floor is taken where
    # j**r > T, so r = 10**5 walks the window of a small r; only k + a <= 3
    # count, and at mu = 700.5 the a = 0, 1 moments are normal doubles
    r, tol = 10**5, 1e-12
    start = time.perf_counter()
    got = shifted_poisson_moment_direct(mu, a, r, tol)
    assert time.perf_counter() - start < 2.0
    with mpmath.workdps(40):
        x = mpf(mu)
        want = mpmath.fsum(mpmath.exp(k * mpmath.log(x) - x - mpmath.loggamma(k + 1))
                           / mpf(k + a) ** r for k in range(a == 0, 4))
    assert got.value == float(want)
    assert math.copysign(1.0, got.value) == 1.0
    assert got.tail_bound <= tol * 2.0 ** _log2_jensen(mu, r, a)


def test_shifted_direct_r_zero():
    assert shifted_poisson_moment_direct(2.0, 3, 0).value == 1.0
    with pytest.raises(DomainError):
        shifted_poisson_moment_direct(2.0, 0, 0)


def test_central_moment_binomial():
    assert central_moment_binomial(10, 0.5, 0) == 1.0
    assert central_moment_binomial(10, 0.5, 1) == 0.0
    assert central_moment_binomial(10, 0.5, 2) == 2.5
    # N = 0 degenerates to the point mass at zero
    assert central_moment_binomial(0, 0.3, 0) == 1.0
    assert central_moment_binomial(0, 0.3, 3) == 0.0
    # Npq and Npq(q - p), with q = 1 - p exact
    assert abs(central_moment_binomial(1000, 0.3, 2) / 210.0 - 1.0) < 1e-15
    assert abs(central_moment_binomial(1000, 0.3, 3) / 84.0 - 1.0) < 1e-13


CENTRAL_PS = (0.5, 0.3, 0.1 + 0.2, 0.007, 0.999, 1e-300, 5e-324, 1.0, 0.0) + tuple(REPORT_GRID[::50])


@pytest.mark.parametrize("N", [0, 1, 9, 99, 300])
@pytest.mark.parametrize("p", CENTRAL_PS)
def test_central_moments_against_60_digit_sums(N, p):
    # every index up to 12 is the 60-digit pmf sum rounded once; the first
    # moment, and the odd ones at p = 0.5, are exactly 0, as the exact
    # integers cancel where the sum leaves a few units of 1e-60
    got = [central_moment_binomial(N, p, i) for i in range(13)]
    with mpmath.workdps(60):
        mean = N * mpf(p)
        pmf = [binomial_pmf(N, k, p) for k in range(N + 1)]
        for i in range(13):
            want = mpmath.fsum(w * (k - mean) ** i for k, w in enumerate(pmf))
            if i == 1 or p == 0.5 and i % 2 or N == 0 and i:
                assert got[i] == 0.0, i
            elif not _near_midpoint(want, 1e-45):
                assert got[i] == float(want), (i, got[i], want)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=1, max_value=8),
)
def test_factorial_cumulants_binomial_closed_form(N, p, j):
    with mpmath.workdps(30):
        weights = tuple(float(binomial_pmf(N, k, p)) for k in range(N + 1))
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


@pytest.mark.parametrize("L,max_j", [(20, 40), (50, 40), (200, 120)])
def test_factorial_cumulants_of_a_point_mass_are_exact(L, max_j):
    # log (1+x)**L = L log(1+x): kappa(n) = L (-1)**(n+1) (n-1)!, also
    # past n = L where every factorial moment is 0; a float recursion
    # was 3.7e15 relative off at (50, 40) and gave 33 inf or nan at 200
    kappas = factorial_cumulants_from_pdf([0.0] * L + [1.0], max_j)
    assert kappas == [float(L * (-1) ** (n + 1) * math.factorial(n - 1))
                      for n in range(1, max_j + 1)]


@pytest.mark.parametrize("top,first", [(200, 101), (400, 93)])
def test_factorial_cumulants_past_the_double_range_raise(top, first):
    # the uniform pdf on {0..top} has kappas that pass the double range
    # below the order cap: the builder raises at the first such one
    with pytest.raises(DomainError, match=f"factorial cumulant {first} "):
        factorial_cumulants_from_pdf([1.0 / (top + 1)] * (top + 1), 120)


def test_factorial_cumulants_stop_at_the_first_kappa_out_of_range():
    # kappa(101) of the uniform pdf on {0..200} is the first past the
    # double range: the builder raises there (about 0.23 s), not after
    # forming every G_n and kappa to 120
    start = time.perf_counter()
    with pytest.raises(DomainError, match="factorial cumulant 101 "):
        factorial_cumulants_from_pdf([1.0 / 201] * 201, 120)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("L,max_j", [(0, 1000), (0, 121), (400, 300), (1031, 500)])
def test_factorial_cumulants_refuse_past_the_cap_at_once(L, max_j):
    # the expansion reads cumulants only up to its order, at most
    # _ORDER_CAP = 120; ((1.0,), 1000) once ran 4.6 s, and (1031, 500)
    # formed every G_n up to kappa(171) before it raised
    start = time.perf_counter()
    with pytest.raises(DomainError, match="max_j must lie in 1..120"):
        factorial_cumulants_from_pdf([0.0] * L + [1.0], max_j)
    assert time.perf_counter() - start < 0.1
