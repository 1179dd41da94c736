"""Tests for the three classical series the expansion is benchmarked against."""
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from invmoments.competing import (
    _rempala_partial_sums,
    _stephan_partial_sums,
    _znidaric_partial_sums,
    rempala,
    stephan,
    znidaric,
)
from invmoments.exact_oracle import (
    _MOMENT_CAP,
    Binomial,
    DomainError,
    _scaled_central_moments,
    central_moment_binomial,
    exact_inverse_moment,
)


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
        assert abs(got - exact) <= tol * exact, (N, p, M)


def test_stephan_slow_at_half():
    # the series converges like a geometric with ratio near 1 - p, so at
    # p = 0.5 it takes thousands of terms to clear even 1e-6 absolute
    exact = exact_inverse_moment(Binomial(10, 0.5), 1)
    assert abs(stephan(10, 0.5, 12000) - exact) < 1e-6
    assert abs(stephan(10, 0.5, 100) - exact) > 1e-6


def test_stephan_partial_sums_increase():
    vals = [stephan(10, 0.5, M) for M in (1, 2, 3, 5, 8, 13)]
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
    assert abs(rempala(10, 0.5, 1) - 0.2) < 1e-16
    assert rempala(10, 1.0, 7) == 0.1


def test_rempala_truncation_limit():
    with pytest.raises(DomainError):
        rempala(10, 0.5, 11)
    rempala(10, 0.5, 10)


@pytest.mark.parametrize("M", [2, 3])
def test_rempala_overflow_is_domain_error(M):
    # at p = 1e-300 the ratio q/p is 1e300: for M = 3 the i = 2 term
    # overflows, for M = 2 the final division by N p does
    with pytest.raises(DomainError):
        rempala(10, 1e-300, M)


def test_rempala_reads_no_table_of_n_log_factorials():
    # six terms read six binomial coefficients C(N-1, i) from lgamma
    # directly, so N = 10**7 costs neither 10**7 lgamma calls nor a list
    # of 10**7 floats (329 MB); the doubles are the lgamma formula's
    N, p, counts = 10**7, 0.3, (1, 2, 3, 4, 5, 6)
    tracemalloc.start()
    try:
        got = _rempala_partial_sums(N, p, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    log_ratio = math.log(1.0 - p) - math.log(p)
    terms = [math.exp(i * log_ratio - (math.lgamma(N) - math.lgamma(i + 1) - math.lgamma(N - i)))
             for i in range(6)]
    assert got == [math.fsum(terms[:M]) / (N * p) for M in counts]


def test_rempala_error_is_not_monotone():
    # at N = 100, p = 0.5 the optimal truncation is near M = 13; pushing to
    # the full M = N makes the answer worse by sixteen orders of magnitude
    exact = exact_inverse_moment(Binomial(100, 0.5), 1)
    err_13 = abs(rempala(100, 0.5, 13) - exact)
    err_100 = abs(rempala(100, 0.5, 100) - exact)
    assert err_13 < 1e-15
    assert err_100 > 1e-2
    assert err_100 > err_13


def test_rempala_sharp_accuracy_transition():
    # same machinery, N = M = 100: moving p across the ratio q/p = 1
    # boundary flips the series from convergent to useless
    exact_60 = exact_inverse_moment(Binomial(100, 0.60), 1)
    rel_60 = abs(rempala(100, 0.60, 100) - exact_60) / exact_60
    assert rel_60 < 1e-6
    exact_50 = exact_inverse_moment(Binomial(100, 0.50), 1)
    rel_50 = abs(rempala(100, 0.50, 100) - exact_50) / exact_50
    assert rel_50 > 1.0


def test_znidaric_closed_forms():
    # one term: N p / (N p + q)**2; the linear correction vanishes so the
    # two-term sum is identical
    for N, p in ((10, 0.5), (25, 0.3)):
        q = 1.0 - p
        b = N * p + q
        one = znidaric(N, p, 1)
        assert abs(one - N * p / b**2) < 2e-15 * abs(one)
        assert znidaric(N, p, 2) == one


def test_znidaric_trails_rempala_at_moderate_p():
    exact = exact_inverse_moment(Binomial(10, 0.5), 1)
    for M in (3, 5, 7):
        err_z = abs(znidaric(10, 0.5, M) - exact)
        err_r = abs(rempala(10, 0.5, M) - exact)
        assert err_z > err_r, M


def test_znidaric_domain():
    with pytest.raises(DomainError):
        znidaric(10, 0.0, 3)
    with pytest.raises(DomainError):
        znidaric(10, 0.5, 0)


# Reference copies of the per-M series as they stood before the sweep read
# every term count from one walk.  The multi-count functions must return
# the same doubles and raise the same errors.

def _ref_log_comb(n, k):
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _ref_stephan(N, p, M):
    if N < 1:
        raise DomainError("N must be a positive integer")
    if not 0.0 < p <= 1.0:
        raise DomainError("p must lie in (0, 1]")
    if M < 1:
        raise DomainError("term count M must be a positive integer")
    q = 1.0 - p
    if q > 0.0:
        log_p = math.log(p)
        log_q = math.log(q)

    def terms():
        ratio = 1.0
        for i in range(1, M + 1):
            ratio *= i / (N + i)
            if q == 0.0:
                inner = 1.0
            else:
                inner = math.fsum(
                    math.exp(_ref_log_comb(N + i, i + l) + l * log_p + (N - l) * log_q)
                    for l in range(1, N + 1)
                )
            yield ratio / i * inner

    return math.fsum(terms())


def _ref_rempala(N, p, M):
    if N < 1:
        raise DomainError("N must be a positive integer")
    if not 0.0 < p <= 1.0:
        raise DomainError("p must lie in (0, 1]")
    if M < 1:
        raise DomainError("term count M must be a positive integer")
    if M > N:
        raise DomainError(
            f"M={M} exceeds N={N}: C(N-1, i) is zero for i >= N and the "
            "series has no further terms"
        )
    q = 1.0 - p
    if q == 0.0:
        return 1.0 / N
    log_ratio = math.log(q) - math.log(p)
    try:
        total = math.fsum(
            math.exp(i * log_ratio - _ref_log_comb(N - 1, i)) for i in range(M)
        )
    except OverflowError:
        total = math.inf
    value = total / (N * p)
    if value == math.inf:
        raise DomainError(f"the M={M} series overflows double precision at p={p:g}")
    return value


def _stirling2(j):
    """Row j of the Stirling numbers of the second kind, S(j, 0..j)."""
    row = [1]
    for n in range(1, j + 1):
        row = [(m * row[m] if m < n else 0) + (row[m - 1] if m else 0) for m in range(n + 1)]
    return row


def _exact_central_moment(N, p, i):
    """E[(K - Np)**i] as an exact Fraction at the double p, from the raw moments.

    E[K**j] = sum_m S(j, m) N (N-1) ... (N-m+1) p**m, and the binomial
    theorem in (K - Np); no pmf and no recurrence, so it shares nothing
    with the library's route.
    """
    P = Fraction(p)
    raw = [
        sum(S * math.perm(N, m) * P**m for m, S in enumerate(_stirling2(j)))
        for j in range(i + 1)
    ]
    return sum(math.comb(i, j) * (-N * P) ** (i - j) * raw[j] for j in range(i + 1))


def _rounded(value, message):
    """float(value), correctly rounded, or DomainError(message) past the double range."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(message) from None


def _ref_central_moment_binomial(N, p, i):
    if N < 0:
        raise DomainError("N must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    if not 0 <= i <= _MOMENT_CAP:
        raise DomainError(f"moment index i must lie in 0..{_MOMENT_CAP}")
    return _rounded(_exact_central_moment(N, p, i), f"central moment i={i} overflows double precision")


def _ref_znidaric(N, p, M):
    """The M-term series at the exact double p, one Fraction rounded once."""
    if N < 1:
        raise DomainError("N must be a positive integer")
    if not 0.0 < p <= 1.0:
        raise DomainError("p must lie in (0, 1]")
    if M < 1:
        raise DomainError("term count M must be a positive integer")
    P = Fraction(p)
    b = N * P + 1 - P
    total = sum((-1) ** i * (i + 1) * _exact_central_moment(N - 1, p, i) / b**i
                for i in range(M))
    return _rounded(N * P / b**2 * total,
                    f"the M={M} series overflows double precision at p={p:g}")


def _outcome(fn):
    """The values fn returns, or the type and message of what it raises."""
    try:
        return fn()
    except (DomainError, OverflowError) as exc:
        return type(exc), str(exc)


_SERIES = [
    (stephan, _stephan_partial_sums, _ref_stephan),
    (rempala, _rempala_partial_sums, _ref_rempala),
    (znidaric, _znidaric_partial_sums, _ref_znidaric),
]
# N up to 400: the znidaric moments' polynomial coefficients grow with N
_N = st.integers(min_value=1, max_value=400)
_P = st.one_of(
    st.sampled_from([1.0, 1e-300, 5e-324]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
# unsorted, with duplicates; rempala refuses counts above N
_COUNTS = st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6)


@pytest.mark.parametrize("public, multi, ref", _SERIES,
                         ids=[ref.__name__[5:] for _, _, ref in _SERIES])
@settings(max_examples=60, deadline=None)
@given(N=_N, p=_P, counts=_COUNTS)
@example(N=10, p=0.5, counts=[3, 11, 2])  # rempala: M > N
@example(N=10, p=1e-300, counts=[1, 3, 2])  # rempala: M = 3 overflows a term
@example(N=10, p=1e-300, counts=[2, 1])  # rempala: M = 2 overflows the division
@example(N=10, p=1e-300, counts=[1, 12, 3])  # rempala: M > N before the overflow
@example(N=400, p=0.3, counts=[6, 1, 6, 4])
@example(N=1, p=5e-324, counts=[1, 1])
def test_partial_sums_equal_a_call_per_count(public, multi, ref, N, p, counts):
    def per_count():
        return [ref(N, p, M) for M in counts]

    expected = _outcome(per_count)
    assert _outcome(lambda: multi(N, p, counts)) == expected
    assert _outcome(lambda: [public(N, p, M) for M in counts]) == expected


@pytest.mark.parametrize("public, multi, ref", _SERIES,
                         ids=[ref.__name__[5:] for _, _, ref in _SERIES])
@pytest.mark.parametrize("N, p, counts", [
    (0, 0.5, [1]),
    (10, 0.0, [1]),
    (10, 0.5, [2, 0, 3]),
    (10, 0.5, [-1, 2]),
    (3, 0.5, [2, 4, 0]),
])
def test_partial_sums_raise_as_a_call_per_count(public, multi, ref, N, p, counts):
    expected = _outcome(lambda: [ref(N, p, M) for M in counts])
    assert isinstance(expected, tuple) and expected[0] is DomainError
    assert _outcome(lambda: multi(N, p, counts)) == expected


@settings(max_examples=60, deadline=None)
@given(N=st.integers(min_value=0, max_value=400), p=st.one_of(
    st.sampled_from([0.0, 1.0, 1e-300, 5e-324]), st.floats(min_value=0.0, max_value=1.0)),
    indices=st.lists(st.integers(min_value=0, max_value=8), max_size=6))
@example(N=0, p=0.3, indices=[0, 3, 1])
@example(N=350, p=0.2, indices=[1, 1])
def test_central_moments_equal_a_call_per_index(N, p, indices):
    # one build for all indices, as the znidaric series takes them, gives
    # each index's integer; each value is the exact moment rounded once
    a, two_s = p.as_integer_ratio()
    s = two_s.bit_length() - 1
    scaled = _scaled_central_moments(N, a, s, indices)
    assert scaled == {i: _scaled_central_moments(N, a, s, (i,))[i] for i in indices}
    expected = [_ref_central_moment_binomial(N, p, i) for i in indices]
    assert [central_moment_binomial(N, p, i) for i in indices] == expected


def test_central_moments_memory_stays_off_the_pmf_for_one_index():
    # the moments are polynomials in p, so no pmf column of N + 1 terms
    # is held for one index or for several
    N = 20_000

    a, two_s = (0.3).as_integer_ratio()

    def peak(indices):
        tracemalloc.start()
        try:
            _scaled_central_moments(N, a, two_s.bit_length() - 1, indices)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak((4,)) < N
    assert peak((1, 4, 1)) < N
    assert peak(range(6)) < N


def test_central_moment_at_huge_n_costs_milliseconds():
    # the pmf column took seconds at N = 2e6; the polynomial build is
    # independent of N but for its integers' size
    start = time.perf_counter()
    got = central_moment_binomial(2 * 10**6, 0.3, 5)
    assert time.perf_counter() - start < 0.05
    assert got == float(_exact_central_moment(2 * 10**6, 0.3, 5))
    P = Fraction(0.3)  # q = 1 - p exactly, not the double 0.7
    assert central_moment_binomial(2 * 10**6, 0.3, 2) == float(2 * 10**6 * P * (1 - P))


def test_long_series_answer_or_refuse():
    # the float moments raised a bare OverflowError for these; the exact
    # rational is returned where it is finite and refused where it is not
    assert abs(znidaric(100, 0.9, 300) - 0.0111) < 1e-4
    with pytest.raises(DomainError, match="overflows double precision"):
        central_moment_binomial(10, 0.002, 400)
    with pytest.raises(DomainError, match="overflows double precision"):
        znidaric(10, 0.002, 400)


def test_moment_cap_refuses_up_front():
    # the exact build grows like i**3, so indices and counts past the cap
    # are refused before any moment is built
    for call in (lambda: central_moment_binomial(10, 0.3, _MOMENT_CAP + 1),
                 lambda: znidaric(10, 0.3, _MOMENT_CAP + 1),
                 lambda: _znidaric_partial_sums(10, 0.3, [2, 10**9])):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"{_MOMENT_CAP}"):
            call()
        assert time.perf_counter() - start < 0.05


def test_moment_cap_build_stays_near_a_second():
    # a cold build of the capped series, at a tiny p whose 2**s scale
    # makes the integers largest; about 0.7 s on a 2-vCPU machine
    start = time.perf_counter()
    assert 0.0 < znidaric(10, 1e-300, _MOMENT_CAP) < 1e-298
    assert time.perf_counter() - start < 5.0
