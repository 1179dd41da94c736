"""The exact-integer r = 1 kernel: every double against two references.

``_parent_y_mp_list`` and ``_parent_first_inverse_moments`` are verbatim
copies of the mpmath kernel the integer one replaced (one mpmath.fsum
per y(n), one mpmath.fdot per part, at a working precision sized from
mu and the top order).  The integer kernel must give the same doubles.
A second reference evaluates the truncated series from its definition
at 100 digits, with y(n) taken as mu**n times the alternating forward
differences of direct 100-digit sums E[1/(Q+a)], and rounds it once.

The kernel's integers U, V, W, D must equal those of the per-row sums
over _reference._y_integers that it once formed, and its two constants
G and E0 must lie within 2 units of a (2T + 64)-bit mpmath reference.
"""
import math

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf

from _reference import _y_integers
from invmoments import charlier_expansion
from invmoments.charlier_expansion import (
    _inverse_moments, _order_rows, _rounded_orders, _scaled_g_e0,
)
from invmoments.poisson_moments import _er_from_ei
from invmoments.special_numbers import alpha


def _table_dps(mu: float, A: int) -> int:
    # the parent's q-table digit estimate, which its y list reused: an
    # A-fold difference loses about A * log10(2 * mu) digits
    lost = max(0, math.ceil(A * math.log10(2.0 * max(mu, 1.0))))
    return 40 + lost


def _parent_y_mp_list(mu: float, n_max: int) -> tuple[list, int]:
    """y(0) .. y(n_max) as mpmath floats, with their working precision.

    y(n) = mu**n * e**(-mu) * Er(mu)
           + sum_{l=1..n} (l-1)! * (e**(-mu) * C(n, l) - 1) * mu**(n-l),

    which equals mu**n times the n-th alternating forward difference of
    a -> E[1/(Q+a)].  Each y(n) is one mpmath.fsum of its terms, rounded
    once; the terms' own rounding, mostly of e**(-mu) C(n, l) - 1, is
    what the sum's cancellation amplifies, hence the elevated precision.
    Below mu = 1 the order-mu parts of the sum cancel down to mu**n,
    which costs up to n_max digits per decade of mu; those come on top.
    Callers combine the values at the returned precision.
    """
    dps = _table_dps(mu, n_max)
    if mu < 1.0:
        dps += n_max * math.ceil(-math.log10(mu))
    with mpmath.workdps(dps):
        x = mpf(mu)
        expmx = mpmath.exp(-x)
        base = expmx * _er_from_ei(mu)
        xp = [x**j for j in range(n_max + 1)]
        ys = [
            mpmath.fsum([xp[n] * base] + [
                math.factorial(l - 1) * (expmx * math.comb(n, l) - 1) * xp[n - l]
                for l in range(1, n + 1)
            ])
            for n in range(n_max + 1)
        ]
    return ys, dps


def _parent_first_inverse_moments(N: int, p: float, orders) -> list[float]:
    """first_inverse_moment_binomial for every order in ``orders`` at once.

    Order m is the mpmath.fsum of the first m parts of one series, part
    k >= 1 one mpmath.fdot over j of (-1)**j alpha(k-j, j) / j! times
    y(j+k), over N**k.  So a single y list, built for the largest order,
    serves them all.  Arguments are the caller's to validate.
    """
    p = float(p)
    if p == 0.0:
        return [0.0] * len(orders)
    top = max(orders)
    ys, dps = _parent_y_mp_list(N * p, 2 * (top - 1))
    with mpmath.workdps(dps):
        parts = [ys[0]] + [
            mpmath.fdot([alpha(k - j, j) / ((-1) ** j * math.factorial(j))
                         for j in range(1, k + 1)], ys[k + 1:]) / N**k
            for k in range(1, top)
        ]
        return [float(mpmath.fsum(parts[:m])) for m in orders]


_log_uniform_p = st.floats(math.log(1e-300), 0.0).map(lambda x: min(math.exp(x), 1.0))
# decimal p, whose 1 - p does not round exactly
_decimal_p = st.integers(1, 1000).map(lambda i: i / 1000)


@settings(max_examples=160, deadline=None)
@given(
    N=st.integers(1, 10**5),
    p=st.one_of(_log_uniform_p, _decimal_p, st.just(1.0), st.just(5e-324)),
    orders=st.lists(st.integers(1, 8), min_size=1, max_size=10),
)
# the examples of test_first_inverse_moment_tiny_mu
@example(N=10, p=10.0**-41.0, orders=[2])
@example(N=10, p=10.0**-41.0, orders=[3])
@example(N=10, p=10.0**-100.0, orders=[6])
@example(N=10, p=10.0**-301.0, orders=[3])
@example(N=1, p=5e-324, orders=[8, 1, 8, 3])
@example(N=10**5, p=1.0, orders=[8, 2, 5])
# N p just below and just above the first T, where G and E0 leave the
# integer series for mpmath's Ei (T = 84, 89, 94 and 98 for these orders)
@example(N=100, p=0.835, orders=[1])
@example(N=100, p=0.845, orders=[1])
@example(N=100, p=0.885, orders=[2])
@example(N=100, p=0.895, orders=[2])
@example(N=100, p=0.935, orders=[3])
@example(N=100, p=0.945, orders=[3])
@example(N=100, p=0.975, orders=[4, 1])
@example(N=100, p=0.985, orders=[4, 1])
def test_integer_kernel_matches_mpmath_kernel(N, p, orders):
    assert _inverse_moments(N, p, 1, orders) == _parent_first_inverse_moments(N, p, orders)


def _series_at_100_digits(N: int, p: float, top: int) -> list[float]:
    """Orders 1 .. top of the r = 1 series from its definition, rounded once.

    y(n) = mu**n sum_a C(n, a) (-1)**a q(a), q(a) = E[1/(Q+a)] (k >= 1 for
    a = 0) summed directly at 100 digits; the differences cancel about
    n log10(2 mu) digits, far fewer than the 100 carried.
    """
    n_max = 2 * (top - 1)
    with mpmath.workdps(100):
        mu = mpf(N * p)
        pis = [mpmath.exp(-mu)]  # Poisson terms, until past mu they drop below 1e-110
        while len(pis) <= mu or pis[-1] > mpf(10) ** -110:
            pis.append(pis[-1] * mu / len(pis))
        q = [mpmath.fsum(pi / k for k, pi in enumerate(pis) if k)]
        q += [mpmath.fsum(pi / (k + a) for k, pi in enumerate(pis)) for a in range(1, n_max + 1)]
        y = [mu**n * mpmath.fsum((-1) ** a * math.comb(n, a) * q[a] for a in range(n + 1))
             for n in range(n_max + 1)]
        total, out = y[0], [float(y[0])]
        for k in range(1, top):
            for j in range(1, k + 1):
                c = (-1) ** j * alpha(k - j, j) / math.factorial(j)
                total += mpf(c.numerator) / c.denominator * y[j + k] / mpf(N) ** k
            out.append(float(total))
    return out


def test_integer_kernel_is_the_series_correctly_rounded():
    for N in (1, 10, 100, 1000):
        for p in (1e-6, 0.002, 0.05, 0.3, 0.77, 1.0):
            want = _series_at_100_digits(N, p, 8)
            assert _inverse_moments(N, p, 1, (1, 2, 3, 4, 5, 6, 7, 8)) == want, (N, p)


def test_undecided_rounding_retries_at_a_larger_precision(monkeypatch):
    N, p, orders = 10, 0.3, (1, 4, 6)
    want = [_series_at_100_digits(N, p, 6)[m - 1] for m in orders]
    seen = []

    def at_an_eighth(rows, den, mu, T):
        seen.append((rows, den, mu, T))
        return _rounded_orders(rows, den, mu, T // 8)

    monkeypatch.setattr(charlier_expansion, "_rounded_orders", at_an_eighth)
    # an eighth of each T leaves the first rounding undecided; the kernel
    # doubles T until even an eighth of it decides every order
    assert _inverse_moments(N, p, 1, orders) == want
    rows, den, mu, T0 = seen[0]
    assert len(seen) >= 2 and [s[3] for s in seen] == [T0 * 2**i for i in range(len(seen))]
    assert _rounded_orders(rows, den, mu, 12) is None
    assert _rounded_orders(rows, den, mu, T0) == want


def _reference_g_e0(mu: float, T: int) -> tuple[int, int]:
    """floor(2**T G) and floor(2**T E0), G = e**(-mu) Er(mu), E0 = e**(-mu), at 2T + 64 bits.

    Er(mu) is its own series, sum mu**i / (i i!) over i >= 1, summed
    until past 2 mu a term drops below 2**-(2T + 64) of the sum.
    """
    with mpmath.workprec(2 * T + 64):
        x = mpf(mu)
        er, term, i = mpf(0), mpf(1), 0
        while True:
            i += 1
            term = term * x / i
            er += term / i
            if i > 2 * x and term < er * mpf(2) ** -(2 * T + 64):
                break
        e0 = mpmath.exp(-x)
        return int(mpmath.floor(mpmath.ldexp(e0 * er, T))), int(mpmath.floor(mpmath.ldexp(e0, T)))


def _no_ei(*args, **kwargs):
    raise AssertionError("mpmath.ei was called")


@pytest.mark.parametrize("T", [12, 77, 100, 200, 400])
def test_g_and_e0_are_within_two_units(T, monkeypatch):
    decimals = [float(f"{T * f:.3f}") for f in (0.1, 0.37, 0.5, 0.77, 0.999)]
    decimals += [0.002, 0.037, 0.5, 1.3, 2.718, 9.99]
    dyadics = [2.0**-1074, 2.0**-40, 2.0**-20, 0.5, 1.0, 3.25, T / 2, T - 2.0**-10]
    series = [5e-324, 1e-300, 1e-5, *decimals, *dyadics, float(T)]
    monkeypatch.setattr(mpmath, "ei", _no_ei)  # mu <= T takes the series alone
    for mu in series:
        assert 0.0 < mu <= T
        g, e0 = _scaled_g_e0(mu, T)
        want_g, want_e0 = _reference_g_e0(mu, T)
        assert abs(g - want_g) <= 2 and abs(e0 - want_e0) <= 2, (mu, T)
    monkeypatch.undo()
    for mu in (T + 0.001, 1.5 * T, 2.0 * T + 0.37):  # mpmath's Ei past mu = T
        g, e0 = _scaled_g_e0(mu, T)
        want_g, want_e0 = _reference_g_e0(mu, T)
        assert abs(g - want_g) <= 2 and abs(e0 - want_e0) <= 2, (mu, T)


def test_the_kernel_takes_no_ei_while_mu_is_at_most_T(monkeypatch):
    want = _series_at_100_digits(10, 0.3, 6)
    monkeypatch.setattr(mpmath, "ei", _no_ei)
    assert _inverse_moments(10, 0.3, 1, range(1, 7)) == want
    with pytest.raises(AssertionError):  # mu = 84.5 past its T = 84: Ei's route
        _inverse_moments(100, 0.845, 1, [1])


@pytest.mark.parametrize("below,above,orders,T", [
    (0.835, 0.845, [1], 84), (0.885, 0.895, [2], 89),
    (0.935, 0.945, [3], 94), (0.975, 0.985, [4, 1], 98),
])
def test_the_examples_straddle_the_first_T(below, above, orders, T, monkeypatch):
    # the N = 100 examples of test_integer_kernel_matches_mpmath_kernel
    # lie on both sides of the rule mu <= T
    seen = []

    def record(rows, den, mu, T):
        seen.append(T)
        return _rounded_orders(rows, den, mu, T)

    monkeypatch.setattr(charlier_expansion, "_rounded_orders", record)
    for p in (below, above):
        _inverse_moments(100, p, 1, orders)
    assert seen == [T, T] and 100 * below <= T < 100 * above


def _parent_sums(N: int, p: float, orders) -> tuple[int, list[tuple[int, int, int]]]:
    """(D, [(U, V, W), ...]) as the kernel once summed them, row by row over the y(n) integers."""
    mu = N * p
    den, rows = _order_rows(N, tuple(orders))
    A = 2 * (max(orders) - 1)
    ys = _y_integers(mu, A)
    den *= ys[0][0]
    sums = []
    for row in rows:
        U = V = W = 0
        for c, (u, v, w) in zip(row, ys):
            if c:
                U, V, W = U + c * u, V + c * v, W + c * w
        sums.append((U, V, W))
    return den, sums


@pytest.mark.parametrize("N", [1, 10, 100, 10**5])
@pytest.mark.parametrize("orders", [(1, 2, 3, 4, 5, 6), (3,), (1, 8), tuple(range(1, 13)), (20,)])
def test_cached_rows_give_the_per_row_sums(N, orders, monkeypatch):
    seen = []

    def record(rows, den, mu, T):
        seen.append((den, [tuple(row) for row in rows]))
        return [0.0] * len(rows)

    monkeypatch.setattr(charlier_expansion, "_rounded_orders", record)
    for p in (0.001, 0.3, 0.77, 0.999, 1.0, 1e-7, 1e-300, 5e-324):
        seen.clear()
        _inverse_moments(N, p, 1, orders)
        assert seen == [_parent_sums(N, p, orders)], (N, p, orders)
