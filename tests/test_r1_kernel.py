"""The exact-integer r = 1 kernel: every double against two references.

``_parent_y_mp_list`` and ``_parent_first_inverse_moments`` are verbatim
copies of the mpmath kernel the integer one replaced (one mpmath.fsum
per y(n), one mpmath.fdot per part, at a working precision sized from
mu and the top order).  The integer kernel must give the same doubles.
A second reference evaluates the truncated series from its definition
at 100 digits, with y(n) taken as mu**n times the alternating forward
differences of direct 100-digit sums E[1/(Q+a)], and rounds it once.
"""
import math

import mpmath
from hypothesis import example, given, settings, strategies as st
from mpmath import mpf

from invmoments import charlier_expansion
from invmoments.charlier_expansion import _first_inverse_moments, _rounded_orders
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


@settings(max_examples=120, deadline=None)
@given(
    N=st.integers(1, 10**5),
    p=st.one_of(_log_uniform_p, st.just(1.0), st.just(5e-324)),
    orders=st.lists(st.integers(1, 8), min_size=1, max_size=10),
)
# the examples of test_first_inverse_moment_tiny_mu
@example(N=10, p=10.0**-41.0, orders=[2])
@example(N=10, p=10.0**-41.0, orders=[3])
@example(N=10, p=10.0**-100.0, orders=[6])
@example(N=10, p=10.0**-301.0, orders=[3])
@example(N=1, p=5e-324, orders=[8, 1, 8, 3])
@example(N=10**5, p=1.0, orders=[8, 2, 5])
def test_integer_kernel_matches_mpmath_kernel(N, p, orders):
    assert _first_inverse_moments(N, p, orders) == _parent_first_inverse_moments(N, p, orders)


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
            assert _first_inverse_moments(N, p, (1, 2, 3, 4, 5, 6, 7, 8)) == want, (N, p)


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
    assert _first_inverse_moments(N, p, orders) == want
    rows, den, mu, T0 = seen[0]
    assert len(seen) >= 2 and [s[3] for s in seen] == [T0 * 2**i for i in range(len(seen))]
    assert _rounded_orders(rows, den, mu, 12) is None
    assert _rounded_orders(rows, den, mu, T0) == want
