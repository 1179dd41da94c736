"""Reference pmfs and Poisson moments in mpmath, independent of the library's walks.

Shared by the oracle tests, the expansion tests and the pin checks past
mu = 700, and the Stirling closed form for shifted Poisson moments that
criterion 08 holds the library's route against, and the plain linear
walk that calibration's certified descent must agree with, and the
per-n y(n) integers the r = 1 kernel once summed row by row.
"""
import math
from functools import cache

import mpmath
from mpmath import mpf


def binomial_pmf(N, k, p):
    """P(K = k) for K ~ Binomial(N, p) at the working precision, with q = 1 - p exact.

    C(N, k) p**k q**(N-k) in mpmath, so the double p enters exactly and
    no rounding of 1 - p does; p = 0 and p = 1 give their atoms.
    """
    P = mpf(p)
    return mpmath.binomial(N, k) * P**k * mpmath.fsub(1, P, exact=True) ** (N - k)


def mode_walk_pmf(mu):
    """{k: pi_mu(k)} at 55 digits for every k with pi_mu(k) at least 1e-50 of the mode's.

    Independent of the library's walks: one log-gamma anchor at the mode,
    with ten digits more for the logs that cancel, then the pmf's ratios
    mu / (k+1) and k / mu in mpmath out to both sides.  For mu > 700 the
    terms left out weigh below 1e-35 of E[1/(Q+a)**r] up to r = 40, and
    so do they at every mu up to 1e7 for a >= 1 and r <= 8.
    """
    k0, pmf = int(mu), {}
    with mpmath.workdps(65 + math.ceil(math.log10(max(mu * math.log(mu), 10.0)))):
        x = mpf(mu)
        peak = mpmath.exp(k0 * mpmath.log(x) - x - mpmath.loggamma(k0 + 1))
    with mpmath.workdps(55):
        cut = peak * mpf(10) ** -50
        for step in (1, -1):
            pi, k = +peak, k0
            while pi >= cut:
                pmf[k] = pi
                pi = pi * x / (k + 1) if step == 1 else pi * k / x
                k += step
                if k < 0:
                    break
    return pmf


def reference_moment(pmf, a, r):
    """E[1/(Q+a)**r], k >= 1 at a = 0, summed from mode_walk_pmf's terms at 55 digits."""
    with mpmath.workdps(55):
        return mpmath.fsum(pi / (k + a) ** r for k, pi in pmf.items() if k + a)


@cache
def shifted_stirling_row(shift, j):
    """Coefficients of x (x - (shift+1)) (x - (shift+2)) ... (x - (shift+j-1)), exactly.

    Entry k is the coefficient of x**k, for k = 0..j; entry 0 is always
    zero.  At shift 0 these are the signed Stirling numbers of the first
    kind.  Built from the row above by the recurrence, one row per j >= 1.
    """
    if j == 1:
        return (0, 1)
    prev = shifted_stirling_row(shift, j - 1) + (0,)
    step = j - 1 + shift
    return (0,) + tuple(prev[k - 1] - step * prev[k] for k in range(1, j + 1))


def shifted_stirling(shift, j, k):
    """Entry k of shifted_stirling_row(shift, j); zero outside 1 <= k <= j."""
    return shifted_stirling_row(shift, j)[k] if 1 <= k <= j else 0


def shifted_closed_form(mu, a, r):
    """E[1/(Q+a)**r] for Q ~ Poisson(mu) and a >= 1, from the Stirling closed form at 55 digits.

    mu**a E[1/(Q+a)**r] = s(a, r) (1 - e**-mu) + sum_{0<k<r} s(a, r-k) E+[1/Q**k]
    + sum_{0<k<a} s_k(a-k, r) mu**k, with s_k the rows shifted by k
    (shifted_stirling) and each E+[1/Q**k] from reference_moment over
    mode_walk_pmf.  The sum loses up to about log10(a!) + mu digits to
    cancellation, and a more per decade of mu below 1, so at 55 digits it
    serves moderate mu and a only, such as criterion 08's grid.
    """
    pmf = mode_walk_pmf(mu)
    with mpmath.workdps(55):
        x = mpf(mu)
        terms = [shifted_stirling(0, a, r) * -mpmath.expm1(-x)]
        terms += [shifted_stirling(0, a, r - k) * reference_moment(pmf, 0, k) for k in range(1, r)]
        terms += [shifted_stirling(k, a - k, r) * x**k for k in range(1, a)]
        return mpmath.fsum(terms) / x**a


def linear_failing_index(fails, start, cap):
    """The M2 walk of calibration, one grid index at a time.

    From a failing start, climb while the next index fails and return
    the last failing one; from a passing start, descend while the
    previous index passes and return the index below the last passing
    one (0 when even index 1 passes).  fails(cap) must be False.
    """
    i = min(max(start, 1), cap)
    if fails(i):
        while i < cap and fails(i + 1):
            i += 1
        return i
    while i > 1 and not fails(i - 1):
        i -= 1
    return i - 1


def _y_integers(mu: float, n_max: int) -> list[tuple[int, int, int]]:
    """(u, v, w) per n = 0 .. n_max with y(n) = (u G + v E0 - w) / u(0).

    y(n) = mu**n G + E0 P_n(mu) - R_n(mu), G = e**(-mu) Er(mu),
    E0 = e**(-mu), P_n = sum_{l=1..n} (l-1)! C(n, l) mu**(n-l) and
    R_n = sum_{l=1..n} (l-1)! mu**(n-l), is mu**n times the n-th
    alternating forward difference of a -> E[1/(Q+a)].  The double mu
    is exactly a / 2**s, so on the common scale u(0) = 2**(s n_max)
    every coefficient is an exact integer; only G and E0 are not.
    """
    a, b = mu.as_integer_ratio()
    t = [a**i * b ** (n_max - i) for i in range(n_max + 1)]  # mu**i u(0)
    ys = []
    for n in range(n_max + 1):
        terms = [math.factorial(l - 1) * t[n - l] for l in range(1, n + 1)]
        ys.append((t[n], sum(math.comb(n, l) * x for l, x in enumerate(terms, 1)), sum(terms)))
    return ys
