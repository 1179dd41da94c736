"""Reference pmfs and Poisson moments in mpmath, independent of the library's walks.

Shared by the oracle tests, the expansion tests and the pin checks past
mu = 700.
"""
import math

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
