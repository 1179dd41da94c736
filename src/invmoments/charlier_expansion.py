"""Expansion polynomials in the backward difference operator.

A discrete distribution with factorial cumulant sequence close to a
Poisson's can be written as a polynomial in the difference operator
applied to the Poisson pdf.  This module builds those polynomials from
cumulants, keeping whole orders of the expansion parameter, specializes
them to the binomial case, applies them to pdfs, and pairs them with
shifted-moment tables to estimate inverse moments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import mpmath

from .exact_oracle import DomainError, _check_mu, _check_walk_mu, _poisson_terms
from .poisson_moments import ShiftedMomentTable, _y_mp_list
from .special_numbers import alpha

__all__ = [
    "ExpansionPolynomial",
    "barbour_polynomial",
    "binomial_cumulants",
    "binomial_barbour_polynomial",
    "expand_pdf",
    "inverse_moment_estimate",
    "first_inverse_moment_binomial",
    "barbour_error_bound",
]


@dataclass(frozen=True)
class ExpansionPolynomial:
    """Polynomial in the backward difference operator.

    ``coefficients`` maps difference degree to coefficient.  Degree 0 is
    always 1 (the Poisson term itself) and degree 1 never appears, since
    the mean is already matched through mu.  Whole orders of the
    expansion parameter are kept, so order m reaches degree 2*(m-1).
    """

    coefficients: dict
    order: int

    def __post_init__(self) -> None:
        if self.order < 1:
            raise DomainError("order must be a positive integer")
        coeffs = {d: c for d, c in self.coefficients.items() if c != 0}
        if coeffs.get(0) != 1:
            raise DomainError("the degree 0 coefficient must be exactly 1")
        if 1 in coeffs:
            raise DomainError("a degree 1 term would re-shift the matched mean")
        bound = max(0, 2 * (self.order - 1))
        if any(d < 0 or d > bound for d in coeffs):
            raise DomainError(f"degrees must lie in [0, {bound}] for order {self.order}")
        object.__setattr__(self, "coefficients", coeffs)

    def coefficient(self, degree: int):
        return self.coefficients.get(degree, 0)

    @property
    def max_degree(self) -> int:
        return max(self.coefficients)


def barbour_polynomial(cumulants, m: int) -> ExpansionPolynomial:
    """Order-m expansion polynomial keeping whole orders of the size parameter.

    ``cumulants`` is any sequence of factorial cumulants kappa(1) ..
    kappa(m), floats or Fractions (which propagate exactly).
    Exponentiates P = sum_{k=2..m} (kappa(k)/k!) * (-nabla)**k, counting
    the k-th cumulant at order k - 1, and drops everything past order
    m - 1.  A degree-d term of P**j has order d - j, and every factor of
    P raises the order, so each power is truncated as it is built.  The
    result reaches difference degree 2*(m-1); a Poisson's cumulants give
    the identity at every order.
    """
    if m < 1:
        raise DomainError("order m must be a positive integer")
    if len(cumulants) < m:
        raise DomainError(
            f"order {m} needs cumulants through {m}, have {len(cumulants)}"
        )
    arg: dict[int, object] = {}
    for k in range(2, m + 1):
        c = cumulants[k - 1] * (-1) ** k
        c = c / math.factorial(k)
        if c != 0:
            arg[k] = c
    coeffs: dict[int, object] = {0: 1}
    power: dict[int, object] = {0: 1}
    for j in range(1, m):
        nxt: dict[int, object] = {}
        for da, ca in power.items():
            for db, cb in arg.items():
                d = da + db
                if d - j <= m - 1:
                    nxt[d] = nxt.get(d, 0) + ca * cb
        power = nxt
        fact = math.factorial(j)
        for d, c in power.items():
            coeffs[d] = coeffs.get(d, 0) + c / fact
    return ExpansionPolynomial(coeffs, m)


def binomial_cumulants(N: int, p, max_j: int) -> tuple:
    """Factorial cumulants -N * (j-1)! * (-p)**j of Binomial(N, p), j = 1..max_j.

    Entries are Fractions when p is a Fraction, keeping polynomial
    construction exact for rational p.
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    if max_j < 1:
        raise DomainError("max_j must be a positive integer")
    if not 0 <= p <= 1:
        raise DomainError("p must lie in [0, 1]")
    return tuple(-N * math.factorial(j - 1) * (-p) ** j for j in range(1, max_j + 1))


def binomial_barbour_polynomial(N: int, mu, m: int) -> ExpansionPolynomial:
    """Binomial expansion polynomial straight from the alpha coefficients.

    coefficient(j + k) accumulates (-1)**j / j! * alpha(k-j, j)
    * mu**(j+k) / N**k over 1 <= j <= k <= m - 1.  Equal, coefficient by
    coefficient, to barbour_polynomial fed the binomial cumulants with
    p = mu / N; the two constructions share no code, which is what makes
    comparing them a real check.
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    if m < 1:
        raise DomainError("order m must be a positive integer")
    if mu < 0:
        raise DomainError("mu must be non-negative")
    coeffs: dict[int, object] = {0: 1}
    for k in range(1, m):
        for j in range(1, k + 1):
            d = j + k
            c = (-1) ** j * alpha(k - j, j) / math.factorial(j)
            coeffs[d] = coeffs.get(d, 0) + c * mu**d / N**k
    return ExpansionPolynomial(coeffs, m)


def expand_pdf(poly: ExpansionPolynomial, mu: float) -> list[float]:
    """Apply the expansion polynomial to the Poisson(mu) pdf.

    Returns the approximating pdf g(k) for k = 0 .. k_max.  Difference
    columns are built by repeated first differences of the previous
    column rather than from the alternating binomial formula, so no
    large cancelling coefficients ever appear.  The pdf is cut at the
    first k past the mode where it drops to 1e-22, then padded by the
    polynomial degree plus four, so the deepest difference column still
    ends on negligible mass: differencing amplifies the boundary value
    by at most 2**degree, far below the 1e-10 mass budget downstream
    consumers check against.
    """
    _check_mu(mu)
    _check_walk_mu(mu)
    dmax = poly.max_degree
    col = [math.exp(-mu)]
    walk = _poisson_terms(mu)
    for k, pi in walk:
        col.append(pi)
        if k > mu and pi <= 1e-22:
            break
    col += (pi for _, pi in islice(walk, dmax + 4))
    k_max = len(col) - 1
    g = list(col)  # degree 0 coefficient is pinned to 1
    for d in range(1, dmax + 1):
        nxt = [col[0]]
        for k in range(1, k_max + 1):
            nxt.append(col[k] - col[k - 1])
        col = nxt
        c = poly.coefficient(d)
        if c:
            cf = float(c)
            for k in range(k_max + 1):
                g[k] += cf * col[k]
    return g


def inverse_moment_estimate(poly: ExpansionPolynomial, q_table: ShiftedMomentTable) -> float:
    """E+[1/K**r] estimate: the polynomial paired with a shifted-moment table.

    Each difference degree d contributes coefficient(d) times the d-th
    alternating forward difference of the table, which the table
    computes once for all its readers.  The pairing is one mpmath.fdot:
    exact products (a Fraction coefficient is first rounded to the
    table's precision), one rounding of their sum, then one to double.
    """
    if poly.max_degree > q_table.A:
        raise IndexError(
            f"polynomial degree {poly.max_degree} exceeds table range A={q_table.A}"
        )
    nus = q_table.differences
    with mpmath.workdps(q_table.dps):
        return float(mpmath.fdot((c, nus[d]) for d, c in poly.coefficients.items()))


def first_inverse_moment_binomial(N: int, p: float, m: int) -> float:
    """Order-m approximation of E+[1/K] for K ~ Binomial(N, p).

    Specializes the expansion to r = 1, where the table differences have
    the closed form y(n) / mu**n; only those y values and the alpha
    coefficients are needed, no table construction.  p = 0 returns 0 by
    continuity (the variate is then 0 with probability one and the
    positive part carries no mass).
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    if m < 1:
        raise DomainError("order m must be a positive integer")
    if not 0 <= p <= 1:
        raise DomainError("p must lie in [0, 1]")
    return _first_inverse_moments(N, p, (m,))[0]


def _first_inverse_moments(N: int, p: float, orders) -> list[float]:
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
    ys, dps = _y_mp_list(N * p, 2 * (top - 1))
    with mpmath.workdps(dps):
        parts = [ys[0]] + [
            mpmath.fdot([alpha(k - j, j) / ((-1) ** j * math.factorial(j))
                         for j in range(1, k + 1)], ys[k + 1:]) / N**k
            for k in range(1, top)
        ]
        return [float(mpmath.fsum(parts[:m])) for m in orders]


def barbour_error_bound(N: int, p: float, m: int) -> float:
    """A priori bound 2**(2m-1) * (1 - e**(-Np)) * p**m on the order-m error.

    Loose in absolute terms and only informative for p below roughly
    1/4; beyond that it exceeds the trivial bound.
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    if m < 1:
        raise DomainError("order m must be a positive integer")
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    return 2.0 ** (2 * m - 1) * (-math.expm1(-N * p)) * p**m
