"""Expansion polynomials in the backward difference operator.

A discrete distribution with factorial cumulant sequence close to a
Poisson's can be written as a polynomial in the difference operator
applied to the Poisson pdf.  This module builds those polynomials from
cumulants (two truncation flavors), specializes them to the binomial
case, applies them to pdfs, and pairs them with shifted-moment tables
to estimate inverse moments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf

from .exact_oracle import DomainError
from .poisson_moments import ShiftedMomentTable, _forward_difference_mp, _y_mp_list
from .special_numbers import alpha

__all__ = [
    "CumulantSequence",
    "ExpansionPolynomial",
    "barbour_polynomial",
    "taylor_polynomial",
    "binomial_factorial_cumulant",
    "binomial_cumulants",
    "binomial_barbour_polynomial",
    "expand_pdf",
    "inverse_moment_estimate",
    "first_inverse_moment_binomial",
    "barbour_error_bound",
]


@dataclass(frozen=True)
class CumulantSequence:
    """Factorial cumulants of a discrete variate.

    ``mu`` is the first cumulant (the mean) and ``higher[i]`` holds
    cumulant i + 2, so a Poisson variate has an empty ``higher``.
    Entries may be floats or Fractions; Fractions propagate exactly
    through polynomial construction.
    """

    mu: object
    higher: tuple = ()

    @property
    def order(self) -> int:
        """Highest cumulant index available."""
        return 1 + len(self.higher)

    def kappa(self, j: int) -> object:
        if j == 1:
            return self.mu
        if 2 <= j <= self.order:
            return self.higher[j - 2]
        raise DomainError(f"cumulant {j} not available (have 1..{self.order})")


@dataclass(frozen=True)
class ExpansionPolynomial:
    """Polynomial in the backward difference operator.

    ``coefficients`` maps difference degree to coefficient.  Degree 0 is
    always 1 (the Poisson term itself) and degree 1 never appears, since
    the mean is already matched through mu.  The ``flavor`` records the
    truncation scheme: "barbour" keeps whole orders of the expansion
    parameter and reaches degree 2*(order-1), "taylor" truncates the
    operator exponential directly and stops at degree order - 1.
    """

    coefficients: dict
    order: int
    flavor: str

    def __post_init__(self) -> None:
        if self.flavor not in ("barbour", "taylor"):
            raise DomainError(f"unknown flavor {self.flavor!r}")
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


def _poly2_mul(a: dict, b: dict, tp_max: int) -> dict:
    """Product of polynomials in (t, nabla), truncated at t**tp_max."""
    out: dict[int, dict[int, object]] = {}
    for ta, pa in a.items():
        for tb, pb in b.items():
            tp = ta + tb
            if tp > tp_max:
                continue
            bucket = out.setdefault(tp, {})
            for da, ca in pa.items():
                for db, cb in pb.items():
                    d = da + db
                    bucket[d] = bucket.get(d, 0) + ca * cb
    return out


def _exp_series(arg: dict, m: int) -> dict:
    """Coefficients of exp(arg) truncated at t**(m-1), evaluated at t = 1.

    ``arg`` maps t-power to {difference degree: coefficient} and must
    have no t**0 component, so the exponential series terminates on its
    own once powers of ``arg`` exceed the truncation order.
    """
    collapsed: dict[int, object] = {0: 1}
    power = {0: {0: 1}}
    for j in range(1, m):
        power = _poly2_mul(power, arg, m - 1)
        if not power:
            break
        fact = math.factorial(j)
        for poly in power.values():
            for d, c in poly.items():
                collapsed[d] = collapsed.get(d, 0) + c / fact
    return collapsed


def barbour_polynomial(cumulants: CumulantSequence, m: int) -> ExpansionPolynomial:
    """Order-m expansion polynomial keeping whole orders of the size parameter.

    Exponentiates sum_{k=2..m} (kappa(k)/k!) * (-nabla)**k with the
    k-th cumulant counted at order k - 1, then truncates past order
    m - 1.  The result reaches difference degree 2*(m-1).  A Poisson
    cumulant sequence (no higher cumulants) returns the identity
    polynomial at every order.
    """
    if m < 1:
        raise DomainError("order m must be a positive integer")
    if cumulants.order < m:
        raise DomainError(
            f"order {m} needs cumulants through {m}, have {cumulants.order}"
        )
    arg: dict[int, dict[int, object]] = {}
    for k in range(2, m + 1):
        c = cumulants.kappa(k) * (-1) ** k
        c = c / math.factorial(k)
        if c != 0:
            arg.setdefault(k - 1, {})[k] = c
    return ExpansionPolynomial(_exp_series(arg, m), m, "barbour")


def taylor_polynomial(cumulants: CumulantSequence, m: int) -> ExpansionPolynomial:
    """Order-m expansion polynomial truncating the operator exponential directly.

    Same exponential as the barbour flavor but with the k-th cumulant
    counted at order k, so the polynomial stops at difference degree
    m - 1.  The two flavors agree on every term they share.
    """
    if m < 1:
        raise DomainError("order m must be a positive integer")
    if m >= 3 and cumulants.order < m - 1:
        raise DomainError(
            f"order {m} needs cumulants through {m - 1}, have {cumulants.order}"
        )
    arg: dict[int, dict[int, object]] = {}
    for k in range(2, m):
        c = cumulants.kappa(k) * (-1) ** k
        c = c / math.factorial(k)
        if c != 0:
            arg.setdefault(k, {})[k] = c
    return ExpansionPolynomial(_exp_series(arg, m), m, "taylor")


def binomial_factorial_cumulant(N: int, p, j: int):
    """j-th factorial cumulant of Binomial(N, p): -N * (j-1)! * (-p)**j.

    Returns a Fraction when p is one, keeping polynomial construction
    exact for rational p.
    """
    if N < 1:
        raise DomainError("N must be a positive integer")
    if j < 1:
        raise DomainError("cumulant index j must be a positive integer")
    if not 0 <= p <= 1:
        raise DomainError("p must lie in [0, 1]")
    return -N * math.factorial(j - 1) * (-p) ** j


def binomial_cumulants(N: int, p, max_j: int) -> CumulantSequence:
    """Cumulant sequence of Binomial(N, p) through index max_j."""
    if max_j < 1:
        raise DomainError("max_j must be a positive integer")
    return CumulantSequence(
        mu=N * p,
        higher=tuple(binomial_factorial_cumulant(N, p, j) for j in range(2, max_j + 1)),
    )


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
    return ExpansionPolynomial(coeffs, m, "barbour")


def _poisson_pdf_array(mu: float, k_max: int) -> list[float]:
    if mu <= 700.0:
        arr = [math.exp(-mu)]
        for k in range(1, k_max + 1):
            arr.append(arr[-1] * mu / k)
        return arr
    log_mu = math.log(mu)
    arr = []
    log_t = -mu
    for k in range(0, k_max + 1):
        if k > 0:
            log_t += log_mu - math.log(k)
        arr.append(math.exp(log_t))
    return arr


def _default_k_max(mu: float, degree: int) -> int:
    # Walk past the mode until the pdf drops below 1e-22, then pad by the
    # polynomial degree so the deepest difference column still ends on
    # negligible mass.  Differencing amplifies the boundary value by at
    # most 2**degree, which keeps the truncation error far below the
    # 1e-10 mass budget downstream consumers check against.
    k = max(1, int(mu) + 1)
    log_t = -mu + k * math.log(mu) - math.lgamma(k + 1)
    cut = math.log(1e-22)
    log_mu = math.log(mu)
    while log_t > cut:
        k += 1
        log_t += log_mu - math.log(k)
    return k + degree + 4


def expand_pdf(poly: ExpansionPolynomial, mu: float, k_max: int | None = None) -> list[float]:
    """Apply the expansion polynomial to the Poisson(mu) pdf.

    Returns the approximating pdf g(k) for k = 0 .. k_max.  Difference
    columns are built by repeated first differences of the previous
    column rather than from the alternating binomial formula, so no
    large cancelling coefficients ever appear.  When ``k_max`` is None a
    length is chosen that keeps the discarded mass negligible.
    """
    if mu <= 0.0:
        raise DomainError("mu must be positive")
    dmax = poly.max_degree
    if k_max is None:
        k_max = _default_k_max(mu, dmax)
    elif k_max < 1:
        raise DomainError("k_max must be a positive integer")
    col = _poisson_pdf_array(mu, k_max)
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


def _to_mpf(c) -> mpf:
    if isinstance(c, Fraction):
        return mpf(c.numerator) / mpf(c.denominator)
    return mpf(c)


def inverse_moment_estimate(poly: ExpansionPolynomial, q_table: ShiftedMomentTable) -> float:
    """E+[1/K**r] estimate: the polynomial paired with a shifted-moment table.

    Each difference degree d contributes coefficient(d) times the d-th
    alternating forward difference of the table.  Accumulation happens
    at the table's working precision because the differences shrink
    rapidly while the cancellation inside them grows.
    """
    if poly.max_degree > q_table.A:
        raise IndexError(
            f"polynomial degree {poly.max_degree} exceeds table range A={q_table.A}"
        )
    with mpmath.workdps(q_table.dps):
        total = mpf(0)
        for d in sorted(poly.coefficients):
            nu = _forward_difference_mp(q_table.values, d)
            total += _to_mpf(poly.coefficient(d)) * nu
        return float(total)


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

    Order m is the running sum over k < m of one series, so a single y
    list, built for the largest order, serves them all.  Arguments are
    the caller's to validate.
    """
    p = float(p)
    if p == 0.0:
        return [0.0] * len(orders)
    top = max(orders)
    ys, dps = _y_mp_list(N * p, 2 * (top - 1))
    with mpmath.workdps(dps):
        total = ys[0]
        by_order = [float(total)]
        for k in range(1, top):
            inner = mpf(0)
            for j in range(1, k + 1):
                a = alpha(k - j, j)
                c = mpf(a.numerator) / mpf(a.denominator) / math.factorial(j)
                term = c * ys[j + k]
                inner += -term if j % 2 else term
            total += inner / mpf(N) ** k
            by_order.append(float(total))
    return [by_order[m - 1] for m in orders]


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
