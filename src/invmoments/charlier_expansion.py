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
from fractions import Fraction
from functools import cache, lru_cache, partial
from operator import mul

import mpmath
from mpmath.libmp import to_fixed

from .exact_oracle import (
    DomainError, _check_mu, _check_N, _check_walk_mu, _log2_jensen, _poisson_window,
    _round_once, _ziv,
)
from .poisson_moments import (
    ShiftedMomentTable, _er_from_ei, _q_table, build_q_table,
)
from .special_numbers import _ORDER_CAP, alpha

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
        if any(isinstance(c, float) and not math.isfinite(c) for c in coeffs.values()):
            raise DomainError("coefficients must be finite")
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
    the identity at every order.  Orders past _ORDER_CAP raise
    DomainError at once, as binomial_barbour_polynomial's do.
    """
    if not 1 <= m <= _ORDER_CAP:
        raise DomainError(f"order m must lie in 1..{_ORDER_CAP}")
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
    construction exact for rational p.  max_j past _ORDER_CAP, the most
    an expansion reads, raises DomainError at once, as it does in
    exact_oracle.factorial_cumulants_from_pdf.
    """
    _check_N(N)
    if not 1 <= max_j <= _ORDER_CAP:
        raise DomainError(f"max_j must lie in 1..{_ORDER_CAP}")
    if not 0 <= p <= 1:
        raise DomainError("p must lie in [0, 1]")
    return tuple(-N * math.factorial(j - 1) * (-p) ** j for j in range(1, max_j + 1))


def binomial_barbour_polynomial(N: int, mu, m: int) -> ExpansionPolynomial:
    """Binomial expansion polynomial straight from the alpha coefficients.

    coefficient(d) = mu**d sum_{j+k=d} (-1)**j / j! * alpha(k-j, j)
    / N**k over 1 <= j <= k <= m - 1: the sum per degree first, in
    integers over a common denominator (_order_rows, the rows the
    expansion kernel reads too), then one product with mu**d.  Every
    coefficient is an exact Fraction, since a float mu is taken as
    Fraction(mu), which is exact too.
    Equal, coefficient by coefficient, to barbour_polynomial fed the
    binomial cumulants with p = mu / N; the two constructions share no
    code, which is what makes comparing them a real check.
    """
    _check_N(N)
    if not 1 <= m <= _ORDER_CAP:
        raise DomainError(f"order m must lie in 1..{_ORDER_CAP}")
    if not 0 <= mu < math.inf:
        raise DomainError("mu must be non-negative and finite")
    a, b = Fraction(mu).as_integer_ratio()
    den, (row,) = _order_rows(N, (m,))
    coeffs = {d: Fraction(c * a**d, den * b**d) for d, c in enumerate(row) if d}
    return ExpansionPolynomial({0: 1} | coeffs, m)


def expand_pdf(poly: ExpansionPolynomial, mu: float) -> list[float]:
    """Apply the expansion polynomial to the Poisson(mu) pdf.

    Returns the approximating pdf g(k) for k = 0 .. k_max.  Difference
    columns are built by repeated first differences of the previous
    column rather than from the alternating binomial formula, so no
    large cancelling coefficients ever appear.  The Poisson column is
    the integer window of exact_oracle._poisson_window on the scale
    2**140, each term rounded once, padded by the polynomial degree in
    zeros, so every difference column ends on 0 and sums to 0: the mass
    is the column's, 1 to within 1e-16.  Below the window every column
    is 0, so the columns are taken over the window only and g gets its
    lo leading zeros once, at the end.
    """
    _check_mu(mu)
    _check_walk_mu(mu)
    dmax = poly.max_degree
    lo, terms, _ = _poisson_window(float(mu), 140, 64)
    col = [t / (1 << 140) for t in terms] + [0.0] * dmax
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
    return [0.0] * lo + g


def inverse_moment_estimate(poly: ExpansionPolynomial, q_table: ShiftedMomentTable) -> float:
    """E+[1/K**r] estimate: the polynomial paired with a shifted-moment table.

    Each difference degree d contributes coefficient(d) times the d-th
    alternating forward difference of the table, which the table
    computes once for all its readers.  Every coefficient is taken as an
    exact Fraction (a float is one), so the estimate is one integer
    numerator over L 2**S, L the coefficients' common denominator, and
    errs by at most the sum of |coefficient(d)| L times the d-th
    difference's bound.  The result is the truncated series correctly
    rounded: when both ends of that interval round to one double, that
    double is returned; while they do not, the table is rebuilt at twice
    its precision (_ziv, in _round_table_rows).
    """
    if poly.max_degree > q_table.A:
        raise IndexError(
            f"polynomial degree {poly.max_degree} exceeds table range A={q_table.A}"
        )
    coeffs = [(d, Fraction(c)) for d, c in poly.coefficients.items()]
    L = math.lcm(*(c.denominator for _, c in coeffs))
    row = [(d, c.numerator * (L // c.denominator)) for d, c in coeffs]
    return _round_table_rows([row], L, q_table)[0]


def first_inverse_moment_binomial(N: int, p: float, m: int) -> float:
    """Order-m approximation of E+[1/K] for K ~ Binomial(N, p).

    Specializes the expansion to r = 1, where the table differences have
    the closed form y(n) / mu**n; only those y values and the alpha
    coefficients are needed, no table construction.  p = 0 returns 0 by
    continuity (the variate is then 0 with probability one and the
    positive part carries no mass).  The result is the truncated series
    correctly rounded: the series is (U G + V E0 - W) / D with exact
    integers U, V, W, D, G = e**(-mu) Er(mu) and E0 = e**(-mu) are taken
    to within 2 units of 2**-T, which bounds the error before rounding
    by 2 (|U| + |V|) 2**-T / D, and while that bound leaves the rounding
    undecided, T doubles.  While mu <= T both constants come from one
    exact integer series for e**mu and 2**P Er(mu), with no exp, log or
    Ei; past that from mpmath's Ei (_scaled_g_e0 has the bound).
    """
    _check_N(N)
    if m < 1:
        raise DomainError("order m must be a positive integer")
    if not 0 <= p <= 1:
        raise DomainError("p must lie in [0, 1]")
    return _inverse_moments(N, p, 1, (m,))[0]


@cache
def _part_coefficients(top: int) -> tuple[int, tuple]:
    """(F, c) with c[k-1][j-1] = F (-1)**j alpha(k-j, j) / j! exactly, 1 <= j <= k < top."""
    rows = [[(-1) ** j * alpha(k - j, j) / math.factorial(j) for j in range(1, k + 1)]
            for k in range(1, top)]
    F = math.lcm(1, *(c.denominator for row in rows for c in row))
    return F, tuple(tuple(c.numerator * (F // c.denominator) for c in row) for row in rows)


@lru_cache(maxsize=64)
def _order_rows(N: int, orders: tuple[int, ...]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, rows): orders[i]'s coefficient of y(n) is rows[i][n] / den.

    Order m sums parts k = 0 .. m-1 of one series in y(n) = mu**n
    ((-Delta)**n q)(0): part 0 is y(0) and part k >= 1 is the sum over
    j = 1..k of (-1)**j alpha(k-j, j) / j! y(j+k), over N**k.  With
    (F, c) = _part_coefficients(top), top = max(orders), every
    coefficient is an integer over den = F N**(top-1): rows[i][0] = den
    and rows[i][n] = sum over k < m, j + k = n of c[k-1][j-1]
    N**(top-1-k), for n = 0 .. 2 (m-1).  The rows are tuples, cached
    per (N, orders), which every reader shares.
    """
    top = max(orders)
    F, coefs = _part_coefficients(top)
    den = F * N ** (top - 1)
    row = [den] + [0] * (2 * top - 2)
    prefixes = [row[:1]]
    for k in range(1, top):
        w = N ** (top - 1 - k)
        for j, c in enumerate(coefs[k - 1], 1):
            row[j + k] += c * w
        prefixes.append(row[:2 * k + 1])
    return den, tuple(tuple(prefixes[m - 1]) for m in orders)


def _inverse_moments(N: int, p: float, r: int, orders) -> list[float]:
    """Orders ``orders`` of the expansion of E+[1/K**r], K ~ Binomial(N, p), at once.

    Every order reads one set of integer coefficients (_order_rows) of
    y(n) = mu**n ((-Delta)**n q)(0), n = 0 .. A = 2 (max(orders) - 1),
    and each value is the truncated series correctly rounded.  p = 0
    returns zeros.  Orders past _ORDER_CAP raise DomainError before any
    build; other arguments are the caller's to validate.

    r = 1: y(n) = mu**n G + E0 P_n(mu) - R_n(mu), G = e**(-mu) Er(mu),
    E0 = e**(-mu), P_n = sum_{l=1..n} (l-1)! C(n, l) mu**(n-l) and R_n =
    sum_{l=1..n} (l-1)! mu**(n-l).  So order m, with row c, is (U G + V
    E0 - W) / D for exact integers: the double mu is exactly a / 2**s,
    and on the scale 2**(s A), where mu**n is scale[n] = a**n 2**(s
    (A-n)), U, V and W are sum_n c[n] times scale[n], P_n and R_n, and
    D = den 2**(s A).  With P_0 = R_0 = 0, C(n+1, l) = C(n, l) + C(n,
    l-1) gives P_{n+1} = mu P_n + f_n, f_n = sum_{k<=n} k! C(n, k)
    mu**(n-k) = n! sum_{j<=n} mu**j / j!, so f_0 = 1 and f_{n+1} = (n+1)
    f_n + mu**(n+1); and R_{n+1} = mu R_n + n!.  On the scale, times mu
    is (a x) >> s, exact since P_n and R_n have degree n - 1 < A.
    _rounded_orders rounds them from G and E0 at T bits, taken by one
    integer series while mu <= T (_scaled_g_e0).  The first T is 77 bits
    (the double's 53 and 24 to spare) past the cancellation from
    (|U| + |V|) / D down to the Jensen bound of E+[1/Q] at mu = N p.

    r >= 2: y(n) is mu**n times difference n of build_q_table(mu, r, A),
    an integer nu_n within err_n of 2**S ((-Delta)**n q)(0).  The double
    mu is exactly a / 2**s, so order m, with row R, is sum_n R[n] a**n
    2**(s (A-n)) nu_n over den 2**(s A + S), within sum_n |R[n] a**n
    2**(s (A-n))| err_n: the interval inverse_moment_estimate rounds for
    binomial_barbour_polynomial(N, mu, m) and the same table.

    While any order's rounding is undecided, T doubles, or one table at
    twice the precision serves every order (_ziv).
    """
    orders = tuple(orders)
    if max(orders) > _ORDER_CAP:
        raise DomainError(f"order m must lie in 1..{_ORDER_CAP}")
    p = float(p)
    if p == 0.0:
        return [0.0] * len(orders)
    mu = N * p
    A = 2 * (max(orders) - 1)  # alpha(0, j) = 2**-j, so no row ends in 0
    a, b = mu.as_integer_ratio()
    s = b.bit_length() - 1
    scale = [a**n << s * (A - n) for n in range(A + 1)]
    den, rows = _order_rows(N, orders)
    if r == 1:
        P, R, f, fact = [0], [0], scale[0], scale[0]  # f_n and n! on the scale
        for n in range(A):
            P.append((a * P[n] >> s) + f)
            R.append((a * R[n] >> s) + fact)
            f = (n + 1) * f + scale[n + 1]
            fact *= n + 1
        den <<= s * A
        rows = [[sum(map(mul, row, v)) for v in (scale, P, R)] for row in rows]
        big = max(abs(U) + abs(V) for U, V, _ in rows)
        T = big.bit_length() - den.bit_length() + 77 - math.floor(_log2_jensen(mu, 1, 0))
        return _ziv(partial(_rounded_orders, rows, den, mu), T)
    rows = [[(n, c * scale[n]) for n, c in enumerate(row) if c] for row in rows]
    return _round_table_rows(rows, den << s * A, build_q_table(mu, r, A))


def _round_table_rows(rows, den: int, table: ShiftedMomentTable) -> list[float]:
    """Each row of (n, c) with the table's differences, over den 2**S, correctly rounded.

    The first attempt reads ``table``; while any row is undecided, one
    _q_table at twice the precision serves every row (_ziv, _round_rows).
    """
    def attempt(prec: int) -> list[float] | None:
        t = table if prec == table.prec else _q_table(table.mu, table.r, table.A, prec)
        return _round_rows(rows, t.differences, den << t.S)

    return _ziv(attempt, table.prec)


def _round_rows(rows, terms, den: int) -> list[float] | None:
    """sum_n c x_n / den rounded once per row of (n, c), None if any is undecided.

    terms[n] = (x_n, e_n): the true value is within e_n of x_n, so each
    row's true numerator is within sum_n |c| e_n of its computed one.
    """
    values = []
    for row in rows:
        num = err = 0
        for n, c in row:
            x, e = terms[n]
            num, err = num + c * x, err + abs(c) * e
        if (value := _round_once(num - err, num + err, den)) is None:
            return None
        values.append(value)
    return values


def _rounded_orders(rows, den: int, mu: float, T: int) -> list[float] | None:
    """(U G + V E0 - W) / den rounded once for each row, None if undecided.

    G = e**(-mu) Er(mu) and E0 = e**(-mu) come within 2 units each on
    the scale 2**T (_scaled_g_e0), so a row's exact numerator on that
    scale is within 2 (|U| + |V|) of the computed one (_round_rows).
    """
    g, e0 = _scaled_g_e0(mu, T)
    rows = [((0, U), (1, V), (2, -W)) for U, V, W in rows]
    return _round_rows(rows, ((g, 2), (e0, 2), (1 << T, 0)), den << T)


def _scaled_g_e0(mu: float, T: int) -> tuple[int, int]:
    """(g, e0) within 2 units each of 2**T G and 2**T E0, G = e**(-mu) Er(mu), E0 = e**(-mu).

    While mu <= T, one integer series and two divisions, no exp, log or
    Ei.  The double mu is exactly a / 2**s.  The walk t_0 = 2**P, t_i =
    ((t_{i-1} a) >> s) // i = floor(t_{i-1} mu / i) stops at the first
    t_j = 0 (every later t is 0 too) and gives E = sum_i t_i and R =
    sum_{i>=1} t_i // i; then g = (R << T) // E and e0 = 2**(P+T) // E.
    With tau_i = 2**P mu**i / i!, the terms of E* = 2**P e**mu, and
    delta_i = tau_i - t_i:

    * 0 <= delta_i <= delta_{i-1} mu / i + 1, so delta_i <= sum_{j=1..i}
      mu**(i-j) j! / i! <= sum_{k<i} mu**k / k! < e**mu;
    * for i >= 6 mu, mu**i / i! <= (e mu / i)**i < 2**-i, so t_i = 0
      once also i > P.  Read the walk as going on through zeros, which
      changes neither sum, to the first j >= 2 mu with t_j = 0: then j <=
      max(6 mu, P + 1) <= 6 T + 7 (P + 1 <= 6 T + 7 for T >= 1), so it
      reads at most n = 6 T + 8 indices, and past j each tau at least
      halves, so the tail after j is at most tau_j = delta_j < e**mu;
    * so 0 <= E* - E and 0 <= R* - R, R* = 2**P Er(mu), are each below
      (2n + 2) e**mu = eta E*, eta = (2n + 2) 2**-P (R drops at most 1
      more per floor division by i).

    Then G - eta <= R / E <= G / (1 - eta) <= G + 2 eta and 0 <= 2**P /
    E - E0 <= 2 eta, and P = T + 2 + bit_length(2n + 2) makes 2**T 2 eta
    < 1/2: each floor is within 3/2 of its scaled constant.  The walk
    costs O(mu + T) terms of P bits, so past mu = T the two constants
    come from mpmath at T + 8 bits instead (its Ei turns to its
    asymptotic series near mu = 0.69 T + 36): their few-ulp error is far
    below 2**-T and the floors on the scale 2**T are within 2 units each.
    """
    if mu <= T:
        P = T + 2 + (12 * T + 18).bit_length()  # 2n + 2 = 12 T + 18
        a, b = mu.as_integer_ratio()
        s = b.bit_length() - 1
        t = E = 1 << P
        R = i = 0
        while t:
            i += 1
            t = (t * a >> s) // i
            E += t
            R += t // i
        return (R << T) // E, (1 << P + T) // E
    with mpmath.workprec(T + 8):
        e0 = mpmath.exp(-mpmath.mpf(mu))
        g = e0 * _er_from_ei(mu)
    return to_fixed(g._mpf_, T), to_fixed(e0._mpf_, T)


def barbour_error_bound(N: int, p: float, m: int) -> float:
    """A priori bound 2**(2m-1) * (1 - e**(-Np)) * p**m on the order-m error.

    Loose in absolute terms and only informative for p below roughly
    1/4; beyond that it exceeds the trivial bound.  Past m = 512, or
    where p**m is below the normal range, the product is formed in
    mpmath and rounded once, to inf if need be.
    """
    _check_N(N)
    if m < 1:
        raise DomainError("order m must be a positive integer")
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    e = -math.expm1(-N * p)
    if m <= 512 and (pm := p**m) >= 2.0**-1022:  # 2**(2m-1) and p**m are doubles
        return 2.0 ** (2 * m - 1) * e * pm
    with mpmath.workprec(64):
        return float(mpmath.ldexp(mpmath.mpf(e) * mpmath.mpf(p) ** m, 2 * m - 1))
