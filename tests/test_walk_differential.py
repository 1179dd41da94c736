"""Single walks against verbatim copies of the walks they replaced.

The binomial oracle for N > 300 once walked the window of a Bernstein
bound with its own two step loops (_support, _binomial_walk below), and
the q table walked the Poisson pmf with two more (_poisson_window
below).  Both now go through exact_oracle._ratio_walk.  Every binomial
value is correctly rounded either way, so the doubles must be equal;
the Poisson window's (lo, terms, F) must be equal integer for integer.

The oracle-grade E+[1/Q**r] once summed the ascending series to 1e-17
of its running sum, retrying past the double range (_ascending_terms,
_ascending_oracle below); up to mu = 700 it is now the direct sum of
poisson_inverse_moment_direct, whose stop differs, and must give the
same doubles.

The binomial walk once sized its own scale (_mode_binomial_walk below),
and the Poisson window past mu = 700 and the q table another way
(_fixed_scale, _entry_sum, _window_entry, _q_table below), walking to
T = 0.  All three now take exact_oracle._walk_scale and _walk_sum.  The
oracles are correctly rounded and the expansion values are the truncated
series correctly rounded either way, so the doubles must be equal.

expand_pdf once took its difference columns from k = 0 (_expand_pdf
below); it now takes them over the Poisson window only, where every
column below the window is 0, and must give the same doubles.

The float sum of E+[1/Q**r] up to mu = 700 and the ascending partial
once walked in two generators that formed k**r at every term
(_generator_direct_sum, _generator_ascending_terms below).  Both now
read exact_oracle._float_terms, one loop over pi(k) divided by a cached
float(k**r).  The terms are the same doubles and fsum rounds their exact
sum, so every value and tail bound must keep every bit.  That walk once
took every term past the double range by _over_power (_mapped_float_terms
below); it now stops at the first k with r log2 k > 1080, so its terms
must be the copy's up to there and the copy's must be 0.0 after it.
"""
import math
import random

import mpmath
import pytest
from itertools import chain, count, repeat
from operator import floordiv, truediv
from typing import Iterable, Iterator

from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import to_fixed

from invmoments import charlier_expansion, exact_oracle, poisson_moments
from invmoments.charlier_expansion import (
    ExpansionPolynomial,
    _inverse_moments,
    binomial_barbour_polynomial,
    expand_pdf,
)
from invmoments.cli import GridSpec
from invmoments.exact_oracle import (
    _EXACT_ANCHOR_BITS,
    Binomial,
    DomainError,
    OracleValue,
    _check_walk_mu,
    _log2_jensen,
    _float_powers,
    _log2_jensen_binomial,
    _over_power,
    _ratio_walk,
    _round_once,
    _walk_bits,
    exact_inverse_moment,
    shifted_poisson_moment_direct,
)
from invmoments.poisson_moments import ShiftedMomentTable, _ascending_partial

# ---- reference copies, verbatim ---------------------------------------------

# The comb-sum limit the window walk was written under; the oracle now
# walks for every N, but these copies keep it.
_COMB_LIMIT = 300

# The terms that the large-N window leaves out weigh at most this
# fraction of E+[1/K**r].
_WINDOW_REL_MASS = 1e-17


def _log_jensen_binomial(N: int, p: float, r: int) -> float:
    """log of Jensen's lower bound P(K >= 1)**(r+1) / (Np)**r on E+[1/K**r]."""
    return (r + 1) * math.log(-math.expm1(N * math.log1p(-p))) - r * math.log(N * p)


def _support(N: int, p: float, r: int, rel_mass: float = _WINDOW_REL_MASS) -> range:
    """The k >= 1 that exact_inverse_moment sums for Binomial(N, p).

    Nothing for p = 0, only N for p = 1, all of 1..N on the comb path.
    For large N, [max(1, Np - t), min(N, Np + t)]: Bernstein bounds each
    tail beyond it by exp(-t**2 / (2*(Npq + t/3))), 1/k**r <= 1 there,
    and the moment is at least Jensen's L (_log_jensen_binomial).  t
    makes each tail bound rel_mass * L / 2, so the terms left out weigh
    at most rel_mass * L in all.
    """
    if p == 0.0:
        return range(0)
    if p == 1.0:
        return range(N, N + 1)
    if N <= _COMB_LIMIT:
        return range(1, N + 1)
    mean = N * p
    lam = math.log(2.0 / rel_mass) - _log_jensen_binomial(N, p, r)
    t = lam / 3.0 + math.sqrt(lam * lam / 9.0 + 2.0 * lam * mean * (1.0 - p))
    return range(max(1, math.ceil(mean - t)), min(N, math.floor(mean + t)) + 1)


def _binomial_inverse_moment(N: int, p: float, r: int) -> float:
    """E+[1/K**r] for N > 300 and 0 < p < 1, correctly rounded.

    _binomial_walk sums the window of _support in fixed point, first at
    64 bits past the result.  While its rounding is undecided, the bits
    double and the window's left-out mass shrinks by 2**-bits (Ziv's
    scheme).  Arguments are the caller's to validate.
    """
    bits, rel_mass = 64, _WINDOW_REL_MASS
    while (value := _binomial_walk(N, p, r, bits, rel_mass)) is None:
        bits, rel_mass = 2 * bits, rel_mass * 2.0**-bits
    return value


def _edge_tail(v: int, num: int, den: int) -> int:
    """ceil(v den / (den - num)), the sum of v rho**i over i >= 0, rho = num / den < 1.

    It bounds the mass a walk leaves out past an edge where the value is
    at most v and every ratio outward is at most rho.
    """
    return -(-v * den // (den - num))


def _binomial_walk(N: int, p: float, r: int, bits: int, rel_mass: float) -> float | None:
    """sum of pmf(k) / k**r over k >= 1, rounded once; None if undecided.

    The double p is exactly a / 2**s, so q = b / 2**s with b = 2**s - a
    is exact too.  The walk keeps to the window of _support(N, p, r,
    rel_mass), which sizes it.  It starts at the mode k0 = floor((N+1)p),
    which the window holds (its t exceeds 26) unless k0 = 0, taken as 1
    then.  It keeps T(k) ~ 2**W pmf(k) as an integer, stepping up by the
    floor of T (N-k) a / ((k+1) b) and down by the floor of T (k+1) b /
    ((N-k) a).  Every such ratio away from the mode is at most 1, so a
    floor never grows an earlier one: T(k) is within |k - k0| + 1 units
    below 2**W pmf(k) times the anchor's relative error (the anchor's
    floor included) and the floor of T(k) / k**r within |k - k0| + 2
    units.  Terms stop where they provably floor to 0: upward once one
    does (T falls and k**r rises), downward once T is 0, and never for
    k**r at or above 2**(W+1) > T.  So no float and no huge k**r is
    formed, whatever r.

    Error budget.  The anchor pmf(k0) is one mpmath evaluation of
    exp(log C(N, k0) + k0 log p + (N-k0) log q) at max(bits, 64) + g
    bits, where 2**g is 2**8 M and M = (N+1) (3 log(N+1) + |log p| +
    |log q|) bounds the log-gamma and log terms that cancel; 8 bits
    cover mpmath's few-ulp errors in its eight operations.  So the
    anchor is within a relative 2**-bits, and p is exact in it.  W is
    bits past both the summed per-term bounds E_f of the window and the
    larger of Jensen's L and 2**-1080, so a subnormal result keeps bits
    to spare.  The terms each side of the walk leaves out lie from its
    first unsummed k on, where the scaled pmf is at most T(k) + |k - k0|
    + 1 and the pmf ratios outward keep falling, so on that scale they
    weigh at most a geometric tail (_edge_tail) of that value over k**r
    above (over 2**(W+1) past k**r's cut) and of the value itself
    below, as 1/k**r <= 1.  With acc the sum of the floored terms and
    tail the two tails, 2**W times the moment lies in [acc (1 -
    2**-bits), (acc + E_f + tail) (1 + 2**(1-bits))].  Integer true
    division rounds correctly and monotonically, so when both ends
    round to the same double, so does the moment.
    """
    a, two_s = p.as_integer_ratio()
    b = two_s - a
    window = _support(N, p, r, rel_mass)
    lo, hi = window.start, window.stop - 1
    k0 = min(max((N + 1) * a // two_s, lo), hi)
    d_lo, d_hi = k0 - lo, hi - k0
    e_f = (d_lo * (d_lo + 1) + d_hi * (d_hi + 1)) // 2 + 2 * len(window)
    log2_l = _log_jensen_binomial(N, p, r) / math.log(2.0)
    W = bits + e_f.bit_length() + min(math.ceil(-log2_l), 1080)
    M = (N + 1) * (3.0 * math.log(N + 1) - math.log(p) - math.log1p(-p))
    with mpmath.workprec(max(bits, 64) + math.ceil(math.log2(M)) + 8):
        P = mpmath.mpf(p)
        log_pmf = (mpmath.loggamma(N + 1) - mpmath.loggamma(k0 + 1)
                   - mpmath.loggamma(N - k0 + 1) + k0 * mpmath.log(P)
                   + (N - k0) * mpmath.log1p(-P))
        anchor = to_fixed(mpmath.exp(log_pmf)._mpf_, W)
    k_cut = 1 << -(-(W + 1) // r)  # k**r >= 2**(W+1) from here on
    acc, T = 0, anchor
    for k in range(k0, min(hi, k_cut - 1) + 1):
        term = T // k**r
        if not term:
            break
        acc += term
        T = T * ((N - k) * a) // ((k + 1) * b)
    else:
        k = max(k0, min(hi + 1, k_cut))
    # k is the first index summed neither way, T its walk value
    tail = 0
    if k <= N:
        kr = k**r if k < k_cut else 1 << (W + 1)
        tail = _edge_tail(-(-(T + k - k0 + 1) // kr), (N - k) * a, (k + 1) * b)
    T = anchor
    for k in range(k0 - 1, lo - 1, -1):
        T = T * ((k + 1) * b) // ((N - k) * a)
        if not T:
            break
        if k < k_cut:
            acc += T // k**r
    else:
        k = lo - 1
        T = T * (lo * b) // ((N - lo + 1) * a)
    if k:
        tail += _edge_tail(T + k0 - k + 1, k * b, (N - k + 1) * a)
    low = max(0, acc - (acc >> bits) - 1)
    high = acc + e_f + tail
    high += (high >> (bits - 1)) + 1
    den = 1 << W
    value = low / den
    return value if value == high / den else None


def _poisson_window(mu: float, S: int, wp: int) -> tuple[int, list[int], int]:
    """(lo, terms, F): T(k) ~ 2**S pi(k) for k = lo, lo + 1, ..., and a bound F.

    The double mu is exactly a / 2**s.  The walk starts at the mode
    k0 = floor(mu) from T(k0), the floor of X(k0), X(k) = 2**S pi(k)
    (1 + eps) for one mpmath exp(k0 log mu - mu - loggamma(k0 + 1)) at
    wp + g bits; 2**g is 2**8 times the size of the logs that cancel,
    so |eps| <= 2**-wp.  It steps up by T(k+1) = floor(T(k) a / ((k+1)
    2**s)) and down by T(k-1) = floor(T(k) k 2**s / a).  Both ratios,
    mu / (k+1) above the mode and k / mu below it, are at most 1, so a
    floor never grows an earlier one: T(k) lies within |k - k0| + 1
    units below X(k), and a weighted floor floor(T(k) w), w <= 1, within
    |k - k0| + 2 units of X(k) w.  Each side stops at the first k where
    T(k) = 0, below k = 0 at the latest.  Past such an edge the ratios
    keep falling, so the X mass from it on is a geometric tail of at
    most |k - k0| + 1 units (exact_oracle._edge_tail).  F sums the
    floor bounds over the window and both tails.
    """
    a, b = mu.as_integer_ratio()
    s = b.bit_length() - 1
    k0 = a >> s
    logs = 1.0 + mu + k0 * (abs(math.log(mu)) + math.log(k0 + 1))
    with mpmath.workprec(wp + math.ceil(math.log2(logs)) + 8):
        x = mpmath.mpf(mu)
        anchor = to_fixed(mpmath.exp(k0 * mpmath.log(x) - x - mpmath.loggamma(k0 + 1))._mpf_, S)
    up, T, k = [], anchor, k0
    while T:
        up.append(T)
        T = T * a // ((k + 1) << s)
        k += 1
    tail = _edge_tail(k - k0 + 1, a, (k + 1) << s)
    down, T, k = [], anchor, k0
    while k:
        T = (T * k << s) // a
        k -= 1
        if not T:
            tail += _edge_tail(k0 - k + 1, k << s, a)
            break
        down.append(T)
    d_lo, d_hi = len(down), len(up) - 1
    F = (d_lo * (d_lo + 1) + d_hi * (d_hi + 1)) // 2 + 2 * (d_lo + d_hi + 1) + tail
    down.reverse()
    return k0 - d_lo, down + up, F


def _ascending_terms(
    mu: float, r: int, m1: int | None, past_doubles: bool = False
) -> Iterator[float]:
    """The terms pi(k) / k**r of the ascending series for k = 1 .. m1.

    A k**r past the double range raises OverflowError, or with
    past_doubles gives the term by exact_oracle._over_power.

    With m1 None the walk stops once the geometric majorant of the tail,
    pi(k) (k+1) / (k+1-mu) for k >= mu, is at most 1e-17 of the plain
    running sum of the terms.  The rounded majorant is at least pi / 2
    (see exact_oracle._direct_sum), so the cheaper test of pi / 2
    against that limit goes first and drops no stop; that walk refuses
    mu above 1e8.  Up to mu = 700 the walk runs the Poisson recurrence
    itself, one generator step per term instead of two, since these
    walks are most of a calibration.  (Its log-space walk past 700 is
    left out: the oracle reads the integer window there, whose tests
    compare with an mpmath reference instead.)
    """
    if m1 is None:
        _check_walk_mu(mu)
    assert mu <= 700.0
    pi = math.exp(-mu)
    total = 0.0
    for k in count(1) if m1 is None else range(1, m1 + 1):
        pi *= mu / k
        try:
            t = pi / k**r
        except OverflowError:
            if not past_doubles:
                raise
            t = _over_power(pi, k, r)
        yield t
        if m1 is None:
            total += t
            # <=: once pi underflows to 0 at tiny mu, so may 1e-17 * total
            if (
                k >= mu
                and 0.5 * pi <= 1e-17 * total
                and pi * (k + 1) / (k + 1 - mu) <= 1e-17 * total
            ):
                return


def _ascending_oracle(mu: float, r: int) -> float:
    """positive_poisson_inverse_moment(mu, r) without a profile, as it was."""
    try:
        return math.fsum(_ascending_terms(mu, r, None))
    except OverflowError:  # k**r past the double range
        return math.fsum(_ascending_terms(mu, r, None, past_doubles=True))


# The walks before one scale rule: the binomial walk sized W = bits + B +
# c itself, and the Poisson window and q table took _fixed_scale's guard
# loop.  Verbatim, but for the binomial walk's name.

def _mode_binomial_walk(N: int, p: float, r: int, bits: int) -> float | None:
    """sum of pmf(k) / k**r over k >= 1, rounded once; None if undecided.

    The double p is exactly a / 2**s, so q = b / 2**s with b = 2**s - a
    is exact too, and the pmf steps from its mode k0 = floor((N+1) p) by
    the ratio (N a - a k) / (b + b k) (_ratio_walk).  c is -log2 of
    Jensen's L, rounded up and at most 1080, so a subnormal result keeps
    bits to spare.  The scale is W = bits + B + c, B = _walk_bits(bits +
    c + 1, Npq), and the walk stops below 2**B, near 2**-(bits + c) of
    the pmf's peak.  While s N <= _EXACT_ANCHOR_BITS the anchor is the
    exact floor of 2**W C(N, k0) a**k0 b**(N-k0) / 2**(s N).  Past that
    it is one mpmath exp(log C(N, k0) + k0 log p + (N-k0) log q) at
    max(bits, 64) + g bits, 2**g = 2**8 M, where M = (N+1) (3 log(N+1) +
    |log p| + |log q|) bounds the terms that cancel and 8 bits cover
    mpmath's few-ulp errors in its eight operations: a relative 2**-bits.
    From k = 2**ceil((W+1) / r) on, k**r >= 2**(W+1) > T, so the upward
    walk stops there (its top) and no huge k**r is formed.  With acc the
    sum of the floors over k >= 1, 2**W times the moment lies in [acc (1
    - 2**-bits), (acc + F) (1 + 2**(1-bits))] (_round_once), whichever
    the anchor.
    """
    a, two_s = p.as_integer_ratio()
    b = two_s - a
    sN = (two_s.bit_length() - 1) * N
    k0 = (N + 1) * a // two_s
    c = min(math.ceil(-_log2_jensen_binomial(N, p, r)), 1080)
    B = _walk_bits(bits + c + 1, N * p * (1.0 - p))
    W = bits + B + c
    if sN <= _EXACT_ANCHOR_BITS:
        anchor = (math.comb(N, k0) * a**k0 * b ** (N - k0) << W) >> sN
    else:
        M = (N + 1) * (3.0 * math.log(N + 1) - math.log(p) - math.log1p(-p))
        with mpmath.workprec(max(bits, 64) + math.ceil(math.log2(M)) + 8):
            P = mpmath.mpf(p)
            log_pmf = (mpmath.loggamma(N + 1) - mpmath.loggamma(k0 + 1)
                       - mpmath.loggamma(N - k0 + 1) + k0 * mpmath.log(P)
                       + (N - k0) * mpmath.log1p(-P))
            anchor = to_fixed(mpmath.exp(log_pmf)._mpf_, W)
    k_cut = 1 << -(-(W + 1) // r)
    # past N + 1 the walk has already stopped, and islice takes no 2**(W+1)
    lo, terms, F = _ratio_walk(anchor, k0, N * a, -a, b, b, 1 << B, min(k_cut, N + 2))
    k1, k2 = max(lo, 1), min(lo + len(terms), k_cut)
    acc = sum(map(floordiv, terms[k1 - lo:k2 - lo], map(pow, range(k1, k2), repeat(r))))
    low = max(0, acc - (acc >> bits) - 1)
    high = acc + F
    return _round_once(low, high + (high >> (bits - 1)) + 1, 1 << W)


def _mode_binomial_moment(N: int, p: float, r: int) -> float:
    """exact_inverse_moment(Binomial(N, p), r) for 0 < p < 1 on that walk."""
    bits = 64
    while (value := _mode_binomial_walk(N, p, r, bits)) is None:
        bits *= 2
    return value


def _fixed_scale(mu: float, r: int, A: int, prec: int, depth: float = math.inf) -> tuple[int, int]:
    """(S, wp): the fixed-point scale 2**S and the anchor's precision.

    S puts the smallest entry at wp + 2 bits or more, by Jensen's lower
    bound: 1/(mu+A)**r for a >= 1, P(Q >= 1)**(r+1) / mu**r for a = 0,
    or by 2**-depth if that is larger.  With wp = prec + guard and the
    guard 4 bits past a bound on the window's F, each entry's bound
    (_entry_sum) is then 2**-(prec-2) of it or of 2**-depth, whichever
    is larger.  T(k) >= 1 puts pi(k) at 2**-(S+1) or more, so the bound
    is _walk_bits(S + 1, mu).  S depends on the guard, so the guard
    grows until it covers that bound at its own S.
    """
    low = max(math.floor(min(_log2_jensen(mu, r, 0), _log2_jensen(mu, r, A))), -depth)
    guard = 8
    while True:
        need = _walk_bits(prec + guard - low + 3, mu) + 4
        if need <= guard:
            return prec + guard - low + 2, prec + guard
        guard = need


def _entry_sum(terms: list[int], powers: Iterable[int], F: int, wp: int) -> tuple[int, int]:
    """(total, err): sum of floor(T(k) / (k+a)**r), within err of 2**S q, q = E[1/(Q+a)**r].

    ``powers`` pairs (k+a)**r with the window's ``terms``, past k = 0 at
    a = 0.  In err = F + ((total + F) >> (wp - 1)) + 1, the window's F
    covers floors and tails, as 1/(k+a)**r <= 1, and the rest the
    anchor's relative error 2**-wp of 2**S q, at most twice total + F.
    """
    total = sum(map(floordiv, terms, powers))
    return total, F + ((total + F) >> (wp - 1)) + 1


def _window_entry(mu: float, a: int, r: int, prec: int) -> tuple[int, int, int]:
    """(total, err, S): _entry_sum of E[1/(Q+a)**r] alone (k >= 1 at a = 0) from j = lo + a.

    At a depth capped at 1080 bits, an entry under 2**-1080 errs by far
    less than the least subnormal; from j = 2**ceil((S+1) / r) on, j**r
    > T, so no floor is taken there.
    """
    S, wp = _fixed_scale(mu, r, a, prec, 1080)
    lo, terms, F = _poisson_window(mu, S, wp)
    skip, j0 = lo + a == 0, lo + a
    terms = terms[skip:max(0, (1 << -(-(S + 1) // r)) - j0)]
    return *_entry_sum(terms, map(pow, count(j0 + skip), repeat(r)), F, wp), S


def _direct_past_700(mu: float, a: int, r: int, tol: float) -> OracleValue:
    """shifted_poisson_moment_direct(mu, a, r, tol) past mu = 700 on _window_entry."""
    limit = tol * 2.0 ** _log2_jensen(mu, r, a)
    prec = max(64, 2 + math.ceil(-math.log2(tol)))
    while True:
        total, err, S = _window_entry(mu, a, r, prec)
        value = _round_once(max(0, total - err), total + err, 1 << S)
        if value is not None and (tail := err / (1 << S)) <= limit:
            return OracleValue(value, tail)
        prec *= 2


def _q_table(mu: float, r: int, A: int, prec: int) -> ShiftedMomentTable:
    """The table of build_q_table at ``prec`` bits, arguments unchecked.

    Entry a and its bound are exact_oracle._entry_sum over the window of
    _poisson_window; one list of j**r serves every entry.
    """
    S, wp = _fixed_scale(mu, r, A, prec)
    lo, terms, F = _poisson_window(mu, S, wp)
    powers = [j**r for j in range(lo, lo + len(terms) + A)]
    skip = lo == 0  # 1/0**r: k = 0 is not in E+[1/Q**r]
    entries = [_entry_sum(terms[skip:], powers[skip:], F, wp)]
    entries += [_entry_sum(terms, powers[a:], F, wp) for a in range(1, A + 1)]
    totals, errs = zip(*entries)
    return ShiftedMomentTable(mu, r, totals, errs, S, prec)


def _expand_pdf(poly: ExpansionPolynomial, mu: float) -> list[float]:
    dmax = poly.max_degree
    lo, terms, _ = exact_oracle._poisson_window(float(mu), 140, 64)
    col = [0.0] * lo + [t / (1 << 140) for t in terms] + [0.0] * dmax
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


# ---- the differentials -----------------------------------------------------

REPORT_GRID = GridSpec().points()[:-1]


def _large_n_inputs(n):
    """n seeded inputs shaped like the large_n benchmark's: N from 10**3
    to 10**5 log-uniform, p uniform in [0.01, 0.99], r mostly 1."""
    rng = random.Random(19)
    for _ in range(n):
        yield (round(10.0 ** rng.uniform(3.0, 5.0)), 0.01 + 0.98 * rng.random(),
               rng.choice((1, 1, 2, 3)))


@pytest.mark.parametrize("N,p,r", list(_large_n_inputs(120)))
def test_binomial_oracle_equals_the_window_walk_large_n(N, p, r):
    assert exact_inverse_moment(Binomial(N, p), r) == _binomial_inverse_moment(N, p, r)


@settings(max_examples=80, deadline=None)
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
    st.one_of(st.integers(1, 8), st.sampled_from([400, 10**4, 10**6])),
)
@example(10**5, 0.5, 10**6)
@example(10**5, 1e-300, 10**6)
@example(1000, 0.5, 400)
@example(1000, 5e-324, 3)
@example(10**6, 0.99997, 1)
@example(10**6, 1.0 - 2.0**-53, 2)
def test_binomial_oracle_equals_the_window_walk(N, p, r):
    assert exact_inverse_moment(Binomial(N, p), r) == _binomial_inverse_moment(N, p, r)


def _table_scale(mu: float, r: int, A: int, prec: int) -> tuple[int, int]:
    """(W, wp): the q table's scale and anchor precision at prec bits."""
    log2_L = min(_log2_jensen(mu, r, 0), _log2_jensen(mu, r, A))
    W, _ = exact_oracle._walk_scale(prec, log2_L, mu, math.inf)
    return W, prec + exact_oracle._WALK_GUARD


@pytest.mark.parametrize("mu", [1e-300, 1e-3, 0.5, 7.3, 61.0, 99.9, 150.0, 1e3, 12345.678, 1e5])
@pytest.mark.parametrize("r,A,prec", [(1, 0, 80), (2, 2, 120), (3, 10, 300)])
def test_poisson_window_equals_its_own_walk(mu, r, A, prec):
    # the whole window, to stop 1, as expand_pdf reads it
    W, wp = _table_scale(mu, r, A, prec)
    assert poisson_moments._poisson_window(mu, W, wp) == _poisson_window(mu, W, wp)


@settings(max_examples=40, deadline=None)
@given(st.floats(math.log(1e-300), math.log(1e4)), st.integers(1, 6), st.integers(0, 12))
def test_poisson_window_equals_its_own_walk_hypothesis(log_mu, r, A):
    mu = math.exp(log_mu)
    W, wp = _table_scale(mu, r, A, 80 + 6 * A)
    assert poisson_moments._poisson_window(mu, W, wp) == _poisson_window(mu, W, wp)


@pytest.mark.parametrize("N", [10, 100])
@pytest.mark.parametrize("r", range(1, 9))
def test_binomial_oracle_equals_the_sized_walk_on_the_report_grid(N, r):
    got = [exact_inverse_moment(Binomial(N, p), r) for p in REPORT_GRID]
    assert got == [_mode_binomial_moment(N, p, r) for p in REPORT_GRID]


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        st.sampled_from([10, 100]),
        st.floats(math.log(1e3), math.log(1e5)).map(lambda x: round(math.exp(x))),
    ),
    st.one_of(
        st.integers(1, 999).map(lambda i: i / 1000),  # 1 - p inexact for most p < 0.5
        st.sampled_from(REPORT_GRID),
    ),
    st.integers(1, 8),
)
@example(10**5, 0.3, 8)
@example(1000, 0.001, 1)
def test_binomial_oracle_equals_the_sized_walk(N, p, r):
    assert exact_inverse_moment(Binomial(N, p), r) == _mode_binomial_moment(N, p, r)


@pytest.mark.parametrize("mu", [700.5, 800.0, 2000.0, 1e4, 1e5, 1e6])
def test_direct_sums_past_700_equal_the_window_entry(mu):
    # the same correctly rounded values; each bound is the new walk's
    # own, still at most tol times Jensen's bound
    for a in (0, 1, 3):
        for r in (1, 2, 4, 8):
            for tol in (1e-12, 1e-30):
                got = shifted_poisson_moment_direct(mu, a, r, tol)
                assert got.value == _direct_past_700(mu, a, r, tol).value, (a, r, tol)
                assert got.tail_bound <= tol * 2.0 ** _log2_jensen(mu, r, a), (a, r, tol)


@pytest.mark.parametrize("N", [10, 100])
@pytest.mark.parametrize("r", range(2, 7))
def test_expansion_values_equal_the_fixed_scale_tables(N, r, monkeypatch):
    # every r >= 2 value is the truncated series correctly rounded, from
    # whichever table; the one that retries is patched too
    orders = range(1, 7)
    got = [_inverse_moments(N, p, r, orders) for p in REPORT_GRID]
    monkeypatch.setattr(poisson_moments, "_q_table", _q_table)
    monkeypatch.setattr(charlier_expansion, "_q_table", _q_table)
    assert got == [_inverse_moments(N, p, r, orders) for p in REPORT_GRID]


# past 700 see test_exact_oracle's test_direct_sums_past_700_are_the_reference_rounded
MUS_UP_TO_700 = (699.0, 699.9999999999999, 700.0)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(
            st.floats(math.log(1e-300), math.log(700.0)).map(lambda x: min(math.exp(x), 700.0)),
            st.integers(1, 40),
        ),
        st.tuples(st.sampled_from(MUS_UP_TO_700), st.integers(1, 40)),
        st.tuples(
            st.floats(math.log(1e-300), math.log(50.0)).map(math.exp), st.sampled_from([150, 400])
        ),
    )
)
@example((700.0, 40))
@example((1e-300, 1))
@example((5.0, 400))  # k**400 passes the double range from k = 6
@example((50.0, 150))
def test_oracle_equals_the_ascending_sum(case):
    mu, r = case
    assert poisson_moments.positive_poisson_inverse_moment(mu, r) == _ascending_oracle(mu, r)


@pytest.mark.parametrize("mu", [5e-324, 0.37, 25.7, 700.5, 1e3, 1e4])
@pytest.mark.parametrize("m", [1, 3, 6])
def test_expand_pdf_equals_the_columns_from_zero(mu, m):
    poly = binomial_barbour_polynomial(max(10, math.ceil(3 * mu)), mu, m)
    got = expand_pdf(poly, mu)
    assert [x.hex() for x in got] == [x.hex() for x in _expand_pdf(poly, mu)]


# ---- the float walk before one loop: verbatim, but for the names and the
# direct sum's integer branch, which this walk never reaches ----


def _generator_direct_sum(mu: float, r: int, tol: float) -> OracleValue:
    """exact_oracle._direct_sum(mu, 0, r, tol) for mu <= 700, as it was."""
    _check_walk_mu(mu)
    limit = tol * 2.0 ** _log2_jensen(mu, r, 0)
    tail = math.inf

    def terms() -> Iterator[float]:
        nonlocal tail, r
        pi = math.exp(-mu)
        gate = 2.0 * limit
        for k in count(1):
            pi *= mu / k
            if k >= mu and pi <= gate:
                tail = pi * (k + 1) / (k + 1 - mu)
                if tail <= limit:
                    return
            try:
                t = pi / k**r
            except OverflowError:  # k**r past the double range
                t = _over_power(pi, k, r)
                if r * math.log2(k) > 1080.0:
                    r = math.inf  # pi / k**r is 0.0 from here on, as _over_power's
            yield t

    return OracleValue(math.fsum(terms()), tail)


def _generator_ascending_terms(mu: float, r: int, m1: int | None) -> Iterator[float]:
    """The terms pi(k) / k**r of the ascending series for k = 1 .. m1.

    With m1 None the walk never ends; its caller stops drawing.  These
    are the oracle's own terms up to mu = 700 (exact_oracle._direct_sum):
    a k**r past the double range takes the term by _over_power, and once
    r log2 k passes 1080 every term is 0.0, k**r not formed.
    Past 700 e**-mu leaves the normal range: DomainError, reached only by
    a hand-made profile with mu_star > 700 (calibration stays below 210).
    """
    if mu > 700.0:
        raise DomainError(f"the ascending series takes mu <= 700, not {mu:g}")
    pi = math.exp(-mu)
    for k in count(1) if m1 is None else range(1, m1 + 1):
        pi *= mu / k
        try:
            t = pi / k**r
        except OverflowError:  # k**r past the double range
            t = _over_power(pi, k, r)
            if r * math.log2(k) > 1080.0:
                r = math.inf  # pi / k**r is 0.0 from here on, as _over_power's
        yield t


def _assert_walks_equal(mu: float, r: int, tols, m1s) -> None:
    for tol in tols:
        want = _generator_direct_sum(mu, r, tol)
        got = exact_oracle._direct_sum(mu, 0, r, tol)
        assert (got.value.hex(), got.tail_bound.hex()) == (
            want.value.hex(), want.tail_bound.hex()), (mu, r, tol)
    for m1 in m1s:
        want = math.fsum(_generator_ascending_terms(mu, r, m1))
        assert _ascending_partial(mu, r, m1).hex() == want.hex(), (mu, r, m1)


# the twelve published rows, (r, target) -> (mu_star, M1)
PUBLISHED_PROFILES = {
    (1, 1e-5): (13.671, 31), (2, 1e-5): (17.061, 35), (3, 1e-5): (20.544, 39),
    (4, 1e-5): (24.775, 44), (5, 1e-5): (28.966, 49), (6, 1e-5): (32.969, 53),
    (1, 1e-10): (25.734, 63), (2, 1e-10): (29.206, 67), (3, 1e-10): (33.998, 74),
    (4, 1e-10): (37.903, 79), (5, 1e-10): (42.573, 85), (6, 1e-10): (47.068, 90),
}


@pytest.mark.parametrize("r,target", sorted(PUBLISHED_PROFILES))
def test_float_walk_equals_the_generators_on_the_published_grids(r, target):
    # every 9th point of the grid i 0.05 up to 2 mu*, from an offset of
    # the row's own, at the oracle's 1e-18 and the re-validation's 1e-30
    mu_star, m1 = PUBLISHED_PROFILES[r, target]
    for i in range(1 + r + (target < 1e-7) * 4, int(2.0 * mu_star / 0.05) + 1, 9):
        _assert_walks_equal(i * 0.05, r, (1e-18, 1e-30), (m1,))


WALK_RS = (*range(1, 9), 40, 116, 150, 400)  # k**116 passes 2**1024 at k = 456, 2**1080 at 637
WALK_TOLS = (1e3, 1e-3, 1e-12, 1e-18, 1e-30)  # 1e3 stops at k = ceil(mu), the first k tested
_walk_rng = random.Random(2028)
WALK_MUS = (
    5e-324, 1e-300, 0.05, 1.0, 29.2, 150.0, 455.5, 636.75, 699.9999999999999, 700.0,
    *(float(f"{_walk_rng.uniform(0.001, 700.0):.{d}f}") for d in (1, 2, 3) for _ in range(3)),
    *(math.exp(_walk_rng.uniform(math.log(5e-324), math.log(700.0))) for _ in range(9)),
)


@pytest.mark.parametrize("mu", WALK_MUS)
def test_float_walk_equals_the_generators(mu):
    for r in WALK_RS:
        _assert_walks_equal(mu, r, WALK_TOLS, (1, 7, 60, 500))


def _mapped_float_terms(
    mu: float, r: int, limit: float = 0.0, m1: int | None = None
) -> tuple[Iterator[float], float]:
    """exact_oracle._float_terms as it was, _over_power on every term past the double range."""
    pi, pis = math.exp(-mu), []
    append = pis.append
    free = math.ceil(mu) if m1 is None else min(math.ceil(mu), m1 + 1)
    for k in range(1, free):
        pi *= mu / k
        append(pi)
    gate, tail = 2.0 * limit, math.inf
    for k in count(free) if m1 is None else range(free, m1 + 1):
        pi *= mu / k
        if pi <= gate:
            tail = pi * (k + 1) / (k + 1 - mu)
            if tail <= limit:
                break
        append(pi)
    P = _float_powers(r, 1 << (len(pis) - 1).bit_length())
    terms = map(truediv, pis, P)
    if len(P) < len(pis):
        terms = chain(terms, map(_over_power, pis[len(P):], count(len(P) + 1), repeat(r)))
    return terms, tail


@pytest.mark.parametrize("mu", [0.37, 150.0, 700.0])
@pytest.mark.parametrize("r", [116, 400, 1075, 1081, 10**5])
def test_float_walk_stops_where_every_term_is_zero(mu, r):
    dropped = 0
    for tol in (None, 1e-18, 1e-30):
        limit = 0.0 if tol is None else tol * 2.0 ** _log2_jensen(mu, r, 0)
        for m1 in (None, 1, 7, 60, 500):
            got, got_tail = exact_oracle._float_terms(mu, r, limit, m1)
            want, want_tail = _mapped_float_terms(mu, r, limit, m1)
            got, want = list(got), list(want)
            assert got == want[:len(got)] and not any(want[len(got):]), (tol, m1)
            assert (math.fsum(got).hex(), got_tail.hex()) == (
                math.fsum(want).hex(), want_tail.hex()), (tol, m1)
            dropped += len(want) - len(got)
    assert dropped or mu < 700.0  # at mu = 700 every r here walks past its cut
