"""Exact-arithmetic checks for the combinatorial layer.

The generating-function tests rebuild each number from its defining
polynomial product with Fraction coefficients, so they are independent
of the recurrences used in the module.  The shifted Stirling rows live
in tests/_reference.py, beside the closed form that reads them, and are
checked here against the same products.
"""
import math
import sys
import threading
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from _reference import shifted_stirling
from invmoments.exact_oracle import DomainError
from invmoments import special_numbers
from invmoments.special_numbers import (
    _ORDER_CAP,
    _ROW_CAP,
    alpha,
    stirling_first,
)


def poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def falling_coeffs(n: int, shift: int) -> list[Fraction]:
    """Coefficients of x * prod_{k=shift+1}^{shift+n-1} (x - k)."""
    poly = [Fraction(0), Fraction(1)]  # x
    for k in range(shift + 1, shift + n):
        poly = poly_mul(poly, [Fraction(-k), Fraction(1)])
    return poly


def test_stirling_fixed_values():
    assert stirling_first(1, 1) == 1
    assert stirling_first(3, 1) == 2
    assert stirling_first(3, 2) == -3
    assert stirling_first(3, 3) == 1
    assert shifted_stirling(1, 2, 1) == -2
    assert shifted_stirling(5, 1, 1) == 1


def test_stirling_outside_triangle_is_zero():
    assert stirling_first(3, 0) == 0
    assert stirling_first(3, 4) == 0
    assert shifted_stirling(3, 2, 5) == 0


@pytest.mark.parametrize("n", range(1, 9))
def test_stirling_generating_function(n):
    coeffs = falling_coeffs(n, 0)
    for k in range(1, n + 1):
        assert stirling_first(n, k) == coeffs[k]


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("l", range(0, 4))
def test_noncentral_generating_function(n, l):
    coeffs = falling_coeffs(n, l)
    for k in range(1, n + 1):
        assert shifted_stirling(l, n, k) == coeffs[k]


@pytest.mark.parametrize("j", range(1, _ROW_CAP + 1))
@pytest.mark.parametrize("k", range(1, _ROW_CAP + 1))
def test_noncentral_shift_zero_matches_central(j, k):
    # mpmath's own integer recurrence is the independent reference, over
    # every entry up to the row cap, the zeros above the diagonal included
    assert stirling_first(j, k) == mpmath.stirling1(j, k, exact=True)


@given(st.integers(min_value=1, max_value=20))
def test_first_column_explicit(j):
    assert stirling_first(j, 1) == (-1) ** (j - 1) * Fraction(math.factorial(j - 1))


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=8))
def test_noncentral_first_column_explicit(j, l):
    expected = (-1) ** (j - 1) * Fraction(math.factorial(j + l - 1), math.factorial(l))
    assert shifted_stirling(l, j, 1) == expected


def test_table_cap_enforced():
    stirling_first(64, 3)
    with pytest.raises(DomainError):
        stirling_first(65, 3)


def test_table_rejects_bad_row():
    with pytest.raises(DomainError):
        stirling_first(0, 0)


# The full published alpha triangle, j + l <= 7.
ALPHA_TABLE = {
    0: [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16),
        Fraction(1, 32), Fraction(1, 64), Fraction(1, 128)],
    1: [Fraction(0), Fraction(1, 3), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6),
        Fraction(5, 48), Fraction(1, 16)],
    2: [Fraction(0), Fraction(1, 4), Fraction(13, 36), Fraction(17, 48),
        Fraction(7, 24), Fraction(125, 576)],
    3: [Fraction(0), Fraction(1, 5), Fraction(11, 30), Fraction(59, 135),
        Fraction(229, 540)],
    4: [Fraction(0), Fraction(1, 6), Fraction(29, 80), Fraction(241, 480)],
    5: [Fraction(0), Fraction(1, 7), Fraction(223, 630)],
    6: [Fraction(0), Fraction(1, 8)],
    7: [Fraction(0)],
}


def test_alpha_full_table():
    for l, row in ALPHA_TABLE.items():
        for j, expected in enumerate(row):
            assert alpha(l, j) == expected, (l, j)


@pytest.mark.parametrize("l", range(0, 11))
def test_alpha_column_one(l):
    assert alpha(l, 1) == Fraction(1, l + 2)


@pytest.mark.parametrize("l", range(0, 6))
def test_alpha_column_two(l):
    harmonic = sum(Fraction(1, k) for k in range(1, l + 3))
    assert alpha(l, 2) == 2 * (harmonic - 1) / (l + 4)


@pytest.mark.parametrize("j", range(0, 5))
@pytest.mark.parametrize("l", range(0, 5))
def test_alpha_generating_definition(j, l):
    # coefficient of x**(2j + l) in (sum_{k>=2} x**k / k)**j, built by
    # explicit polynomial powers, no recurrence involved
    top = 2 * j + l
    base = [Fraction(0)] * (top + 1)
    for k in range(2, top + 1):
        base[k] = Fraction(1, k)
    power = [Fraction(1)] + [Fraction(0)] * top
    for _ in range(j):
        power = poly_mul(power, base)[: top + 1]
    assert alpha(l, j) == power[top]


def test_alpha_rejects_negative_indices():
    with pytest.raises(ValueError):
        alpha(-1, 2)
    with pytest.raises(ValueError):
        alpha(0, -3)


def test_alpha_at_the_cap_edge():
    # l + j = _ORDER_CAP - 1 is the largest sum the expansion reads
    assert alpha(0, _ORDER_CAP - 1) == Fraction(1, 2 ** (_ORDER_CAP - 1))
    assert alpha(_ORDER_CAP - 2, 1) == Fraction(1, _ORDER_CAP)


@pytest.mark.parametrize(
    "l, j", [(1500, 1500), (10**6, 1), (0, _ORDER_CAP), (_ORDER_CAP - 1, 1), (10**18, 10**18)]
)
def test_alpha_refuses_past_the_cap_at_once(l, j):
    # alpha(1500, 1500) once overflowed the recursion, and alpha(10**6, 1)
    # took seconds; both lie past anything the expansion reads
    start = time.perf_counter()
    with pytest.raises(DomainError):
        alpha(l, j)
    assert time.perf_counter() - start < 0.1


def test_alpha_columns_concurrent_fill():
    # threads that grow the same columns at once, one replacing a column
    # another has just grown, must each read exact values
    want = {(l, j): alpha(l, j) for l in range(30) for j in range(30)}
    keys = sorted(want)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            alpha.cache_clear()
            special_numbers._alpha_columns[1:] = [()] * (_ORDER_CAP - 1)
            got, errors = {}, []

            def fill(order):
                try:
                    for key in order:
                        got[key] = alpha(*key)
                except Exception as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=fill, args=(keys[w::3] if w % 2 else keys[::-1],))
                       for w in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            assert got == want
    finally:
        sys.setswitchinterval(old)
