"""Exact rational combinatorics shared by the rest of the library.

Stirling numbers of the first kind and the alpha coefficients that
drive the binomial expansion polynomial.  Everything in this module is
integer or Fraction arithmetic; nothing rounds until a caller converts
to float.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

from .exact_oracle import _ORDER_CAP, DomainError

__all__ = [
    "stirling_first",
    "alpha",
]

# Rows past this are refused, so a runaway caller cannot chew through memory.
_ROW_CAP = 64


@cache
def _stirling_row(j: int) -> tuple[int, ...]:
    """Row j >= 1 of the signed Stirling triangle of the first kind, exactly.

    Entry k is s(j, k), the coefficient of x**k in x (x - 1) ... (x - j + 1);
    entry 0 is always zero.  Rows are memoized and built from the one
    above.  The row cap is checked by ``stirling_first``, not here,
    because the large-mu series reads rows past it.
    """
    if j == 1:
        return (0, 1)
    prev = _stirling_row(j - 1) + (0,)
    return (0,) + tuple(prev[k - 1] - (j - 1) * prev[k] for k in range(1, j + 1))


def stirling_first(j: int, k: int) -> Fraction:
    """Signed Stirling number of the first kind, s(j, k), exactly.

    Satisfies s(j+1, k) = s(j, k-1) - j*s(j, k) with s(1, 1) = 1, and is
    zero outside 1 <= k <= j.  A row j < 1 or past the cap raises
    DomainError.
    """
    if j < 1:
        raise DomainError("row index j must be positive")
    if j > _ROW_CAP:
        raise DomainError(f"j={j} exceeds the table cap {_ROW_CAP}")
    return Fraction(_stirling_row(j)[k] if 1 <= k <= j else 0)


# Column j of the alpha triangle, alpha(l, j) for l = 0 .. len - 1.  Each
# column is a tuple, replaced whole when a call grows it, so a thread
# reads either the old column or the new one, both exact.
_alpha_columns = [(Fraction(1),) + (Fraction(0),) * (_ORDER_CAP - 1)] + [()] * (_ORDER_CAP - 1)


@cache
def alpha(l: int, j: int) -> Fraction:
    """Coefficient of x**(2j + l) in (sum_{k>=2} x**k / k) ** j, exactly.

    Computed by alpha(l, j) = sum_{k=0..l} alpha(k, j-1) / (l - k + 2)
    from alpha(0, 0) = 1, without recursion: columns 1 .. j are grown in
    turn, each only as far as l, and kept for later calls.  Results are
    memoized.  l + j >= _ORDER_CAP raises DomainError.
    """
    if l < 0 or j < 0:
        raise ValueError("alpha indices must be non-negative")
    if l + j >= _ORDER_CAP:
        raise DomainError(
            f"alpha({l}, {j}) lies past l + j = {_ORDER_CAP - 1}, the most the expansion reads"
        )
    prev = _alpha_columns[0]
    for jj in range(1, j + 1):
        col = _alpha_columns[jj]
        if len(col) <= l:
            col += tuple(
                sum(prev[k] / (m - k + 2) for k in range(m + 1)) for m in range(len(col), l + 1)
            )
            _alpha_columns[jj] = col
        prev = col
    return prev[l]
