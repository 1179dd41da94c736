"""Exact rational combinatorics shared by the rest of the library.

Stirling numbers of the first kind (plain and shifted) and the alpha
coefficients that drive the binomial expansion polynomial.  Everything
in this module is integer or Fraction arithmetic; nothing rounds until
a caller converts to float.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from functools import cache

__all__ = [
    "StirlingTable",
    "stirling_first",
    "stirling_noncentral",
    "alpha",
]


class StirlingTable:
    """Memoized triangle of signed Stirling numbers of the first kind.

    ``shift`` selects the non-central variant: entry ``(j, k)`` is the
    coefficient of ``x**k`` in

        x * (x - (shift + 1)) * (x - (shift + 2)) * ... * (x - (shift + j - 1)),

    which for ``shift == 0`` reduces to the usual falling-factorial
    coefficients.  Entries are exact Python integers.  Rows grow on
    demand under a lock, so one table instance may be shared between
    threads; ``j_max`` caps the growth so a runaway caller cannot chew
    through memory.
    """

    def __init__(self, shift: int = 0, j_max: int = 64) -> None:
        if shift < 0:
            raise ValueError("shift must be non-negative")
        if j_max < 1:
            raise ValueError("j_max must be at least 1")
        self.shift = shift
        self.j_max = j_max
        # _rows[j][k]; row 0 is a filler so indices line up with j.
        self._rows: list[list[int]] = [[0], [0, 1]]
        self._lock = threading.Lock()

    def entry(self, j: int, k: int) -> int:
        """Raw integer entry; zero outside the triangle 1 <= k <= j."""
        if j < 1:
            raise ValueError("row index j must be positive")
        if j > self.j_max:
            raise ValueError(f"j={j} exceeds the table cap j_max={self.j_max}")
        if k < 1 or k > j:
            return 0
        if j >= len(self._rows):
            self._grow(j)
        return self._rows[j][k]

    def _grow(self, j_target: int) -> None:
        with self._lock:
            while len(self._rows) <= j_target:
                j = len(self._rows) - 1
                prev = self._rows[j]
                step = j + self.shift
                row = [0] * (j + 2)
                for k in range(1, j + 2):
                    above = prev[k] if k <= j else 0
                    row[k] = prev[k - 1] - step * above
                self._rows.append(row)


_tables: dict[int, StirlingTable] = {}
_tables_lock = threading.Lock()


def _shared_table(shift: int) -> StirlingTable:
    table = _tables.get(shift)
    if table is None:
        with _tables_lock:
            table = _tables.setdefault(shift, StirlingTable(shift=shift))
    return table


def stirling_first(j: int, k: int) -> Fraction:
    """Signed Stirling number of the first kind, s(j, k), exactly.

    Satisfies s(j+1, k) = s(j, k-1) - j*s(j, k) with s(1, 1) = 1, and is
    zero outside 1 <= k <= j.
    """
    return Fraction(_shared_table(0).entry(j, k))


def stirling_noncentral(j: int, l: int, k: int) -> Fraction:
    """Shifted Stirling number of the first kind.

    Coefficient of x**k in x * (x-(l+1)) * ... * (x-(l+j-1)).  For l = 0
    this is exactly ``stirling_first``.
    """
    if l < 0:
        raise ValueError("shift l must be non-negative")
    return Fraction(_shared_table(l).entry(j, k))


@cache
def alpha(l: int, j: int) -> Fraction:
    """Coefficient of x**(2j + l) in (sum_{k>=2} x**k / k) ** j, exactly.

    Computed by alpha(l, j) = sum_{k=0..l} alpha(k, j-1) / (l - k + 2)
    from alpha(0, 0) = 1.  Results are memoized.
    """
    if l < 0 or j < 0:
        raise ValueError("alpha indices must be non-negative")
    if j == 0:
        return Fraction(1) if l == 0 else Fraction(0)
    total = Fraction(0)
    for k in range(l + 1):
        total += alpha(k, j - 1) / (l - k + 2)
    return total
