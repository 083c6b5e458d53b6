"""Dense exact linear algebra over the rationals.

Matrices are plain nested lists of ints or Fractions; nothing here ever
touches floating point.  solve_exact clears denominators once and runs one
fraction-free Gauss-Jordan elimination on the integer matrix (Bareiss,
Math. Comp. 22, 1968): every entry stays a minor of the input, so every
division is exact, and a Fraction is formed only for the result.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import LinearAlgebraError, VerificationError


def _integer_scale(rows) -> tuple[int, list[list[int]]]:
    """Smallest positive s with s*rows integral, and s*rows as int rows;
    entries are ints or Fractions."""
    s = math.lcm(*(c.denominator for row in rows for c in row))
    return s, [[c.numerator * (s // c.denominator) for c in row] for row in rows]


def _eliminate(a, ncols) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan on the int rows a, in place, over the first
    ncols columns.

    Each pivot step sets every other row to (row * pivot - f * pivot_row) /
    previous_pivot, f being the row's entry in the pivot column; a row with
    f = 0 is rescaled by pivot / previous_pivot.  Columns left of the pivot
    are not updated, as nothing reads them again.  Afterwards the first
    `rank` rows are the pivot rows, and row i reads d * x_(c_i) plus its
    non-pivot entries, with d the last pivot.  Returns (rank, d).
    """
    m = len(a)
    r, d = 0, 1
    for c in range(ncols):
        if r == m:
            break
        p = next((i for i in range(r, m) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
        prow = a[r][c:]
        piv = prow[0]
        for i in range(m):
            if i == r:
                continue
            f = a[i][c]
            row = a[i]
            for j, y in enumerate(prow, c):
                q, rem = divmod(row[j] * piv - f * y, d)
                if rem:
                    raise VerificationError("inexact division in fraction-free elimination")
                row[j] = q
        d = piv
        r += 1
    return r, d


def solve_exact(rows, rhs) -> list[Fraction]:
    """Solve A x = b exactly.  A is m x n with m >= n and full column rank.

    Raises LinearAlgebraError if the system is inconsistent or underdetermined.
    """
    m, n = len(rows), len(rows[0])
    _, a = _integer_scale([list(row) + [rhs[i]] for i, row in enumerate(rows)])
    rank, d = _eliminate(a, n)
    if rank < n:
        raise LinearAlgebraError("underdetermined system")
    if any(a[i][n] for i in range(n, m)):
        raise LinearAlgebraError("inconsistent system")
    return [Fraction(a[i][n], d) for i in range(n)]

