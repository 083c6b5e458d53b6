"""Dense exact linear algebra over the rationals.

Matrices are plain nested lists of Fractions (or ints); nothing here ever
touches floating point.  Sizes stay small (degree <= ~40), so classical
O(n^3) Gaussian elimination with exact pivots is plenty.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LinearAlgebraError


def solve_exact(rows, rhs) -> list[Fraction]:
    """Solve A x = b exactly.  A is m x n with m >= n and full column rank.

    Raises LinearAlgebraError if the system is inconsistent or underdetermined.
    """
    m, n = len(rows), len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    piv_cols = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    if len(piv_cols) < n:
        raise LinearAlgebraError("underdetermined system")
    if any(aug[i][n] != 0 for i in range(r, m)):
        raise LinearAlgebraError("inconsistent system")
    x = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        x[c] = aug[i][n]
    return x


def det_exact(rows) -> Fraction:
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det
