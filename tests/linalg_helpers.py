"""Dense exact matrix helpers that only the tests use.

Matrices are nested lists of ints or Fractions; singular, inconsistent and
underdetermined systems raise ValueError.  The library solves no linear
system: solve_exact below is the fraction-free solver it used until its
relative trace took a closed form (Ramanujan sums), kept as an oracle.
"""

from fractions import Fraction

from unitred.traceform import _integer_scale


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(rows, v):
    return [sum(r[j] * v[j] for j in range(len(v))) for r in rows]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def invert_exact(rows) -> list[list[Fraction]]:
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            raise ValueError("singular matrix")
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def fraction_solve(rows, rhs) -> list[Fraction]:
    """Oracle: A x = b by Gauss-Jordan over Fractions, which solve_exact's
    fraction-free kernel must match, errors included."""
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
        raise ValueError("underdetermined system")
    if any(aug[i][n] != 0 for i in range(r, m)):
        raise ValueError("inconsistent system")
    x = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        x[c] = aug[i][n]
    return x


def fraction_det(rows) -> Fraction:
    """Oracle: the determinant by Gaussian elimination over Fractions."""
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


def _eliminate(a, ncols) -> tuple[int, int]:
    """Fraction-free Gauss-Jordan on the int rows a, in place, over the first
    ncols columns (Bareiss, Math. Comp. 22, 1968).

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
                    raise ValueError("inexact division in fraction-free elimination")
                row[j] = q
        d = piv
        r += 1
    return r, d


def solve_exact(rows, rhs) -> list[Fraction]:
    """Oracle: A x = b exactly, A m x n with m >= n and full column rank.
    Clears denominators once, runs _eliminate on the integer matrix, and
    forms a Fraction only for the result.  ValueError if the system is
    inconsistent or underdetermined."""
    m, n = len(rows), len(rows[0])
    _, a = _integer_scale([list(row) + [rhs[i]] for i, row in enumerate(rows)])
    rank, d = _eliminate(a, n)
    if rank < n:
        raise ValueError("underdetermined system")
    if any(a[i][n] for i in range(n, m)):
        raise ValueError("inconsistent system")
    return [Fraction(a[i][n], d) for i in range(n)]
