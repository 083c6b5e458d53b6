"""Trace-form Gram matrices and exact definiteness tests.

For a totally real, totally positive element a (in practice a = x * conj(x)
or an inverse of such), the pairing (u, v) -> Tr(a * u * conj(v)) is a
positive-definite quadratic form on the integer lattice.  We build its Gram
matrix on the power basis exactly and decide definiteness with a rational
LDL decomposition.  det G = |disc| * Norm(a) holds for every such form; the
library does not check it at run time, test_gram_det_is_disc_times_norm in
tests/test_traceform.py does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, eq=False, repr=False)
class GramMatrix:
    """Exact Gram matrix rows / den of a trace form, and the element it came from."""

    element: object  # CycloElement or RealElement
    rows: tuple[tuple[int, ...], ...]
    den: int

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(c, self.den) for c in row) for row in self.rows)

    def __repr__(self):
        return f"GramMatrix(conductor={self.element.ctx.conductor}, dim={self.dim})"

    def integer_scale(self) -> tuple[int, list[list[int]]]:
        """Smallest positive s with s*G integral, and s*G as int rows."""
        g = math.gcd(self.den, *(c for row in self.rows for c in row))
        return self.den // g, [[c // g for c in row] for row in self.rows]


def gram(a) -> GramMatrix:
    """Gram matrix of (u, v) -> Tr(a * u * conj(v)) on the power basis;
    ValueError unless a is fixed by conjugation (trace_form_entries checks)."""
    return GramMatrix(a, *a.ctx.trace_form_entries(a))


@dataclass(frozen=True)
class LDLResult:
    """Outcome of the rational LDL decomposition.

    status is "positive_definite", "indefinite", "singular", or
    "indefinite_or_singular" (a zero pivot with the rest of the block nonzero:
    the form is not positive definite, but this decomposition alone does not
    separate the two).  pivots are the diagonal entries found before stopping;
    failure_index marks where the decomposition stopped, -1 on success;
    lower is the unit lower-triangular factor (complete only on success).
    """

    status: str
    pivots: tuple[Fraction, ...]
    failure_index: int
    lower: tuple[tuple[Fraction, ...], ...]


def _integer_scale(rows) -> tuple[int, list[list[int]]]:
    """Smallest positive s with s*rows integral, and s*rows as int rows;
    entries are ints or Fractions."""
    s = math.lcm(*(c.denominator for row in rows for c in row))
    return s, [[c.numerator * (s // c.denominator) for c in row] for row in rows]


def _coerce_gram(g) -> tuple[int, list[list[int]], object]:
    """(scale, scale * g as int rows, element-or-None), the one way into ldl
    and LLL; raw rows must be square and symmetric (ValueError otherwise)."""
    if isinstance(g, GramMatrix):
        return (*g.integer_scale(), g.element)
    rows = [[Fraction(c) for c in row] for row in g]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("Gram matrix must be square")
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(n)):
        raise ValueError("Gram matrix must be symmetric")
    return (*_integer_scale(rows), None)


def ldl(matrix) -> LDLResult:
    """LDL^T over the rationals without pivoting, as a definiteness test of
    a GramMatrix or of square, symmetric raw rows (ValueError otherwise).
    The factors of the rows a / s come from _fraction_free(a) stopped at
    index k (k == n on success): pivots up to k, L left of k."""
    s, a, _ = _coerce_gram(matrix)
    status, k, dets, lam = _fraction_free(a)
    n = len(a)
    pivots = tuple(Fraction(dets[i + 1], dets[i] * s) for i in range(min(k + 1, n)))
    low = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(min(i, k)):
            low[i][j] = Fraction(lam[i][j], dets[j + 1])
    return LDLResult(status, pivots, k if k < n else -1, tuple(map(tuple, low)))


def _fraction_free(a) -> tuple[str, int, list[int], list[list[int]]]:
    """The integer core of ldl, and of LLL's start and check, on the int rows
    a: (status, stop, dets, lam), stop being the index where it stopped (n on
    success).  Row by row and fraction-free (Cohen, Alg. 2.6.7): dets[k] is
    the k-th leading principal minor of a and lam[i][j] = L[i][j] *
    dets[j + 1], so every division is exact and no Fraction is formed.
    """
    n = len(a)
    dets = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]

    def minor(i, j, k):
        # dets[k] times entry (i, j) of a after eliminating k coordinates
        u = a[i][j]
        for t in range(k):
            u = (dets[t + 1] * u - lam[i][t] * lam[j][t]) // dets[t]
        return u

    def fill(i, k):
        for j in range(k):
            lam[i][j] = minor(i, j, j)

    for i in range(n):
        fill(i, i)
        dets[i + 1] = minor(i, i, i)
        if dets[i + 1] < 0:
            return "indefinite", i, dets, lam
        if dets[i + 1] == 0:
            for t in range(i + 1, n):
                fill(t, i)
            block_zero = all(
                minor(t, j, i) == 0 for t in range(i, n) for j in range(i, t + 1)
            )
            return ("singular" if block_zero else "indefinite_or_singular"), i, dets, lam
    return "positive_definite", n, dets, lam


def is_totally_positive(a) -> bool:
    """A totally real element is totally positive iff its trace form is
    positive definite."""
    return ldl(gram(a)).status == "positive_definite"

