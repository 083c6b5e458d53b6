"""Trace-form Gram matrices and exact definiteness tests.

For a totally real, totally positive element a (in practice a = x * conj(x)
or an inverse of such), the pairing (u, v) -> Tr(a * u * conj(v)) is a
positive-definite quadratic form on the integer lattice.  We build its Gram
matrix on the power basis exactly, decide definiteness with a rational LDL
decomposition, and check det G = |disc| * Norm(a) as a standing invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotTotallyPositiveError
from .linalg import det_exact


@dataclass(frozen=True, eq=False, repr=False)
class GramMatrix:
    """Exact Gram matrix of a trace form, plus the element it came from."""

    element: object  # CycloElement or RealElement
    entries: tuple[tuple[Fraction, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def conductor(self) -> int:
        return self.element.ctx.conductor

    def __repr__(self):
        return f"GramMatrix(conductor={self.conductor}, dim={self.dim})"

    def det(self) -> Fraction:
        return det_exact([list(r) for r in self.entries])

    def integer_scale(self) -> tuple[int, list[list[int]]]:
        """Smallest positive s with s*G integral, and s*G as int rows."""
        return _integer_scale(self.entries)

    def to_json_dict(self) -> dict:
        s, rows = self.integer_scale()
        return {
            "conductor": self.conductor,
            "scale": str(s),
            "matrix": [[str(v) for v in row] for row in rows],
        }


def _integer_scale(rows) -> tuple[int, list[list[int]]]:
    """Smallest positive s with s*rows integral, and s*rows as int rows."""
    s = math.lcm(*(c.denominator for row in rows for c in row))
    return s, [[int(c * s) for c in row] for row in rows]


def gram(a) -> GramMatrix:
    """Gram matrix of (u, v) -> Tr(a * u * conj(v)) on the power basis."""
    rows = a.ctx.trace_form_entries(a)
    sym = [[rows[j][i] for j in range(len(rows))] for i in range(len(rows))]
    if sym != rows:
        # happens exactly when a is not fixed by conjugation
        raise ValueError(f"{a!r} is not totally real; its trace pairing is not symmetric")
    return GramMatrix(element=a, entries=tuple(tuple(r) for r in rows))


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


def ldl(matrix) -> LDLResult:
    """LDL^T over the rationals without pivoting, as a definiteness test."""
    if isinstance(matrix, GramMatrix):
        a = [list(r) for r in matrix.entries]
    else:
        a = [[Fraction(c) for c in row] for row in matrix]
    n = len(a)
    low = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    pivots = []
    for k in range(n):
        d = a[k][k]
        if d < 0:
            return LDLResult("indefinite", tuple(pivots + [d]), k, _rows(low))
        if d == 0:
            block_zero = all(
                a[i][j] == 0 for i in range(k, n) for j in range(k, n)
            )
            status = "singular" if block_zero else "indefinite_or_singular"
            return LDLResult(status, tuple(pivots + [d]), k, _rows(low))
        pivots.append(d)
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                low[i][k] = f
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return LDLResult("positive_definite", tuple(pivots), -1, _rows(low))


def _rows(m):
    return tuple(tuple(r) for r in m)


def is_totally_positive(a) -> bool:
    """A totally real element is totally positive iff its trace form is
    positive definite."""
    return ldl(gram(a)).status == "positive_definite"


def require_totally_positive(g: GramMatrix) -> LDLResult:
    res = ldl(g)
    if res.status != "positive_definite":
        raise NotTotallyPositiveError(
            f"trace form of {g.element!r} is {res.status} "
            f"(pivot {res.pivots[-1]} at index {res.failure_index})"
        )
    return res


def embedding_values(a):
    """Float values of a cyclotomic element at the complex embeddings.
    Diagnostic only; every decision path stays rational."""
    import cmath

    n = a.ctx.conductor
    out = []
    for k in a.ctx.galois_units:
        z = cmath.exp(2j * cmath.pi * k / n)
        out.append(sum(float(c) * z**i for i, c in enumerate(a.coeffs)))
    return out
