"""Exact lattice tools: LLL reduction and bounded enumeration.

Everything here is integral: LLL keeps the transform, the Gram and the
Gram-Schmidt data (leading minors and scaled mu) in integers, a fresh
fraction-free elimination of the reduced Gram checks it, and enumeration
reads that elimination and runs over one common denominator, with exact
integer square roots for the interval ends.  A successful run is therefore
a proof; post-conditions raise VerificationError on any inconsistency.

Enumeration returns each nonzero vector once up to sign, with a canonical
representative (first nonzero coordinate positive), and never visits the
other.  The bound is inclusive, or strict on request.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .errors import BudgetError, NotTotallyPositiveError, VerificationError
from .field import split_table
from .linalg import _integer_scale
from .traceform import GramMatrix, _fraction_free

DEFAULT_DELTA = Fraction(99, 100)
DEFAULT_NODE_CAP = 10_000_000
DEFAULT_RESULT_CAP = 1_000_000


def _coerce_gram(g):
    """(scale, integer rows, element-or-None) from a GramMatrix or raw rows."""
    if isinstance(g, GramMatrix):
        return (*g.integer_scale(), g.element)
    rows = [[Fraction(c) for c in row] for row in g]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("Gram matrix must be square")
    if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(n)):
        raise ValueError("Gram matrix must be symmetric")
    return (*_integer_scale(rows), None)


# ---------------------------------------------------------------------------
# LLL


@dataclass(frozen=True)
class LLLResult:
    """transform is unimodular with transform * G * transform^T == gram for
    G = scale * g; dets and lam, from _fraction_free(gram), checked the
    reduction.  Enumeration reads this; element is a trace form's, else None."""

    transform: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[int, ...], ...]
    swaps: int
    scale: int
    element: object = field(repr=False, compare=False)
    dets: tuple[int, ...] = field(repr=False, compare=False)
    lam: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)


def lll_reduce(g) -> LLLResult:
    """LLL-reduce the lattice with the given integer (or exactly scalable)
    Gram matrix, with the fixed Lovasz constant DEFAULT_DELTA = 99/100.
    Returns the unimodular transform and the reduced Gram of the scaled
    integer matrix; a common scale factor does not change which bases are
    reduced.

    Integral LLL (Cohen, Alg. 2.6.7): d[i], the i-th leading principal minor
    of the current Gram w, and lam[k][j] = d[j + 1] * mu[k][j] come from the
    elimination behind ldl and are updated in integers, by exact divisions.
    That elimination decides positive definiteness: a form that is not
    raises NotTotallyPositiveError, which names the element of a trace form
    and reports the pivot of the unscaled matrix.
    """
    scale, rows, element = _coerce_gram(g)
    n = len(rows)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    w = [list(r) for r in rows]
    status, stop, d, lam = _fraction_free(w)
    if status != "positive_definite":
        what = "Gram matrix" if element is None else f"trace form of {element!r}"
        raise NotTotallyPositiveError(
            f"{what} is {status} (pivot {Fraction(d[stop + 1], d[stop] * scale)} at index {stop})"
        )
    det_g = d[n]
    num, den, swaps = DEFAULT_DELTA.numerator, DEFAULT_DELTA.denominator, 0

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            # size reduction by q = floor(mu[k][j] + 1/2), the nearest
            # integer with ties rounded up
            dj = d[j + 1]
            q = (2 * lam[k][j] + dj) // (2 * dj)
            if q:
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                w[k] = [x - q * y for x, y in zip(w[k], w[j])]
                for row in w:
                    row[k] -= q * row[j]
                for t in range(j):
                    lam[k][t] -= q * lam[j][t]
                lam[k][j] -= q * dj
        lkk = lam[k][k - 1]
        x = d[k - 1] * d[k + 1] + lkk * lkk
        if den * x >= num * d[k] * d[k]:  # Lovasz, with DEFAULT_DELTA = num / den
            k += 1
            continue
        # swap b_(k-1) and b_k; d[k] and lam[i][k - 1 : k + 1] change for i > k
        swaps += 1
        u[k - 1], u[k] = u[k], u[k - 1]
        w[k - 1], w[k] = w[k], w[k - 1]
        for row in w:
            row[k - 1], row[k] = row[k], row[k - 1]
        lam[k - 1][: k - 1], lam[k][: k - 1] = lam[k][: k - 1], lam[k - 1][: k - 1]
        b = x // d[k]
        for li in lam[k + 1 :]:
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lkk * t) // d[k]
            li[k - 1] = (b * t + lkk * li[k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)

    dets, lam = _verify_lll(rows, det_g, u, w)
    u, w, lam = (tuple(map(tuple, m)) for m in (u, w, lam))
    return LLLResult(u, w, swaps, scale, element, tuple(dets), lam)


def _verify_lll(g, det_g, u, w):
    """Check the reduction against g, whose determinant det_g was read before
    the loop, and against a fresh _fraction_free(w) that shares nothing with
    the loop's bookkeeping; return its (dets, lam).  With mu[i][j] =
    lam[i][j] / dets[j + 1] and B_i = dets[i + 1] / dets[i], every test is in
    integers.  Once u * g * u^T == w, det w = det(u)^2 * det_g, so
    det w == det_g shows that the integral u is unimodular."""
    n = len(g)
    status, _, dets, lam = _fraction_free(w)
    if status != "positive_definite":
        raise VerificationError(
            f"LLL-reduced Gram matrix is {status} after LLL found the form "
            "positive definite"
        )
    ug = [[sum(map(operator.mul, ui, col)) for col in zip(*g)] for ui in u]
    if [[sum(map(operator.mul, r, uj)) for uj in u] for r in ug] != w:
        raise VerificationError("LLL Gram bookkeeping mismatch")
    if dets[n] != det_g:
        raise VerificationError(f"LLL transform is not unimodular (det^2 {Fraction(dets[n], det_g)})")
    num, den = DEFAULT_DELTA.numerator, DEFAULT_DELTA.denominator
    for i in range(n):
        for j in range(i):
            if 2 * abs(lam[i][j]) > dets[j + 1]:  # |mu| > 1/2
                raise VerificationError(f"basis not size-reduced at ({i},{j})")
        if i and den * (dets[i + 1] * dets[i - 1] + lam[i][i - 1] ** 2) < num * dets[i] ** 2:
            raise VerificationError(f"Lovasz condition fails at {i}")
    return dets, lam


# ---------------------------------------------------------------------------
# bounded enumeration


class _OrbitNorms(dict):
    """Norms of one enumeration's integral vectors x, by coefficients, given
    N(x)^2 <= sq_bound: a missing one is the product of x's values at the
    roots of split_table mod M, M^2 > 4 * sq_bound, read as the residue of
    least absolute value, and filed under all of ring.norm_orbit."""

    def __init__(self, ring, sq_bound: Fraction):
        self.ring, self.sq_bound = ring, sq_bound

    @cached_property
    def table(self):  # each prime is above 2^20, so M^2 > 2^(40 * primes)
        m, rows = split_table(self.ring, -(-math.ceil(4 * self.sq_bound).bit_length() // 40))
        if m * m <= 4 * self.sq_bound:
            raise VerificationError(f"split modulus {m} does not cover the norm bound")
        return m, rows

    def __missing__(self, coeffs: tuple[int, ...]) -> Fraction:
        m, rows = self.table
        acc = 1
        for row in rows:
            acc = acc * sum(map(operator.mul, coeffs, row)) % m
        norm = Fraction(acc - m if 2 * acc > m else acc)
        self.update(dict.fromkeys(self.ring.norm_orbit(coeffs), norm))
        return norm


@dataclass(frozen=True)
class FoundVector:
    """A lattice vector, its form value, and its field norm as an element of
    a trace form's field (None for raw Gram rows), computed when first read,
    at split primes (_OrbitNorms)."""

    coeffs: tuple[int, ...]
    value: Fraction
    norms: _OrbitNorms | None = field(default=None, repr=False, compare=False)

    @property
    def norm(self) -> Fraction | None:
        return None if self.norms is None else self.norms[self.coeffs]

    def to_json_dict(self) -> dict:
        d = {"coeffs": [str(c) for c in self.coeffs], "value": str(self.value)}
        if self.norm is not None:
            d["norm"] = str(self.norm)
        return d


@dataclass(frozen=True)
class EnumerationResult:
    bound: Fraction
    vectors: tuple[FoundVector, ...]  # ascending (value, coeffs)
    nodes: int


def _prepare(g) -> LLLResult:
    """Scale and LLL-reduce g once; a reduced form passes through."""
    return g if isinstance(g, LLLResult) else lll_reduce(g)


def enumerate_below(
    g,
    bound,
    *,
    strict: bool = False,
    node_cap: int = DEFAULT_NODE_CAP,
    result_cap: int = DEFAULT_RESULT_CAP,
) -> EnumerationResult:
    """Every nonzero vector v, up to sign, with v G v^T <= bound, or < bound
    when strict.

    G must be positive definite, so the list is finite and the enumeration is
    exhaustive; exceeding node_cap or result_cap raises BudgetError.  When G
    came from the trace form of a, each vector's norm is the field norm of
    the corresponding element x, one evaluation per orbit under
    x -> +-zeta^j x, exact because N(x)^2 <= (bound * den(a) / d)^d: AM-GM
    over the d positive terms of Tr(a x conj(x)), and N(den(a) a) >= 1.

    Fincke-Pohst over the LDL factors of the LLL-reduced form, read off its
    integer dets and lam, in integers only.  Level l adds
    pivot_l * (t + c_l)^2 with c_l = sum_{j>l} L[j][l] v_j; with den_l the
    common denominator of column l of L and s that of every
    pivot_l / den_l^2, s times that step is k_l * (t * den_l + C_l)^2 for
    integers k_l and C_l, so each interval end is an exact isqrt, and the
    steps sum to at most floor(s * scale * bound), or ceil(...) - 1 when
    strict.  While the coordinates above a level are all 0, C_l = 0 and t
    runs over t >= 0 only, so no -v twin is visited.

    Only the reduced-basis coordinates v are kept on the way down.  Each
    frame works out its children's centres and intervals, so an empty
    interval costs no call.  A level-0 interval is counted in one step, and
    the original-basis coordinates sum_l v_l u[l] are built only for the
    vectors it keeps.  When a cap would trip inside a level-0 interval, that
    interval is replayed node by node, so a BudgetError carries the nodes
    and results of a node-by-node walk.
    """
    bound = Fraction(bound)
    form = _prepare(g)
    u, dets, lam = form.transform, form.dets, form.lam
    n = len(u)
    # L[j][l] = lam[j][l] / dets[l + 1] and pivot_l = dets[l + 1] / dets[l]; with
    # g_l = gcd(dets[l + 1], lam[l + 1:][l]), den_l = dets[l + 1] / g_l
    gs = [math.gcd(dets[l + 1], *(lam[j][l] for j in range(l + 1, n))) for l in range(n)]
    dens = [dets[l + 1] // g for l, g in enumerate(gs)]
    weights = [Fraction(dets[l + 1], dets[l] * dens[l] * dens[l]) for l in range(n)]
    s = math.lcm(*(w.denominator for w in weights))
    ks = [w.numerator * (s // w.denominator) for w in weights]
    # C_l = near[l] * v_(l+1) + the sum over far[l] of L[j][l] * den_l * v_j;
    # the frame at level l + 1 sums far[l] once and hands each child its C_l
    near = [lam[l + 1][l] // gs[l] for l in range(n - 1)]
    far = [
        [(j, lam[j][l] // gs[l]) for j in range(l + 2, n) if lam[j][l]]
        for l in range(n - 1)
    ]

    scaled = bound * form.scale * s
    top = math.ceil(scaled) - 1 if strict else math.floor(scaled)
    if top < 0:
        return EnumerationResult(bound, (), 0)
    nodes = results = 0
    found: list[tuple[int, tuple[int, ...]]] = []  # (s * scale * value, coords)
    v = [0] * n  # reduced-basis coordinates of the levels above the current one
    u0 = u[0]

    def over(what, cap):
        return BudgetError(
            f"enumeration exceeded {what} cap {cap}", nodes=nodes, results=results
        )

    def recurse(lvl: int, rem: int, free: int, c: int, lo: int, hi: int):
        # the non-empty run lo..hi of level lvl below v[lvl + 1:]; rem: top
        # minus the steps above lvl; free: a coordinate above lvl is nonzero;
        # c: the integer centre C_lvl
        nonlocal nodes, results
        k, den = ks[lvl], dens[lvl]
        if lvl == 0:
            count = hi - lo + 1
            kept = count if free else count - 1  # not free: t = 0 is the zero vector
            if nodes + count > node_cap or results + kept > result_cap:
                for t in range(lo, hi + 1):  # a cap trips in this run: replay it
                    nodes += 1
                    if nodes > node_cap:
                        raise over("node", node_cap)
                    if free or t:
                        results += 1
                        if results > result_cap:
                            raise over("result", result_cap)
            else:
                nodes += count
                results += kept
            base = [0] * n  # original-basis coordinates, built for kept vectors only
            for l in range(1, n):
                if vl := v[l]:
                    base = [b + vl * r for b, r in zip(base, u[l])]
            for t in range(lo if free else 1, hi + 1):
                coords = [b + t * r for b, r in zip(base, u0)]
                if next(a for a in coords if a) < 0:
                    coords = [-a for a in coords]
                x = t * den + c
                found.append((top - rem + k * x * x, tuple(coords)))
            return
        # each child's interval is worked out here, so an empty one costs no call
        kc, dc, nb = ks[lvl - 1], dens[lvl - 1], near[lvl - 1]
        cb = 0
        for j, lj in far[lvl - 1]:
            cb += lj * v[j]
        for t in range(lo, hi + 1):
            nodes += 1
            if nodes > node_cap:
                raise over("node", node_cap)
            x = t * den + c
            r, cc, f = rem - k * x * x, cb + nb * t, free or t
            m = math.isqrt(r // kc)  # |t' * dc + cc| <= m one level down
            lc = -((m + cc) // dc) if f else 0
            hc = (m - cc) // dc
            if lc <= hc:
                v[lvl] = t
                recurse(lvl - 1, r, f, cc, lc, hc)

    recurse(n - 1, top, 0, 0, 0, math.isqrt(top // ks[-1]) // dens[-1])
    found.sort()

    norms, a = None, form.element
    if a is not None:
        d = a.ctx.degree
        norms = _OrbitNorms(a.ctx, (bound * a.den / d) ** d)
    vectors, last = [], None
    for val, coords in found:
        if val != last:  # sorted, so each distinct value is built once
            last, value = val, Fraction(val, s * form.scale)
        vectors.append(FoundVector(coords, value, norms))
    return EnumerationResult(bound=bound, vectors=tuple(vectors), nodes=nodes)


@dataclass(frozen=True)
class MinimaReport:
    """Minimum of the form and every vector attaining it (up to sign)."""

    mu: Fraction
    minima: tuple[FoundVector, ...]
    exhaustive_bound: Fraction
    nodes: int

    def to_json_dict(self) -> dict:
        return {
            "mu": str(self.mu),
            "minima": [m.to_json_dict() for m in self.minima],
            "exhaustive_bound": str(self.exhaustive_bound),
            "nodes_visited": self.nodes,
        }


def shortest(g, *, node_cap: int = DEFAULT_NODE_CAP) -> MinimaReport:
    """Exact minimum of the positive-definite form and all attaining vectors.

    The initial bound is the smallest diagonal entry of the LLL-reduced Gram,
    which some lattice vector attains, so the enumeration below it is
    exhaustive and the reported minimum is certified.
    """
    form = _prepare(g)
    start = Fraction(min(row[i] for i, row in enumerate(form.gram)), form.scale)
    res = enumerate_below(form, start, node_cap=node_cap)
    if not res.vectors:
        raise VerificationError(f"no vector attains the basis-vector bound {start}")
    mu = res.vectors[0].value
    minima = tuple(fv for fv in res.vectors if fv.value == mu)
    return MinimaReport(mu=mu, minima=minima, exhaustive_bound=res.bound, nodes=res.nodes)
