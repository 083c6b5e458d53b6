"""Exact lattice tools: LLL reduction and bounded enumeration.

Everything here is integral: LLL keeps only the transform and the
Gram-Schmidt data (leading minors and scaled mu) in integers, the reduced
Gram is formed once from the transform, a fresh fraction-free elimination
of it checks the reduction, and enumeration reads that elimination and runs
over one common denominator, with exact integer square roots for the
interval ends.  A successful run is therefore a proof; post-conditions
raise VerificationError on any inconsistency.

Enumeration returns each nonzero vector once up to sign, with a canonical
representative (first nonzero coordinate positive), and never visits the
other: slice l holds the v with v_l >= 1 and v_(l+1:) = 0 in reduced
coordinates, and raw rows and forms over K_N+, where only -1 acts, walk all
n.  On the trace form of an element of K_N of degree >= 2 the top slice
alone is closed under x -> zeta * x, which keeps the form, the value and
the norm: were the top coordinate of zeta^j x 0 for every j, that linear
form would vanish on Q[zeta] x, the whole field as Phi_N is irreducible;
so every orbit of a nonzero x meets the top slice up to sign.  The bound
is inclusive, or strict on request.  Every value of an
integral form G is a multiple of its norm group g = gcd(G_ii, 2 G_ij), as
v G v^T = sum G_ii v_i^2 + sum_{i<j} 2 G_ij v_i v_j; so a scan walks only
up to the last multiple of g within its bound, and no vector lies between
the two.  On a trace form each vector carries its exact field norm, from
checked roots at split primes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import islice

from .errors import BudgetError, NotTotallyPositiveError, VerificationError
from .field import CycloElement, _times_x, split_table
from .numtheory import SPLIT_PRIME_BITS
from .traceform import _coerce_gram, _fraction_free

DEFAULT_DELTA = Fraction(99, 100)
DEFAULT_NODE_CAP = 10_000_000
DEFAULT_RESULT_CAP = 1_000_000


def _axpy(p: list, t: int, r) -> list:
    """p + t * r, entry by entry (p itself when t == 0); +-1 in one map."""
    if t in (1, -1):
        return list(map(operator.add if t == 1 else operator.sub, p, r))
    return [a + t * b for a, b in zip(p, r)] if t else p


# ---------------------------------------------------------------------------
# LLL


@dataclass(frozen=True)
class LLLResult:
    """transform is unimodular, and gram is transform * G * transform^T for
    G = scale * g, formed from the transform by the check; dets and lam, from
    _fraction_free(gram), checked the reduction.  Enumeration reads this;
    element is a trace form's, else None."""

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
    of the current basis's Gram, and lam[k][j] = d[j + 1] * mu[k][j] come
    from the elimination behind ldl and are updated in integers, by exact
    divisions; with the transform they are the loop's whole state.  That
    elimination decides positive definiteness: a form that is not raises
    NotTotallyPositiveError, which names the element of a trace form and
    reports the pivot of the unscaled matrix.  The trace form of an element
    of K_N of degree >= 2 must be kept by x -> zeta * x, which enumeration
    closes its slice under; VerificationError otherwise.
    """
    scale, rows, element = _coerce_gram(g)
    n = len(rows)
    zeta_acts = isinstance(element, CycloElement) and n > 1
    if zeta_acts and not _zeta_keeps(rows, element.ctx.cyclo_poly):
        raise VerificationError(f"x -> zeta * x does not keep the trace form of {element!r}")
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    status, stop, d, lam = _fraction_free(rows)
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
        lam[k - 1][: k - 1], lam[k][: k - 1] = lam[k][: k - 1], lam[k - 1][: k - 1]
        b = x // d[k]
        for li in lam[k + 1 :]:
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - lkk * t) // d[k]
            li[k - 1] = (b * t + lkk * li[k]) // d[k + 1]
        d[k] = b
        k = max(k - 1, 1)

    w, dets, lam = _verify_lll(rows, det_g, u)
    u, w, lam = (tuple(map(tuple, m)) for m in (u, w, lam))
    return LLLResult(u, w, swaps, scale, element, tuple(dets), lam)


def _zeta_keeps(g, f) -> bool:
    """Whether x -> x * x mod f preserves the symmetric form g: Z g Z^T == g,
    Z's rows being x * e_i mod f.  Those rows are shifts but for the last,
    so adding up the rows of m they select makes Z m cost O(n^2)."""
    n = len(g)
    z = [_times_x([int(i == j) for j in range(n)], f) for i in range(n)]

    def z_times(m):  # Z m: each row of Z adds up the rows of m it selects
        return [reduce(lambda p, cr: _axpy(p, *cr), zip(zi, m), [0] * n) for zi in z]

    return z_times(list(zip(*z_times(g)))) == g  # Z (Z g)^T = Z g^T Z^T


def _verify_lll(g, det_g, u):
    """Form w = u * g * u^T, the reduced Gram, and check the reduction against
    g, whose determinant det_g was read before the loop, with a fresh
    _fraction_free(w) that reuses none of the loop's minors; return
    (w, dets, lam).  With mu[i][j] = lam[i][j] / dets[j + 1] and B_i =
    dets[i + 1] / dets[i], every test is in integers.  det w = det(u)^2 *
    det_g, so det w == det_g shows that the integral u is unimodular."""
    n = len(g)
    ug = [[sum(map(operator.mul, ui, col)) for col in zip(*g)] for ui in u]
    w = [[sum(map(operator.mul, r, uj)) for uj in u] for r in ug]
    status, _, dets, lam = _fraction_free(w)
    if status != "positive_definite":
        raise VerificationError(
            f"LLL-reduced Gram matrix is {status} after LLL found the form "
            "positive definite"
        )
    if dets[n] != det_g:
        raise VerificationError(f"LLL transform is not unimodular (det^2 {Fraction(dets[n], det_g)})")
    num, den = DEFAULT_DELTA.numerator, DEFAULT_DELTA.denominator
    for i in range(n):
        for j in range(i):
            if 2 * abs(lam[i][j]) > dets[j + 1]:  # |mu| > 1/2
                raise VerificationError(f"basis not size-reduced at ({i},{j})")
        if i and den * (dets[i + 1] * dets[i - 1] + lam[i][i - 1] ** 2) < num * dets[i] ** 2:
            raise VerificationError(f"Lovasz condition fails at {i}")
    return w, dets, lam


# ---------------------------------------------------------------------------
# bounded enumeration


@dataclass(frozen=True)
class FoundVector:
    """A lattice vector, its form value and, for a trace form, the field norm
    of its element (None for raw Gram rows), from the enumeration's root table."""

    coeffs: tuple[int, ...]
    value: Fraction
    norm: int | None = field(default=None, compare=False)

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


def _root_table(a, bound: Fraction, u):
    """(M, rows): rows[l] is u[l] followed by b_l(r_i) mod M, b_l having
    coefficients u[l] and r_i running over the roots of split_table, and the
    odd M has M^2 > 4 * (bound * den(a) / d)^d."""
    d = a.ctx.degree
    sq_bound = (bound * a.den / d) ** d
    # each prime is above 2^SPLIT_PRIME_BITS, so M^2 > 2^(2 * SPLIT_PRIME_BITS * primes)
    primes = -(-math.ceil(4 * sq_bound).bit_length() // (2 * SPLIT_PRIME_BITS))
    m, powers = split_table(a.ctx, primes)
    if m * m <= 4 * sq_bound:
        raise VerificationError(f"split modulus {m} does not cover the norm bound")
    # a zeta orbit copies its representative's norm: N(-1) = N(zeta) = 1
    if isinstance(a, CycloElement) and d > 1 and (d % 2 or math.prod(powers[1]) % m != 1):
        raise VerificationError(f"N(-1) or N(zeta) is not 1 for the roots mod {m}")
    table = []
    for ul in u:  # a reduced basis is sparse: add up the powers it uses
        vals = [0] * len(powers)
        for c, col in zip(ul, powers):
            vals = _axpy(vals, c, col)
        table.append(ul + tuple(y % m for y in vals))
    return m, table


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
    exhaustive; exceeding node_cap or result_cap raises BudgetError.  On the
    trace form of a in K_N of degree >= 2 the tree is the slice v_(n-1) >= 1,
    closed under zeta: each orbit has m = N (odd N) or N / 2 members up to
    sign, of one value and norm.  node_cap bounds the slice's nodes and
    result_cap the closed list.  VerificationError unless zeta keeps the form
    (lll_reduce checks), the root table has N(-1) = N(zeta) = 1, and each
    orbit returns to +-x at step m and no sooner.

    On any trace form each vector carries the norm of its element x, the
    least absolute residue of the product of x's values at the roots of
    _root_table, exact as N(x)^2 <= (bound * den(a) / d)^d: AM-GM over the d
    positive terms of Tr(a x conj(x)), and N(den(a) a) >= 1.

    Fincke-Pohst over the LDL factors of the LLL-reduced form, from its
    integer dets and lam.  Level l adds pivot_l * (t + c_l)^2, c_l =
    sum_{j>l} L[j][l] v_j; over den_l, the common denominator of column l of
    L, and s, that of every pivot_l / den_l^2, s times the step is
    k_l * (t * den_l + C_l)^2 with integers k_l, C_l: each interval end is an
    exact isqrt, and the steps sum to at most top: floor(s * scale * bound),
    or ceil(...) - 1 when strict, rounded down to a multiple of s * g.  g, the
    gcd of the reduced Gram's diagonal and doubled off-diagonal entries, is
    the lattice's norm group, the same for every basis, and s * g divides
    every scaled value, so no vector lies above the rounded top and within
    the bound.  A top below s * g admits no nonzero vector and visits no
    node; the result's bound stays the caller's, and the root table is sized
    from top.  Slice l starts at level l with C_l = 0 and t >= 1, so no -v
    twin and no zero vector is visited.

    Frames keep only the reduced-basis coordinates v and work out their
    children's intervals, so an empty one costs no call.  A level-0 run is
    counted in one step (replayed node by node if a cap trips in it); its
    vectors read coordinates and root values off P_1 + t rows[0], the prefix
    P_l = sum_{j>=l} v_j rows[j] being rebuilt from the highest changed v.
    """
    bound = Fraction(bound)
    form = _prepare(g)
    u, dets, lam = form.transform, form.dets, form.lam
    n = len(u)
    if not n:  # a 0-dimensional lattice has no nonzero vector
        return EnumerationResult(bound, (), 0)
    # L[j][l] = lam[j][l] / dets[l + 1] and pivot_l = dets[l + 1] / dets[l]; with
    # g_l = gcd(dets[l + 1], lam[l + 1:][l]), den_l = dets[l + 1] / g_l
    gs = [math.gcd(dets[l + 1], *(lam[j][l] for j in range(l + 1, n))) for l in range(n)]
    dens = [dets[l + 1] // g for l, g in enumerate(gs)]
    weights = [Fraction(dets[l + 1], dets[l] * dens[l] * dens[l]) for l in range(n)]
    s = math.lcm(*(w.denominator for w in weights))
    ks = [w.numerator * (s // w.denominator) for w in weights]

    scaled = bound * form.scale * s
    top = math.ceil(scaled) - 1 if strict else math.floor(scaled)
    # s * g, g the norm group of the reduced Gram w, divides s * scale * value
    w = form.gram
    diagonal = (r[i] for i, r in enumerate(w))
    step = s * math.gcd(*diagonal, *(2 * x for i, r in enumerate(w) for x in r[:i]))
    top -= top % step
    if top < step:  # a nonzero vector's scaled value is at least s * g
        return EnumerationResult(bound, (), 0)
    stepped = Fraction(top // s, form.scale)  # the bound rounded down, for the root table
    # level l: k_l, den_l, then k, den, near, far of level l - 1, where C_(l-1) =
    # near * v_l + sum over far of the nonzero L[j][l-1] * den_(l-1) * v_j, j > l
    levels = [(ks[0], dens[0])] + [
        (ks[l], dens[l], ks[l - 1], dens[l - 1], lam[l][l - 1] // gs[l - 1],
         [(j, lam[j][l - 1] // gs[l - 1]) for j in range(l + 1, n) if lam[j][l - 1]])
        for l in range(1, n)
    ]
    nodes = results = 0
    found: list[tuple[int, tuple[int, ...], int | None]] = []  # (s * scale * value, coords, norm)
    v = [0] * n  # reduced-basis coordinates of the levels above the current one
    # the root table and the prefixes P_1 .. P_n (P_n = 0), built at the first
    # kept vector; P_l is current for the levels l above `stale`
    mod = rows = None
    pre, stale = [None] * n, n - 1
    flip = -1 if (a := form.element) is not None and a.ctx.degree % 2 else 1
    orbit = isinstance(a, CycloElement) and n > 1  # zeta acts: walk the slice v[n - 1] >= 1

    def over(what, cap):
        return BudgetError(
            f"enumeration exceeded {what} cap {cap}", nodes=nodes, results=results
        )

    def recurse(lvl: int, rem: int, c: int, lo: int, hi: int):
        # the non-empty run lo..hi of level lvl below v[lvl + 1:], which holds
        # no zero vector; rem: top minus the steps above lvl; c: the integer
        # centre C_lvl
        nonlocal nodes, results, mod, rows, stale
        if lvl == 0:
            k, den = levels[0]
            count = hi - lo + 1
            if nodes + count > node_cap or results + count > result_cap:
                for _ in range(count):  # a cap trips in this run: replay it to the stop
                    nodes += 1
                    if nodes > node_cap:
                        raise over("node", node_cap)
                    results += 1
                    if results > result_cap:
                        raise over("result", result_cap)
            nodes += count
            results += count
            if rows is None:
                mod, rows = (None, u) if a is None else _root_table(a, stepped, u)
                pre.append([0] * len(rows[0]))
            for l in range(stale, 0, -1):
                pre[l] = _axpy(pre[l + 1], v[l], rows[l])
            stale = 0
            p1, r0, x = pre[1], rows[0], lo * den + c
            for t in range(lo, hi + 1):
                w = _axpy(p1, t, r0)
                coords, sign = w[:n], 1
                if next(filter(None, coords)) < 0:
                    coords, sign = map(operator.neg, coords), flip  # N(-x) = (-1)^d N(x)
                norm = mod and (sign * math.prod(w[n:]) + mod // 2) % mod - mod // 2  # M odd
                found.append((top - rem + k * x * x, tuple(coords), norm))
                x += den
            return
        # each child's interval is worked out here, so an empty one costs no call
        k, den, kc, dc, nb, far = levels[lvl]
        cb = 0
        for j, lj in far:
            cb += lj * v[j]
        x, cc = lo * den + c, cb + nb * lo
        for t in range(lo, hi + 1):
            nodes += 1
            if nodes > node_cap:
                raise over("node", node_cap)
            r = rem - k * x * x
            m = math.isqrt(r // kc)  # |t' * dc + cc| <= m one level down
            lc = -((m + cc) // dc)
            hc = (m - cc) // dc
            if lc <= hc:
                v[lvl] = t
                if stale < lvl:
                    stale = lvl
                recurse(lvl - 1, r, cc, lc, hc)
            x += den
            cc += nb

    for l in [n - 1] if orbit else range(n):  # slice l, skipped when empty
        if hi := math.isqrt(top // ks[l]) // dens[l]:
            recurse(l, top, 0, 1, hi)
    if orbit:  # close the slice under x -> zeta * x, each orbit walked once
        big_n, f = a.ctx.conductor, a.ctx.cyclo_poly
        m = big_n if big_n % 2 else big_n // 2  # zeta^m = +-1, and no lower power
        pending = {x for _, x, _ in found}  # slice vectors whose orbit is not walked yet
        for val, x, norm in islice(found, len(found)):  # the slice, not what it appends
            if x not in pending:
                continue
            y = x
            for j in range(1, m + 1):
                y = _times_x(y, f)
                y = tuple(map(operator.neg, y) if next(filter(None, y)) < 0 else y)
                if (y == x) != (j == m):
                    raise VerificationError(f"zeta^{j} * {x} is {'not ' * (j == m)}+-{x}")
                if y in pending:
                    pending.remove(y)
                elif j < m:  # outside the slice; N(zeta) = 1 and the value is kept
                    found.append((val, y, norm))
                    if len(found) > result_cap:
                        results = len(found)
                        raise over("result", result_cap)
        del pending  # a set's table keeps its size as it empties; free it before the build
    found.sort()

    vectors, last = [], None
    for val, coords, norm in found:
        if val != last:  # sorted, so each distinct value is built once
            last, value = val, Fraction(val, s * form.scale)
        vectors.append(FoundVector(coords, value, norm))
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
    if not form.gram:
        raise ValueError("shortest needs a nonempty form: a 0-dimensional lattice has no minimum")
    start = Fraction(min(row[i] for i, row in enumerate(form.gram)), form.scale)
    res = enumerate_below(form, start, node_cap=node_cap)
    if not res.vectors:
        raise VerificationError(f"no vector attains the basis-vector bound {start}")
    mu = res.vectors[0].value
    minima = tuple(fv for fv in res.vectors if fv.value == mu)
    return MinimaReport(mu=mu, minima=minima, exhaustive_bound=res.bound, nodes=res.nodes)
