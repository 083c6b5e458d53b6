import bisect
import dataclasses
import math
import random
import sys
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest

import unitred.field as field
import unitred.svp as svp
import unitred.traceform as traceform
from unitred.errors import BudgetError, NotTotallyPositiveError, VerificationError
from unitred.field import CycloElement, make_field
from unitred.numtheory import euler_phi
from unitred.realfield import _real_witness_data, make_real_field, verify_real_witness
from unitred.serialize import dumps_canonical
from unitred.svp import EnumerationResult, enumerate_below, lll_reduce, shortest
from unitred.traceform import gram, is_totally_positive, ldl
from unitred.witness import verify_witness, witness_for_conductor

from linalg_helpers import fraction_det, invert_exact, mat_mul, transpose


def _rand_pd_gram(rng, dim, spread=2):
    # B^T B for random integer B with nonzero determinant; entries stay small
    while True:
        b = [[rng.randint(-spread, spread) for _ in range(dim)] for _ in range(dim)]
        if fraction_det([[Fraction(x) for x in row] for row in b]) != 0:
            return mat_mul(transpose(b), b)


def _brute_force_below(rows, bound):
    """All nonzero sign-canonical vectors with form value <= bound, via the
    rigorous coordinate box |z_i| <= sqrt(bound * (G^-1)_ii)."""
    dim = len(rows)
    inv = invert_exact([[Fraction(x) for x in row] for row in rows])
    radii = []
    for i in range(dim):
        r2 = bound * inv[i][i]
        radii.append(math.isqrt(math.floor(r2)) + 1)
    found = []
    for z in product(*(range(-r, r + 1) for r in radii)):
        if all(c == 0 for c in z):
            continue
        first = next(c for c in z if c != 0)
        if first < 0:
            continue  # sign-canonical representative only
        val = sum(rows[i][j] * z[i] * z[j] for i in range(dim) for j in range(dim))
        if val <= bound:
            found.append((Fraction(val), z))
    found.sort(key=lambda t: (t[0], t[1]))
    return found


def test_lll_transform_is_unimodular_and_consistent():
    rng = random.Random(501)
    for _ in range(30):
        dim = rng.randint(2, 5)
        g = _rand_pd_gram(rng, dim)
        res = lll_reduce(g)
        u = [list(row) for row in res.transform]
        assert abs(fraction_det([[Fraction(x) for x in r] for r in u])) == 1
        back = mat_mul(mat_mul(u, g), transpose(u))
        assert [tuple(row) for row in back] == [tuple(row) for row in res.gram]


def test_verify_lll_rejects_a_consistent_transform_of_determinant_2():
    # w = u * g * u^T = diag(1, 4) is size-reduced and Lovasz-reduced, but
    # det u = 2: only comparing det w with det g can catch it
    g, u = [[1, 0], [0, 1]], [[1, 0], [0, 2]]
    with pytest.raises(VerificationError, match=r"not unimodular \(det\^2 4\)"):
        svp._verify_lll(g, 1, u)
    assert svp._verify_lll(g, 1, g)[0] == g  # u = 1 passes


I2, I3 = [[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "g, u, message",
    [
        # w = u * g * u^T is not positive definite
        pytest.param([[1, 2], [2, 1]], I2, "Gram matrix is indefinite after LLL found",
                     id="indefinite-2x2"),
        pytest.param([[1, 0, 0], [0, 1, 1], [0, 1, 1]], I3,
                     "Gram matrix is singular after LLL found", id="singular-3x3"),
        # w = [[1, 1], [1, 2]]: mu = 1 at (1, 0); w = [[1, 0, -1], [0, 1, 0],
        # [-1, 0, 2]]: mu = -1 at (2, 0)
        pytest.param(I2, [[1, 0], [1, 1]], r"not size-reduced at \(1,0\)", id="size-2x2"),
        pytest.param(I3, [[1, 0, 0], [0, 1, 0], [-1, 0, 1]], r"not size-reduced at \(2,0\)",
                     id="size-3x3"),
        # B_i < (99/100 - mu^2) * B_(i-1): B = (4, 1); B = (4, 2) with mu = 1/2,
        # just under (99/100 - 1/4) * 4; B = (100, 98), just under 99
        pytest.param([[4, 0], [0, 1]], I2, "Lovasz condition fails at 1", id="lovasz-2x2"),
        pytest.param([[4, 2], [2, 3]], I2, "Lovasz condition fails at 1", id="lovasz-mu-2x2"),
        pytest.param([[100, 0], [0, 98]], I2, "Lovasz condition fails at 1",
                     id="lovasz-edge-2x2"),
        pytest.param([[1, 0, 0], [0, 4, 0], [0, 0, 1]], I3, "Lovasz condition fails at 2",
                     id="lovasz-3x3"),
    ],
)
def test_verify_lll_refuses_each_broken_reduction(g, u, message):
    det_g = fraction_det(g)
    with pytest.raises(VerificationError, match=message):
        svp._verify_lll(g, det_g, u)


@pytest.mark.parametrize(
    "g",
    [[[2, 1], [1, 2]], [[2, -1], [-1, 2]], [[4, 2], [2, 4]], [[100, 0], [0, 99]]],
    ids=["mu-half", "mu-minus-half", "lovasz-mu-edge", "lovasz-edge"],
)
def test_verify_lll_accepts_the_boundaries(g):
    # |mu| = 1/2 is size-reduced, and B_1 = (99/100 - mu^2) * B_0 is Lovasz-reduced
    det_g = g[0][0] * g[1][1] - g[0][1] ** 2
    assert svp._verify_lll(g, det_g, I2) == (g, [1, g[0][0], det_g], [[0, 0], [g[1][0], 0]])


@pytest.mark.parametrize(
    "rows",
    [[[1, 2], [3, 4]], [[2, 1, 0], [1, 2]], [[1], [2, 3]], [[1, 0], [0, 1], [0, 0]]],
    ids=["asymmetric", "ragged-long-first", "ragged-short-first", "3x2"],
)
def test_malformed_gram_rows_are_refused_on_every_way_in(rows):
    # traceform._coerce_gram is the one conversion of raw rows, for ldl and LLL
    for run in (ldl, lll_reduce, lambda g: enumerate_below(g, 1), shortest):
        with pytest.raises(ValueError, match="Gram matrix must be (square|symmetric)"):
            run(rows)


def test_the_zero_dimensional_form_has_no_nonzero_vector():
    assert enumerate_below([], 1) == EnumerationResult(Fraction(1), (), 0)
    with pytest.raises(ValueError, match="nonempty form"):
        shortest([])


def test_enumeration_matches_brute_force():
    rng = random.Random(502)
    for _ in range(40):
        dim = rng.randint(3, 4)
        g = _rand_pd_gram(rng, dim)
        bound = Fraction(rng.randint(4, 18))
        res = enumerate_below(g, bound)
        got = [(fv.value, fv.coeffs) for fv in res.vectors]
        assert got == _brute_force_below(g, bound)


def test_enumeration_inclusive_bound_and_order():
    g = [[2, 0], [0, 3]]
    res = enumerate_below(g, Fraction(3))
    assert [(fv.value, fv.coeffs) for fv in res.vectors] == [
        (Fraction(2), (1, 0)),
        (Fraction(3), (0, 1)),
    ]


@pytest.mark.parametrize("n", range(1, 8))
def test_identity_form_walks_one_slice_per_level(n):
    # slice l of I_n below 1 is v_l = 1 over zeros: l + 1 nodes, and no node
    # for a zero coordinate above it, so n(n + 1) / 2 nodes in all
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    res = enumerate_below(eye, 1)
    assert [fv.coeffs for fv in res.vectors] == [tuple(eye[n - 1 - i]) for i in range(n)]
    assert res.nodes == n * (n + 1) // 2


@pytest.mark.parametrize(
    "bound, strict", [(0, True), (-1, False), (Fraction(-1, 3), True), (Fraction(-1, 3), False)]
)
def test_enumeration_below_nothing_visits_no_node(bound, strict):
    # no nonzero vector of a positive-definite form has a value below 0 (or
    # at a negative bound), so the scan returns before its first node
    for g in ([[2, 1], [1, 3]], gram(make_field(5).one())):
        res = enumerate_below(g, bound, strict=strict)
        assert res.vectors == ()
        assert res.nodes == 0
        assert res.bound == bound


@pytest.mark.parametrize("bound, strict", [(1, False), (2, True), (Fraction(3, 2), False)])
def test_a_bound_below_one_value_step_visits_no_node(bound, strict):
    # every value of these forms is a multiple of 2, so no nonzero vector
    # lies below 2, nor at it on a strict scan; the scan returns at once
    for g in ([[4, 2], [2, 6]], [[2, 1], [1, 4]], gram(make_field(4).one())):
        assert _value_step(g) == 2
        res = enumerate_below(g, bound, strict=strict)
        assert res == EnumerationResult(Fraction(bound), (), 0)
    # K_12's 1 has trace 4 and value step 4, so nothing lies below Tr(1)
    one = make_field(12).one()
    assert _value_step(gram(one)) == one.trace() == 4
    assert enumerate_below(gram(one), 4, strict=True) == EnumerationResult(Fraction(4), (), 0)
    assert enumerate_below(gram(one), 4).nodes > 0


def test_value_step_of_the_rows_is_that_of_the_reduced_gram():
    # the norm group gcd(G_ii, 2 G_ij) is the same for every basis: read off
    # the raw rows it equals the one read off the LLL-reduced Gram
    rng = random.Random(509)
    grams = [_rand_rational_pd_gram(rng, 1 + k % 6) for k in range(60)]
    grams += [gram(make()) for make in WITNESS_FORMS.values()]
    for g in grams:
        form = lll_reduce(g)
        w = form.gram
        off_diagonal = (2 * x for i, r in enumerate(w) for x in r[:i])
        reduced = math.gcd(*(r[i] for i, r in enumerate(w)), *off_diagonal)
        assert _value_step(g) == Fraction(reduced, form.scale), g


def test_sign_canonical_first_nonzero_positive():
    rng = random.Random(503)
    g = _rand_pd_gram(rng, 3)
    res = enumerate_below(g, Fraction(30))
    for fv in res.vectors:
        assert next(c for c in fv.coeffs if c != 0) > 0


def test_shortest_unimodular_invariance():
    rng = random.Random(504)
    for _ in range(20):
        dim = rng.randint(2, 4)
        g = _rand_pd_gram(rng, dim)
        # random unimodular: product of elementary shears and swaps
        u = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for _ in range(6):
            i, j = rng.sample(range(dim), 2)
            c = rng.randint(-2, 2)
            for k in range(dim):
                u[i][k] += c * u[j][k]
        conj = mat_mul(mat_mul(u, g), transpose(u))
        assert shortest(conj).mu == shortest(g).mu


def test_shortest_scaling():
    rng = random.Random(505)
    g = _rand_pd_gram(rng, 3)
    mu = shortest(g).mu
    scaled = [[5 * x for x in row] for row in g]
    assert shortest(scaled).mu == 5 * mu


def test_shortest_identity_lattice():
    rep = shortest([[int(i == j) for j in range(4)] for i in range(4)])
    assert rep.mu == 1
    assert len(rep.minima) == 4


def test_shortest_hexagonal():
    rep = shortest([[2, 1], [1, 2]])
    assert rep.mu == 2
    assert {fv.coeffs for fv in rep.minima} == {(1, 0), (0, 1), (1, -1)}


def test_shortest_of_unit_form_over_8():
    rep = shortest(gram(make_field(8).one()))
    assert rep.mu == 4
    assert sorted(fv.coeffs for fv in rep.minima) == [
        (0, 0, 0, 1),
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
    ]


def test_minima_are_nonzero_integral_elements():
    # annotated norms on gram-born lattices are norms of nonzero elements
    rng = random.Random(506)
    ctx = make_field(12)
    for _ in range(10):
        b = ctx.element([rng.randint(-3, 3) for _ in range(4)])
        if b.is_zero():
            continue
        rep = shortest(gram(b * b.conj()))
        for fv in rep.minima:
            assert fv.norm is not None
            assert abs(fv.norm) >= 1


def test_node_budget_raises_with_counts():
    g = gram(make_field(15).one())
    with pytest.raises(BudgetError) as exc:
        enumerate_below(g, Fraction(40), node_cap=50)
    assert exc.value.nodes is not None
    assert exc.value.nodes >= 50


def test_a_node_cap_below_zero_stops_at_the_first_node():
    # slice 0 starts at level 0, so this stop is the one computed for a
    # level-0 run, with no node counted before it
    for g in ([[1]], [[2, 1], [1, 2]]):
        stop = _assert_matches_oracle(g, Fraction(9), node_cap=-1)
        assert stop[0] == "budget" and stop[2:] == (1, 0), g


def test_result_budget_raises(monkeypatch):
    monkeypatch.setattr(svp, "RESULT_CAP", 5)
    g = [[1, 0], [0, 1]]
    with pytest.raises(BudgetError) as exc:
        enumerate_below(g, Fraction(400))
    assert exc.value.results is not None


def test_rational_gram_scaling_consistency():
    # forms with denominators agree with their integer rescaling
    ctx = make_field(8)
    a = (ctx.one() + ctx.zeta()) * (ctx.one() + ctx.zeta()).conj()
    b = a.inverse()  # has denominator 2
    rep = shortest(gram(b))
    assert rep.mu == 4


def test_shortest_runs_lll_once(monkeypatch):
    ctx = make_field(15)
    x = ctx.element([1, -1, 0, 2, 0, 0, 1, 0])
    g = gram(x * x.conj())
    red = lll_reduce(g)
    start = Fraction(min(red.gram[i][i] for i in range(g.dim)), g.integer_scale()[0])
    expected = enumerate_below(g, start)

    calls = []
    orig = svp.lll_reduce

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(svp, "lll_reduce", counting)
    rep = shortest(g)
    assert len(calls) == 1
    mu = expected.vectors[0].value
    assert rep == svp.MinimaReport(
        mu=mu,
        minima=tuple(fv for fv in expected.vectors if fv.value == mu),
        exhaustive_bound=start,
        nodes=expected.nodes,
    )


def test_shortest_raises_typed_error_when_no_vector_attains_start(monkeypatch):
    # the starting bound is a basis vector's value, so an empty enumeration
    # is an internal inconsistency; it must raise even under python -O
    monkeypatch.setattr(
        svp, "enumerate_below", lambda g, bound, **kw: EnumerationResult(bound, (), 0)
    )
    with pytest.raises(VerificationError):
        shortest([[2, 1], [1, 2]])


# ---------------------------------------------------------------------------
# the Fraction recursion as a differential oracle for the integer kernel


def _floor_sqrt(q: Fraction) -> int:
    """floor(sqrt(q)) for q >= 0."""
    return math.isqrt(q.numerator * q.denominator) // q.denominator


def _fraction_enumerate(
    g,
    bound,
    *,
    half_space=False,
    strict=False,
    node_cap=svp.DEFAULT_NODE_CAP,
    result_cap=svp.RESULT_CAP,
    kept_at=None,
):
    """Fincke-Pohst in Fractions, as enumerate_below ran before its integer
    kernel: ([(value, coeffs)], nodes), or BudgetError at the same caps.
    kept_at, a list, gets the number of each node that keeps a vector.

    By default only the top coordinate is restricted to t >= 0, so the -v
    twins below a zero top coordinate are visited and count as results.
    half_space walks the integer kernel's slices instead: a level whose
    higher coordinates are all 0 first walks the levels below it, with its
    own coordinate 0 and no node for it, then t >= 1.  On the trace form of
    a CycloElement of degree >= 2 it walks only the slice t >= 1 of the top
    coordinate, and closes it under multiplication by zeta in the field's
    own arithmetic, the closed list counting against result_cap.  strict
    keeps every partial sum strictly below the bound."""
    bound = Fraction(bound)
    form = svp._prepare(g)
    dec = ldl(form.gram)
    u, dvec, low = form.transform, dec.pivots, dec.lower
    n = len(dvec)
    ring = form.element.ctx if isinstance(form.element, CycloElement) else None
    orbit = half_space and ring is not None and n > 1
    target = bound * form.scale
    if bound < 0:
        return [], 0
    cols = [
        [(j, low[j][lvl]) for j in range(lvl + 1, n) if low[j][lvl]]
        for lvl in range(n)
    ]
    nodes = 0
    found = []
    v = [0] * n

    def recurse(lvl, rem, used):
        nonlocal nodes
        c = Fraction(0)
        for j, lj in cols[lvl]:
            c += lj * v[j]
        r = rem / dvec[lvl]
        # integer-sqrt guess, then a one-step fixup with exact predicates
        s = _floor_sqrt(r)
        hi = math.floor(Fraction(s) - c)
        d = hi + 1 + c
        if d <= 0 or d * d <= r:
            hi += 1
        lo = math.ceil(Fraction(-s) - c)
        d = lo - 1 + c
        if d >= 0 or d * d <= r:
            lo -= 1
        if strict:  # the ends that reach the bound itself go
            while lo <= hi and (lo + c) ** 2 >= r:
                lo += 1
            while hi >= lo and (hi + c) ** 2 >= r:
                hi -= 1
        if lvl == n - 1 or (half_space and not any(v[lvl + 1:])):
            if half_space and lvl and not orbit:  # the slices below this one first
                recurse(lvl - 1, rem, used)
            lo = max(lo, int(half_space))  # with orbit only the top level gets here
        for t in range(lo, hi + 1):
            nodes += 1
            if nodes > node_cap:
                raise BudgetError(
                    f"enumeration exceeded node cap {node_cap}", nodes=nodes,
                    results=len(found),
                )
            v[lvl] = t
            step = dvec[lvl] * (t + c) ** 2
            if lvl == 0:
                if any(v):
                    found.append((used + step, tuple(v)))
                    if kept_at is not None:
                        kept_at.append(nodes)
                    if len(found) > result_cap:
                        raise BudgetError(
                            f"enumeration exceeded result cap {result_cap}",
                            nodes=nodes, results=len(found),
                        )
            else:
                recurse(lvl - 1, rem - step, used + step)
        v[lvl] = 0

    recurse(n - 1, target, Fraction(0))
    out = []
    for val, vec in found:
        if next(c for c in reversed(vec) if c) < 0:
            continue
        coords = [sum(vec[i] * u[i][t] for i in range(n)) for t in range(n)]
        if next(c for c in coords if c) < 0:
            coords = [-c for c in coords]
        out.append((val / form.scale, tuple(coords)))
    if orbit:
        closed, zeta = {}, ring.zeta()
        for val, coords in out:
            if coords in closed:
                continue
            x = ring.element(coords)
            for _ in range(ring.conductor):  # zeta^N = 1: the whole orbit
                x = x * zeta
                sign = 1 if next(c for c in x.num if c) > 0 else -1
                closed[tuple(sign * c for c in x.num)] = val
        out = [(val, coords) for coords, val in closed.items()]
        if len(out) > result_cap:
            raise BudgetError(
                f"enumeration exceeded result cap {result_cap}", nodes=nodes,
                results=result_cap + 1,
            )
    out.sort()
    return out, nodes


def _outcome(run):
    try:
        return run()
    except BudgetError as exc:
        return ("budget", str(exc), exc.nodes, exc.results)


def _value_step(g):
    """The gcd, in Fractions, of the diagonal and the doubled off-diagonal
    entries of g as given (a prepared form's element, or its rows over its
    scale): every value v G v^T is an integer combination of them."""
    if isinstance(g, svp.LLLResult):
        g = gram(g.element) if g.element is not None else [
            [Fraction(x, g.scale) for x in row] for row in g.gram
        ]
    if isinstance(g, traceform.GramMatrix):
        g = g.entries
    rows = [[Fraction(x) for x in r] for r in g]
    terms = [r[i] for i, r in enumerate(rows)] + [2 * x for i, r in enumerate(rows) for x in r[:i]]
    den = math.lcm(*(t.denominator for t in terms))
    return Fraction(math.gcd(*(t.numerator * (den // t.denominator) for t in terms)), den)


def _stepped_bound(g, bound, strict):
    """(the largest multiple of the value step at or below bound, or below
    it when strict, the step)."""
    step = _value_step(g)
    q = Fraction(bound) / step
    return (math.ceil(q) - 1 if strict else math.floor(q)) * step, step


def _assert_matches_oracle(g, bound, strict=False, **caps):
    """The kernel against the half-space twin: its vectors are the oracle's
    at the bound as given; its nodes and budget stops are the oracle's walk
    up to the stepped bound, inclusive, and none when that is below one
    step.  The walk lists the same vectors: none lies between the two.  The
    kernel reads a result_cap in caps from svp.RESULT_CAP."""

    def kernel():
        node_cap = caps.get("node_cap", svp.DEFAULT_NODE_CAP)
        with mock.patch.object(svp, "RESULT_CAP", caps.get("result_cap", svp.RESULT_CAP)):
            res = enumerate_below(g, bound, strict=strict, node_cap=node_cap)
        return [(fv.value, fv.coeffs) for fv in res.vectors], res.nodes

    top, step = _stepped_bound(g, bound, strict)
    walk = ([], 0) if top < step else _outcome(
        lambda: _fraction_enumerate(g, top, half_space=True, **caps)
    )
    if walk[0] == "budget" or (not strict and top == bound):  # the walk decides
        want = walk
    else:
        found, _ = _fraction_enumerate(g, bound, half_space=True, strict=strict)
        assert walk[0] == found, (bound, top, strict)
        want = (found, walk[1])
    assert _outcome(kernel) == want, (bound, strict, caps)
    return want


def _assert_matches_full_space(g, bounds):
    """At each bound, inclusive and strict, the kernel's vectors are those of
    the full-space oracle run once at the largest bound."""
    full, _ = _fraction_enumerate(g, max(bounds))
    for bound in bounds:
        for strict in (False, True):
            want = [fv for fv in full if fv[0] < bound or (fv[0] == bound and not strict)]
            res = enumerate_below(g, bound, strict=strict)
            assert [(fv.value, fv.coeffs) for fv in res.vectors] == want, (bound, strict)


def _rand_rational_pd_gram(rng, dim):
    # B^T B / d plus a nonnegative rational diagonal: positive definite, with
    # denominators in the pivots and in the columns of L
    b = _rand_pd_gram(rng, dim, spread=rng.choice((1, 2, 3)))
    d = rng.randint(1, 6)
    return [
        [Fraction(b[i][j], d) + (Fraction(rng.randint(0, 5), rng.randint(1, 7)) if i == j else 0)
         for j in range(dim)]
        for i in range(dim)
    ]


def test_integer_kernel_matches_fraction_oracle_on_random_forms():
    rng = random.Random(507)
    budgets = 0
    for trial in range(240):
        dim = 1 + trial % 8
        g = _rand_rational_pd_gram(rng, dim)
        top = max(g[i][i] for i in range(dim))
        bound = Fraction(rng.randint(-2, 25), 10) * top
        strict = trial % 2 == 1
        want = _assert_matches_oracle(g, bound, strict)
        if want[0] != "budget":
            # the bound itself, and a value some vector attains, both ways
            values = sorted({val for val, _ in want[0]})
            _assert_matches_full_space(g, [bound] + values[len(values) // 2 :][:1])
        if want[0] != "budget" and want[1] > 1:
            # caps that stop the tree part-way, on a node or on a result
            nodes, results = want[1], len(want[0])
            for caps in (
                {"node_cap": rng.randint(1, nodes - 1)},
                {"result_cap": rng.randint(0, 2 * results)},
                {"node_cap": rng.randint(1, nodes), "result_cap": rng.randint(0, results)},
            ):
                budgets += _assert_matches_oracle(g, bound, strict, **caps)[0] == "budget"
    assert budgets > 100


WITNESS_FORMS = {
    "witness 16": lambda: witness_for_conductor(16),
    "witness 25": lambda: witness_for_conductor(25),
    "witness 27": lambda: witness_for_conductor(27),
    "witness 32": lambda: witness_for_conductor(32),
    "real witness 32": lambda: _real_witness_data(32)[0],
    "real witness 49": lambda: _real_witness_data(49)[0],
}


@pytest.mark.parametrize("name", WITNESS_FORMS)
def test_integer_kernel_matches_fraction_oracle_on_witness_forms(name):
    a = WITNESS_FORMS[name]()
    form = svp._prepare(gram(a))  # both enumerators take the prepared form
    t = a.trace()
    for strict in (False, True):
        found, nodes = _assert_matches_oracle(form, t, strict)
        for caps in ({"node_cap": min(1500, nodes // 2)}, {"result_cap": len(found) // 2}):
            assert _assert_matches_oracle(form, t, strict, **caps)[0] == "budget"
    mu = found[0][0]
    for bound in (mu, Fraction(0), Fraction(-1)):
        for strict in (False, True):
            _assert_matches_oracle(form, bound, strict)
    _assert_matches_full_space(form, [t, mu])


@pytest.mark.parametrize("conductor, count", ((25, 8875), (32, 49840)))
def test_result_cap_counts_only_the_vectors_returned(conductor, count, monkeypatch):
    # no -v twin is visited, so a cap equal to the result's length suffices
    a = witness_for_conductor(conductor)
    form = svp._prepare(gram(a))
    t = a.trace()
    assert len(enumerate_below(form, t).vectors) == count
    monkeypatch.setattr(svp, "RESULT_CAP", count)
    assert len(enumerate_below(form, t).vectors) == count
    monkeypatch.setattr(svp, "RESULT_CAP", count - 1)
    with pytest.raises(BudgetError) as exc:
        enumerate_below(form, t)
    assert exc.value.results == count


def _first_leaf_run(form, bound, strict, span=3000):
    """The first nodes j, at least three in a row, that each keep a vector:
    consecutive leaves of one level-0 interval, since every node above level
    0 keeps none.  kept[j] is the number of vectors kept by the first j
    nodes, read off span nodes of the half-space oracle's walk to the
    stepped bound, which is the kernel's (the slice walk meets its first
    such run at node 2440 at witness 25)."""
    at, top = [], _stepped_bound(form, bound, strict)[0]
    _outcome(lambda: _fraction_enumerate(form, top, half_space=True, node_cap=span, kept_at=at))
    kept = [bisect.bisect_right(at, j) for j in range(span)]
    run = []
    for j in range(1, span):
        if kept[j] > kept[j - 1]:
            run.append(j)
        elif len(run) >= 3:
            return run, kept
        else:
            run = []
    raise AssertionError(f"no leaf run of three nodes in the first {span} nodes")


@pytest.mark.parametrize("name", ["witness 25", "witness 32", "real witness 49"])
def test_budget_stops_inside_a_leaf_run_match_the_oracle(name):
    # the kernel counts a level-0 interval in one step and, when a cap falls
    # inside it, computes the node where it trips; the stop must match the
    # oracle's at the first, middle and last node of the run, and just past it
    a = WITNESS_FORMS[name]()
    form = svp._prepare(gram(a))
    t = a.trace()
    for strict in (False, True):
        run, kept = _first_leaf_run(form, t, strict)
        for j in (run[0], run[len(run) // 2], run[-1]):
            for caps, results in (
                ({"node_cap": j - 1}, kept[j - 1]),
                ({"result_cap": kept[j] - 1}, kept[j]),
            ):
                stop = _assert_matches_oracle(form, t, strict, **caps)
                assert stop[0] == "budget" and stop[2:] == (j, results), (strict, caps)
        for caps in ({"node_cap": run[-1]}, {"result_cap": kept[run[-1]]}):
            stop = _assert_matches_oracle(form, t, strict, **caps)
            assert stop[0] == "budget" and stop[2] > run[-1], (strict, caps)


def _seeded_form(conductor, seed, inverse=False):
    """1 + the sum of three x * conj(x), x drawn with coefficients in -2..2;
    or, with inverse, 1 / (x * conj(x)) for one nonzero x with coefficients
    in -1..1, whose form, like a witness's, has many vectors below Tr(a)."""
    rng, ring, r = random.Random(seed), make_field(conductor), 1 if inverse else 2
    xs = [ring.element([rng.randint(-r, r) for _ in range(ring.degree)]) for _ in range(9)]
    xs = [x for x in xs if not x.is_zero()]
    if inverse:
        return (xs[0] * xs[0].conj()).inverse()
    return sum((x * x.conj() for x in xs[:3]), ring.one())


CLOSURE_CONDUCTORS = (3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24, 25, 27, 32)


@pytest.mark.parametrize("conductor", CLOSURE_CONDUCTORS)
def test_slice_and_zeta_closure_match_the_full_walk(conductor):
    # the full walk stays the oracle: the same prepared form without its
    # orbit walks all n slices, with the same root table; with it, the
    # kernel walks the top slice, whose top reduced coordinate is >= 1, and
    # closes it under zeta.  The top slice is one of the n, so it never
    # takes more nodes, and over a conductor's cases it takes fewer
    got_nodes = full_nodes = 0
    for a in (_seeded_form(conductor, 900 + conductor, inverse) for inverse in (False, True)):
        form = svp._prepare(gram(a))
        full = dataclasses.replace(form, orbit=None)
        t = a.trace()
        mu = enumerate_below(full, t).vectors[0].value
        for bound in (mu, t, Fraction(0), Fraction(-1)):
            for strict in (False, True):
                got, want = (enumerate_below(f, bound, strict=strict) for f in (form, full))
                assert [(fv.coeffs, fv.value, fv.norm) for fv in got.vectors] == [
                    (fv.coeffs, fv.value, fv.norm) for fv in want.vectors
                ], (a, bound, strict)
                for fv in got.vectors if bound == t and not strict else ():  # mu <= t
                    assert fv.norm == a.ctx.element(fv.coeffs).norm(), (a, fv.coeffs)
                assert got.nodes <= want.nodes, (a, bound, strict)
                got_nodes, full_nodes = got_nodes + got.nodes, full_nodes + want.nodes
    assert got_nodes < full_nodes, (got_nodes, full_nodes)


@pytest.mark.parametrize("conductor", (25, 32))
def test_result_cap_trips_on_the_closed_list(conductor, monkeypatch):
    # a cap one below the closed list's length is met only by the closure,
    # after the whole slice is walked
    a = witness_for_conductor(conductor)
    form = svp._prepare(gram(a))
    res = enumerate_below(form, a.trace())
    monkeypatch.setattr(svp, "RESULT_CAP", len(res.vectors) - 1)
    with pytest.raises(BudgetError) as exc:
        enumerate_below(form, a.trace())
    assert (exc.value.nodes, exc.value.results) == (res.nodes, len(res.vectors))


def test_the_orbit_is_recorded_on_the_prepared_form():
    # lll_reduce alone decides the orbit: zeta, of order N for odd N and
    # N / 2 for even N up to sign, on every trace form over K_N of degree
    # >= 2; raw rows, K_N+ forms and degree 1 carry none
    for conductor in CLOSURE_CONDUCTORS:
        a = _seeded_form(conductor, 900 + conductor)
        want = conductor if conductor % 2 else conductor // 2
        assert lll_reduce(gram(a)).orbit[1] == want, conductor
        assert lll_reduce(gram(a).entries).orbit is None, conductor
    for ring in (make_real_field(49), make_field(1)):
        assert lll_reduce(gram(ring.one())).orbit is None, ring


def test_a_map_that_is_not_an_isometry_is_refused(monkeypatch):
    # x -> x * x mod x^4 - 1 in place of Phi_5: the check Z G Z^T == G runs
    # once, as the form is prepared; raw rows carry no element and skip it
    a = _seeded_form(5, 5)
    monkeypatch.setattr(svp, "_times_x", lambda p, f: field._times_x(p, (-1, 0, 0, 0, 1)))
    with pytest.raises(VerificationError, match="does not keep the trace form"):
        enumerate_below(gram(a), a.trace())
    assert enumerate_below(gram(a).entries, a.trace()).vectors


def test_a_split_table_with_a_wrong_modulus_is_refused(monkeypatch):
    # the members of an orbit copy the norm of its representative, which
    # holds when the table's roots have product N(zeta) = 1
    a = _seeded_form(5, 5)

    def wrong(ring, primes):
        m, powers = field.split_table(ring, primes)
        return 3 * m, powers

    monkeypatch.setattr(svp, "split_table", wrong)
    with pytest.raises(VerificationError, match="N\\(-1\\) or N\\(zeta\\) is not 1"):
        enumerate_below(gram(a), a.trace())


@pytest.mark.parametrize("conductor, step", ((5, "negate"), (7, "conjugate")))
def test_an_orbit_that_does_not_close_after_m_steps_is_refused(monkeypatch, conductor, step):
    # both maps keep the form of a real a, so the Gram check passes; -x is x
    # up to sign after one step, and conj(conj(x)) after two, not m = N
    a = _seeded_form(conductor, conductor)
    maps = {
        "negate": lambda p, f: [-c for c in p],
        "conjugate": lambda p, f: list(a.ctx.element(p).conj().num),
    }
    monkeypatch.setattr(svp, "_times_x", maps[step])
    with pytest.raises(VerificationError, match="zeta\\^[12] \\* "):
        enumerate_below(gram(a), a.trace())


def test_stored_norms_match_direct_resultants():
    # every kept vector carries its norm as an int, read off the root table
    x = make_field(33).element([1, 1, 0, 0, 0, 1])
    sets = {
        "witness 25": (verify_witness(25).reduced_evidence, make_field(25)),
        "witness 32": (verify_witness(32).reduced_evidence, make_field(32)),
        "real witness 49": (verify_real_witness(49, force=True).reduced_evidence, make_real_field(49)),
        "shortest over K_33": (shortest(gram(x * x.conj())).minima, make_field(33)),
    }
    for name, (vectors, ring) in sets.items():
        assert vectors, name
        for fv in vectors:
            assert type(fv.norm) is int, (name, fv.coeffs)
            assert fv.norm == ring.element(fv.coeffs).norm(), (name, fv.coeffs)


def test_stored_norms_keep_their_sign_in_odd_degree():
    # N(-x) = -N(x) in odd degree: over K_7+ and K_9+ both signs of norm
    # occur among the vectors of one scan, and each must be its resultant;
    # K_1 (every canonical vector positive), K_16+, K_5 and K_12 are controls
    rng = random.Random(508)
    rings = (make_field(1), make_real_field(7), make_real_field(9), make_real_field(16),
             make_field(5), make_field(12))
    for ring in rings:
        xs = [ring.element([rng.randint(-3, 3) for _ in range(ring.degree)]) for _ in range(6)]
        xs = [x for x in xs if not x.is_zero()]
        a = sum((x * (x.conj() if isinstance(x, CycloElement) else x) for x in xs), ring.one())
        res = enumerate_below(gram(a), 3 * a.trace())
        signs = set()
        for fv in res.vectors:
            assert fv.norm == ring.element(fv.coeffs).norm(), (ring, fv.coeffs)
            signs.add(fv.norm > 0)
        assert res.vectors, ring
        if ring.degree % 2 and ring.degree > 1:
            assert signs == {True, False}, ring


# ---------------------------------------------------------------------------
# the Fraction-GSO LLL as a differential oracle for the integral kernel


def _fraction_lll(g, delta=svp.DEFAULT_DELTA):
    """lll_reduce as it ran before its integral kernel: the LDL factors of
    w are recomputed after every swap and mu, B are Fractions.  Returns
    (transform, gram, swaps)."""
    scale, rows, element = traceform._coerce_gram(g)
    n = len(rows)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    w = [list(r) for r in rows]
    what = "Gram matrix" if element is None else f"trace form of {element!r}"
    swaps = 0

    def gso():
        # Gram-Schmidt data (mu, B) of the current basis: the LDL factors of w
        dec = ldl(w)
        if dec.status != "positive_definite":
            raise NotTotallyPositiveError(
                f"{what} is {dec.status} "
                f"(pivot {dec.pivots[-1] / scale} at index {dec.failure_index})"
            )
        return [list(r) for r in dec.lower], list(dec.pivots)

    mu, b = gso()

    def size_reduce(k, j):
        q = (2 * mu[k][j] + 1) // 2  # nearest integer, ties rounded up
        if q == 0:
            return
        u[k] = [u[k][t] - q * u[j][t] for t in range(n)]
        wkk = w[k][k] - 2 * q * w[k][j] + q * q * w[j][j]
        for t in range(n):
            if t != k:
                w[k][t] -= q * w[j][t]
                w[t][k] = w[k][t]
        w[k][k] = wkk
        for t in range(j):
            mu[k][t] -= q * mu[j][t]
        mu[k][j] -= q

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            size_reduce(k, j)
        if b[k] >= (delta - mu[k][k - 1] ** 2) * b[k - 1]:
            k += 1
        else:
            swaps += 1
            u[k - 1], u[k] = u[k], u[k - 1]
            w[k - 1], w[k] = w[k], w[k - 1]
            for row in w:
                row[k - 1], row[k] = row[k], row[k - 1]
            mu, b = gso()
            k = max(k - 1, 1)

    return tuple(map(tuple, u)), tuple(map(tuple, w)), swaps


def _forms_basket():
    # the four degree-20 forms of perfbench's forms workload, drawn as it
    # draws them (FORMS_BASKET_SEED = 2311, coefficients in {-1, 0, 1})
    rng = random.Random(2311)
    for n in (33, 33, 44, 44):
        coeffs = [rng.randint(-1, 1) for _ in range(euler_phi(n))]
        if not any(coeffs):
            coeffs[0] = 1
        x = make_field(n).element(coeffs)
        yield gram(x * x.conj())


def test_integral_lll_matches_fraction_oracle():
    rng = random.Random(509)
    grams = [_rand_pd_gram(rng, 2 + i % 7) for i in range(20)]
    grams += [_rand_rational_pd_gram(rng, 2 + i % 7) for i in range(20)]
    # mu = +-1/2 exactly: the tie rule decides the basis
    grams += [[[2, 1], [1, 2]], [[2, -1], [-1, 2]], [[2, 1, -1], [1, 2, 0], [-1, 0, 2]]]
    grams += list(_forms_basket())
    grams += [gram(witness_for_conductor(25)), gram(witness_for_conductor(32))]
    grams += [gram(_real_witness_data(49)[0])]
    swaps = 0
    for g in grams:
        res = lll_reduce(g)
        assert (res.transform, res.gram, res.swaps) == _fraction_lll(g), g
        swaps += res.swaps
    assert swaps > 300
    # floor(mu + 1/2) takes mu = 1/2 to -1/2 and leaves mu = -1/2
    assert lll_reduce([[2, 1], [1, 2]]).transform == ((1, 0), (-1, 1))
    assert lll_reduce([[2, -1], [-1, 2]]).transform == ((1, 0), (0, 1))


def test_prepared_minors_give_the_ldl_factors():
    # enumeration reads pivot_i = dets[i + 1] / dets[i] and
    # L[i][j] = lam[i][j] / dets[j + 1] off the prepared form; ldl of the
    # reduced Gram forms them as Fractions
    rng = random.Random(510)
    grams = [_rand_pd_gram(rng, 2 + i % 7) for i in range(20)]
    grams += [_rand_rational_pd_gram(rng, 2 + i % 7) for i in range(20)]
    grams += [gram(make()) for make in WITNESS_FORMS.values()]
    for g in grams:
        form = lll_reduce(g)
        dets, lam, n = form.dets, form.lam, len(form.gram)
        dec = ldl(form.gram)
        assert dec.status == "positive_definite"
        assert dec.pivots == tuple(Fraction(dets[i + 1], dets[i]) for i in range(n))
        assert [r[:i] for i, r in enumerate(dec.lower)] == [
            tuple(Fraction(lam[i][j], dets[j + 1]) for j in range(i)) for i in range(n)
        ]


def test_prepared_forms_never_call_ldl(monkeypatch):
    # from the Gram entries to the enumeration everything runs in integers:
    # with ldl refusing, the certificates are the same
    runs = {
        "shortest over K_33": lambda: shortest(next(_forms_basket())),
        "witness 16": lambda: verify_witness(16),
        "real witness 32": lambda: verify_real_witness(32, force=True),
    }
    want = {name: dumps_canonical(run().to_json_dict()) for name, run in runs.items()}

    def refuse(matrix):
        raise RuntimeError("ldl called")

    orig = traceform.ldl
    for module in [m for name, m in sys.modules.items() if name.startswith("unitred")]:
        if getattr(module, "ldl", None) is orig:  # every module that binds it
            monkeypatch.setattr(module, "ldl", refuse)
    with pytest.raises(RuntimeError, match="ldl called"):
        is_totally_positive(make_field(5).one())  # the patch holds
    assert {name: dumps_canonical(run().to_json_dict()) for name, run in runs.items()} == want
