import cmath
import math
import random
from fractions import Fraction

import pytest

from unitred.errors import NotTotallyPositiveError
from unitred.field import make_field
from unitred.linalg import _integer_scale
from unitred.numtheory import euler_phi, moebius
from unitred.realfield import RealElement, _real_witness_data, make_real_field
from unitred.svp import lll_reduce, shortest
from unitred.traceform import LDLResult, gram, is_totally_positive, ldl
from unitred.units import is_reduced, mu_star
from unitred.witness import witness_for_conductor

from linalg_helpers import fraction_det, mat_mul, transpose

CONDUCTORS = (5, 8, 9, 12, 15, 16)


def embedding_values(a):
    """Float values of a cyclotomic element at the complex embeddings: a
    numerical cross-check for the exact decisions, which never use it."""
    n = a.ctx.conductor
    out = []
    for k in a.ctx.galois_units:
        z = cmath.exp(2j * cmath.pi * k / n)
        out.append(sum(float(c) * z**i for i, c in enumerate(a.coeffs)))
    return out


def _rand_elem(rng, ctx, lo=-4, hi=4):
    return ctx.element([rng.randint(lo, hi) for _ in range(ctx.degree)])


def _rand_totally_positive(rng, ctx):
    while True:
        b = _rand_elem(rng, ctx)
        if not b.is_zero():
            return b * b.conj()


def test_gram_of_one_is_scaled_identity_for_8():
    g = gram(make_field(8).one())
    assert g.entries == (
        (4, 0, 0, 0),
        (0, 4, 0, 0),
        (0, 0, 4, 0),
        (0, 0, 0, 4),
    )


def test_gram_rejects_non_real():
    with pytest.raises(ValueError, match="not totally real"):
        gram(make_field(8).zeta())


def test_gram_symmetry_and_form_evaluation():
    rng = random.Random(401)
    for n in CONDUCTORS:
        ctx = make_field(n)
        cases = 0
        while cases < 40:
            a = _rand_totally_positive(rng, ctx)
            g = gram(a)
            rows = g.entries
            assert rows == tuple(tuple(r) for r in zip(*rows))
            x = _rand_elem(rng, ctx)
            z = x.coeffs
            quad = sum(
                rows[i][j] * z[i] * z[j]
                for i in range(g.dim)
                for j in range(g.dim)
            )
            assert quad == (a * x * x.conj()).trace()
            cases += 1


def _fraction_trace_form_entries(a):
    """trace_form_entries and trace as they ran before their integer sums:
    one Fraction multiply-add per coefficient and entry, over the monomial
    traces Tr(z^j) = phi(N) * moebius(d) / phi(d), d = N / gcd(j, N), or the
    real context's Tr(t^k).  Returns (rows, trace)."""
    ctx, d = a.ctx, a.ctx.degree
    if isinstance(a, RealElement):
        mono, count = ctx._mono_trace, 2 * d - 1
    else:
        big_n = ctx.conductor
        phi = euler_phi(big_n)
        mono = []
        for j in range(big_n):
            e = big_n // math.gcd(j, big_n)
            mono.append(Fraction(phi * moebius(e), euler_phi(e)))
        mono, count = mono * 2, big_n
    t = []
    for k in range(count):
        acc = Fraction(0)
        for m, c in enumerate(a.coeffs):
            if c:
                acc += c * mono[m + k]
        t.append(acc)
    if isinstance(a, RealElement):
        rows = [[t[i + j] for j in range(d)] for i in range(d)]
    else:
        rows = [[t[(i - j) % big_n] for j in range(d)] for i in range(d)]
    return rows, t[0]


def test_trace_form_entries_match_the_fraction_oracle():
    rng = random.Random(410)
    elements = []
    for ctx in [make_field(n) for n in (15, 16, 33, 44)] + [make_real_field(32), make_real_field(49)]:
        for _ in range(6):
            den = rng.randint(1, 12)
            elements.append(ctx.element([Fraction(rng.randint(-9, 9), den) for _ in range(ctx.degree)]))
        elements.append(ctx.element([Fraction(rng.randint(-5, 5), rng.randint(1, 7))]))
        elements.append(ctx.zero())
    elements += [witness_for_conductor(25), witness_for_conductor(32), _real_witness_data(49)[0]]
    for a in elements:
        rows, trace = _fraction_trace_form_entries(a)
        assert a.trace() == trace, a
        if not isinstance(a, RealElement) and a.conj() != a:
            # K_N builds the rows only for a fixed by conjugation: compare
            # those of a + conj(a)
            with pytest.raises(ValueError, match="not totally real"):
                a.ctx.trace_form_entries(a)
            a = a + a.conj()
            rows = _fraction_trace_form_entries(a)[0]
        ints, den = a.ctx.trace_form_entries(a)
        assert [[Fraction(c, den) for c in row] for row in ints] == rows, a
        # the integer rows over den scale by one gcd as the lcm over entries does
        assert gram(a).integer_scale() == _integer_scale(rows), a
    # the witnesses are totally real: gram keeps the same entries
    for a in elements[-3:]:
        assert gram(a).entries == tuple(map(tuple, _fraction_trace_form_entries(a)[0]))


def test_gram_det_is_disc_times_norm():
    rng = random.Random(402)
    for n in CONDUCTORS:
        ctx = make_field(n)
        for _ in range(50):
            a = _rand_totally_positive(rng, ctx)
            assert fraction_det(gram(a).entries) == ctx.discriminant_abs * a.norm()


def test_integer_scale():
    ctx = make_field(8)
    g = gram(ctx.one())
    s, rows = g.integer_scale()
    assert s == 1
    assert rows == [[4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]]
    h = gram(ctx.one() / 3)
    s, rows = h.integer_scale()
    assert s == 3
    assert rows == [[4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]]


def test_ldl_round_trip_and_status():
    rng = random.Random(403)
    for n in (5, 12, 16):
        ctx = make_field(n)
        for _ in range(20):
            g = gram(_rand_totally_positive(rng, ctx))
            res = ldl(g)
            assert res.status == "positive_definite"
            assert all(p > 0 for p in res.pivots)
            lower = res.lower
            d = len(res.pivots)
            diag = [
                [res.pivots[i] if i == j else Fraction(0) for j in range(d)]
                for i in range(d)
            ]
            back = mat_mul(mat_mul(lower, diag), transpose(lower))
            assert [list(map(Fraction, row)) for row in g.entries] == back


def test_ldl_detects_failures():
    assert ldl([[Fraction(0)]]).status == "singular"
    assert ldl([[Fraction(-1)]]).status == "indefinite"
    assert ldl([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]).status == "singular"
    res = ldl([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
    assert res.status == "indefinite_or_singular"
    assert res.failure_index == 0


def test_totally_positive_decision():
    rng = random.Random(404)
    ctx = make_field(12)
    for _ in range(30):
        b = _rand_elem(rng, ctx)
        if b.is_zero():
            continue
        pos = b * b.conj()
        assert is_totally_positive(pos)
        assert not is_totally_positive(-pos)
    with pytest.raises(NotTotallyPositiveError):
        lll_reduce(gram(-ctx.one()))


def test_positive_definite_iff_embeddings_positive():
    # the exact decision agrees with the floating diagnostic on clear cases
    rng = random.Random(405)
    ctx = make_field(5)
    for _ in range(40):
        b = _rand_elem(rng, ctx)
        c = b + b.conj()  # totally real, arbitrary signs
        if c.is_zero():
            continue
        vals = embedding_values(c)
        assert all(abs(v.imag) < 1e-9 for v in vals)  # c is totally real
        reals = [v.real for v in vals]
        if min(reals) > 1e-9:
            assert is_totally_positive(c)
        elif min(reals) < -1e-9:
            assert not is_totally_positive(c)


def test_embedding_values_match_trace_and_norm():
    rng = random.Random(406)
    for n in (5, 12):
        ctx = make_field(n)
        for _ in range(25):
            a = _rand_elem(rng, ctx)
            vals = embedding_values(a)
            assert len(vals) == ctx.degree
            total = sum(vals)
            prod = complex(1.0)
            for v in vals:
                prod *= v
            assert abs(total - float(a.trace())) < 1e-6
            assert abs(prod - float(a.norm())) < 1e-4 * max(1.0, abs(float(a.norm())))


def test_minimum_of_reference_form_over_8():
    # the boundary form ((1+z)(1+1/z))^-1 at conductor 8 has minimum 4
    ctx = make_field(8)
    x = ctx.one() + ctx.zeta()
    a = (x * x.conj()).inverse()
    assert shortest(gram(a)).mu == 4


def _column_ldl(matrix) -> LDLResult:
    """Oracle: LDL^T by column elimination over Fractions, an algorithm
    independent of the fraction-free row-by-row ldl."""
    a = [[Fraction(c) for c in row] for row in matrix]
    n = len(a)
    low = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    pivots = []
    for k in range(n):
        d = a[k][k]
        if d < 0:
            return LDLResult("indefinite", tuple(pivots + [d]), k, ())
        if d == 0:
            block_zero = all(a[i][j] == 0 for i in range(k, n) for j in range(k, n))
            status = "singular" if block_zero else "indefinite_or_singular"
            return LDLResult(status, tuple(pivots + [d]), k, ())
        pivots.append(d)
        for i in range(k + 1, n):
            f = a[i][k] / d
            if f:
                low[i][k] = f
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return LDLResult("positive_definite", tuple(pivots), -1, tuple(map(tuple, low)))


def _gram_of_rows(b):
    n = len(b[0])
    return [[sum(r[i] * r[j] for r in b) for j in range(n)] for i in range(n)]


def test_ldl_matches_column_elimination_oracle():
    rng = random.Random(407)
    cases = [
        [[1, 1], [1, 1]],
        [[0, 1], [1, 0]],
        [[Fraction(0)]],
        [[Fraction(-1)]],
        [],
    ]
    for _ in range(400):
        n = rng.randint(1, 6)
        kind = rng.randrange(3)
        if kind == 0:  # B^T B: positive definite, or singular when B is short
            rows = rng.randint(n - 1, n + 1)
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rows)]
            cases.append(_gram_of_rows(b) if rows else [[0] * n for _ in range(n)])
        elif kind == 1:  # symmetric with rational entries, mostly indefinite
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    m[i][j] = m[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            cases.append(m)
        else:  # a zero or negative pivot at index k, after a positive block
            k = rng.randint(0, n - 1)
            m = _gram_of_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            for j in range(n):
                m[k][j] = m[j][k] = 0
            m[k][k] = rng.choice((0, -1))
            cases.append(m)
    statuses = set()
    for m in cases:
        got, want = ldl(m), _column_ldl(m)
        statuses.add(want.status)
        assert (got.status, got.pivots, got.failure_index) == (
            want.status,
            want.pivots,
            want.failure_index,
        ), m
        if want.status == "positive_definite":
            assert got.lower == want.lower, m
    assert statuses == {"positive_definite", "indefinite", "singular", "indefinite_or_singular"}
    # the trace forms of the package, at the degrees where LLL spends its time
    for n in (25, 32, 33, 44):
        ctx = make_field(n)
        x = _rand_elem(rng, ctx, -2, 2)
        if x.is_zero():
            continue
        g = gram(x * x.conj())
        for m in (g.entries, lll_reduce(g).gram):
            assert ldl(m) == _column_ldl(m)


def _not_totally_positive_elements():
    # totally real, not totally positive: -1 fails at the first pivot;
    # 1 + t (values 1.618 and -0.618 over K_5) at a zero pivot later on, and
    # t + 4/3 at a negative one, in a Gram matrix LLL must scale by 3
    k5 = make_field(5)
    t = k5.zeta() + k5.zeta().conj()
    tr = make_real_field(16).theta()
    return [-k5.one(), 1 + t, t + Fraction(4, 3), tr - 1]


def test_forms_that_are_not_positive_raise_typed_errors():
    for a in _not_totally_positive_elements():
        res = ldl(gram(a))
        assert res.status != "positive_definite", a
        want = (
            f"trace form of {a!r} is {res.status} "
            f"(pivot {res.pivots[-1]} at index {res.failure_index})"
        )
        deciders = (mu_star, is_reduced, lambda a: shortest(gram(a)), lambda a: lll_reduce(gram(a)))
        for decide in deciders:
            with pytest.raises(NotTotallyPositiveError) as got:
                decide(a)
            assert str(got.value) == want, a
    assert [ldl(gram(a)).failure_index for a in _not_totally_positive_elements()] == [0, 1, 2, 0]
