"""The Dickson-polynomial real subfield against the solve-based derivation
it replaced.

The oracle is the earlier implementation: make_real_field embedded the
powers t^0 .. t^d in K_N, solved for the linear dependency among them to
get the minimal polynomial of t, and read the traces of t^k off those
embeddings; embed summed the embedded powers and project solved against
them.  The functions below are that code unchanged, except that the
embedded powers are returned and passed around instead of kept on the
context, that the conductor gate, which make_real_field keeps, is left
out, that project builds its result through ctx.element, and that each
solve reads an embedded power's coefficients once: coeffs is built from
the stored integers on every read.
"""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from unitred.errors import VerificationError
from unitred.field import _times_x, make_field
from unitred.linalg import _integer_scale, solve_exact
from unitred.realfield import embed, make_real_field, project

CANONICAL_3_TO_100 = [n for n in range(3, 101) if n % 4 != 2]


def _oracle_real_field(n):
    """(min_poly, monomial traces, embedded t^0 .. t^(d-1))."""
    cyclo = make_field(n)
    d = cyclo.degree // 2
    th = cyclo.zeta() + cyclo.zeta().conj()

    emb = [cyclo.one()]
    for _ in range(d):
        emb.append(emb[-1] * th)
    rows = [e.coeffs for e in emb[:d]]
    cols = [[rows[i][r] for i in range(d)] for r in range(cyclo.degree)]
    sol = solve_exact(cols, list(emb[d].coeffs))
    if any(c.denominator != 1 for c in sol):
        raise VerificationError(f"t is not integral over Z at conductor {n}")
    min_poly = tuple(-int(c) for c in sol) + (1,)

    # t^k on the basis, as far as trace-form entries read (k <= 3d - 3)
    reach = 3 * d - 2
    pows = [(1,) + (0,) * (d - 1)]
    for _ in range(reach - 1):
        pows.append(tuple(_times_x(pows[-1], min_poly)))

    basis_tr = [Fraction(emb[j].trace(), 2) for j in range(d)]
    mono = tuple(
        sum((pows[k][j] * basis_tr[j] for j in range(d)), Fraction(0))
        for k in range(reach)
    )
    return min_poly, mono, tuple(emb[:d])


def _oracle_embed(x, theta_embed):
    out = make_field(x.ctx.conductor).zero()
    for c, tk in zip(x.coeffs, theta_embed):
        if c:
            out = out + tk * c
    return out


def _oracle_project(y, theta_embed):
    if y.conj() != y:
        raise ValueError(f"{y!r} is not fixed by conjugation")
    ctx = make_real_field(y.ctx.conductor)
    rows = [e.coeffs for e in theta_embed]
    cols = [[rows[i][r] for i in range(ctx.degree)] for r in range(y.ctx.degree)]
    sol = solve_exact(cols, list(y.coeffs))
    return ctx.element(sol)


def _elements(rng, ring):
    """Sparse and dense, integral and non-integral elements of ring."""
    d = ring.degree
    sparse = [0] * d
    sparse[rng.randrange(d)] = rng.choice((-3, -1, 1, 2))
    sparse[d - 1] = 1
    return [
        ring.one(),
        ring.element(sparse),
        ring.element([rng.randint(-5, 5) for _ in range(d)]),
        ring.element([Fraction(rng.randint(-7, 7), rng.randint(1, 6)) for _ in range(d)]),
        ring.element(sparse) / 3,
    ]


def test_dickson_real_field_matches_solve_oracle():
    rng = random.Random(1101)
    for n in CANONICAL_3_TO_100:
        ctx = make_real_field(n)
        min_poly, mono, theta_embed = _oracle_real_field(n)
        assert ctx.min_poly == min_poly, n
        assert len(ctx._mono_trace) == 3 * ctx.degree - 2, n
        assert ctx._mono_trace == mono, n
        for x in _elements(rng, ctx):
            y = _oracle_embed(x, theta_embed)
            assert embed(x) == y, (n, x)
            assert project(y) == _oracle_project(y, theta_embed) == x, (n, x)
        # conjugation-fixed elements built in K_N, not through embed
        for w in _elements(rng, make_field(n)):
            y = w + w.conj()
            assert project(y) == _oracle_project(y, theta_embed), (n, w)
            if w.conj() != w:
                with pytest.raises(ValueError, match="not fixed by conjugation"):
                    project(w)


def test_non_palindromic_modulus_is_a_verification_error(monkeypatch):
    import unitred.realfield as rf

    fake = SimpleNamespace(cyclo_poly=(1, 2, 0, 0, 1), degree=4)
    monkeypatch.setattr(rf, "make_field", lambda n: fake)
    with pytest.raises(VerificationError, match="Phi_5 is not palindromic"):
        rf.make_real_field.__wrapped__(5)


# ---------------------------------------------------------------------------
# embed by Horner's rule against the binomial expansion it replaced


def _binomial_embed(x):
    """embed as it ran before Horner's rule: t^i expands as
    sum_j C(i, j) z^(i - 2j), summed by exponent mod N and reduced once."""
    big_n = x.ctx.conductor
    s, (a,) = _integer_scale([x.coeffs])
    p = [0] * big_n
    for i, c in enumerate(a):
        if c:
            for j in range(i + 1):
                p[(i - 2 * j) % big_n] += c * math.comb(i, j)
    return make_field(big_n)._from_exponents(p, s)


def test_horner_embed_matches_binomial_oracle():
    rng = random.Random(1201)
    for n in CANONICAL_3_TO_100 + [1009]:
        ctx = make_real_field(n)
        for x in _elements(rng, ctx) + [ctx.zero(), ctx.from_rational(Fraction(-5, 3))]:
            assert embed(x) == _binomial_embed(x), (n, x)


def test_clenshaw_project_round_trips_at_1009():
    # embed is checked against its oracle at 1009 above, so a round trip
    # checks project there, past the conductors the solve oracle reaches
    rng = random.Random(1301)
    ctx = make_real_field(1009)
    for x in _elements(rng, ctx):
        assert project(embed(x)) == x, x
