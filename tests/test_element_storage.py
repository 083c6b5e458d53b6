"""Elements are integer coefficients over one denominator, in lowest terms.

Every public operation over K_N and K_N+ is checked for that storage (den > 0,
gcd(den, *num) == 1) and for coefficients equal to a plain Fraction
computation of the same result: schoolbook products reduced by the monic
modulus, exponent maps for Galois images and lifts, and powers of
t = z + 1/z for embed.
"""

import math
import random
from fractions import Fraction

import pytest

from unitred.field import (
    element_from_json_dict,
    element_to_json_dict,
    make_field,
    parse_element,
    recompose,
)
from unitred.realfield import make_real_field, project, real_element_from_json_dict


def _reduce(p, f):
    """p mod the monic f, in Fractions, padded to deg f coefficients."""
    d = len(f) - 1
    p = list(p) + [Fraction(0)] * (d - len(p))
    for k in range(len(p) - 1, d - 1, -1):
        c = p[k]
        for i, fi in enumerate(f):
            p[k - d + i] -= c * fi
    return p[:d]


def _fmul(a, b, f):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return _reduce(conv, f)


def _fmap(coeffs, up, step):
    """sum_i c_i w^(i * step), w the generator of up, in Fractions."""
    p = [Fraction(0)] * up.conductor
    for i, c in enumerate(coeffs):
        p[i * step % up.conductor] += c
    return _reduce(p, up.cyclo_poly)


def _check(x, expected=None):
    """x in lowest terms, equal and hashing alike to a copy over 3 * den,
    with coefficients `expected` when given; returns x."""
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1, x
    assert x.coeffs == tuple(Fraction(c, x.den) for c in x.num)
    if expected is not None:
        assert x.coeffs == tuple(expected), (x, expected)
    twin = x.ctx._make([3 * c for c in x.num], 3 * x.den)
    assert (twin.num, twin.den) == (x.num, x.den) and twin == x and hash(twin) == hash(x)
    return x


def _samples(rng, ctx):
    d = ctx.degree
    ints = [rng.randint(-6, 6) for _ in range(d)]
    fracs = [Fraction(rng.randint(-6, 6), rng.choice((2, 3, 4, 6))) for _ in range(d)]
    fracs[-1] = Fraction(5, 6)  # nonzero, and non-rational once d > 1
    return ints, fracs


@pytest.mark.parametrize("n", [12, 15, 16])
def test_results_are_in_lowest_terms_and_match_fractions(n):
    rng = random.Random(2100 + n)
    k, kr = make_field(n), make_real_field(n)
    for ctx, f in ((k, k.cyclo_poly), (kr, kr.min_poly)):
        ints, fracs = _samples(rng, ctx)
        one = [Fraction(1)] + [Fraction(0)] * (ctx.degree - 1)
        x = _check(ctx.element(ints), ints)
        y = _check(ctx.element(fracs), fracs)
        _check(ctx.element([str(c) for c in fracs]), fracs)
        mixed = [True, "-3/4", 7, Fraction(2, 6), False][: ctx.degree]
        want = [Fraction(1), Fraction(-3, 4), Fraction(7), Fraction(1, 3), 0][: ctx.degree]
        _check(ctx.element(mixed), want + [0] * (ctx.degree - len(want)))
        thirds = [Fraction(1, 3), Fraction(2, 3)] + one[2:]
        _check(ctx.element([Fraction(2, 6), Fraction(4, 6)]), thirds)
        _check(x + y, [a + b for a, b in zip(ints, fracs)])
        _check(x - y, [a - b for a, b in zip(ints, fracs)])
        _check(y - y, [0] * ctx.degree)
        _check(-y, [-b for b in fracs])
        _check(x * y, _fmul(ints, fracs, f))
        inv = _check(y.inverse())
        assert _fmul(inv.coeffs, fracs, f) == one
        _check(y**-2, _fmul(inv.coeffs, inv.coeffs, f))
        _check(x / y, _fmul(ints, inv.coeffs, f))
        q = Fraction(-4, 6)
        _check(y / q, [b / q for b in fracs])
        _check(y * q, [b * q for b in fracs])
        _check(3 - y, [3 * c - b for c, b in zip(one, fracs)])

    # K_N: Galois maps, lifts, relative traces and decompositions
    ints, fracs = _samples(rng, k)
    y = _check(k.element(fracs))
    u = k.galois_units[-2]
    _check(y.galois(u), _fmap(fracs, k, u))
    _check(y.conj(), _fmap(fracs, k, n - 1))
    m = 3 * n if n == 15 else 2 * n  # every prime of m / n divides n
    up = make_field(m)
    _check(y.lift(m), _fmap(fracs, up, m // n))
    big = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))) for _ in range(up.degree)]
    w = _check(up.element(big))
    parts = w.decompose(n)
    for i, part in enumerate(parts):
        _check(part, big[i :: m // n])
    _check(recompose(parts, m), big)
    rel = _check(w.relative_trace(n))
    total = [Fraction(0)] * up.degree
    for v in up.galois_units:
        if v % n == 1:
            total = [a + b for a, b in zip(total, _fmap(big, up, v))]
    assert rel.lift(m).coeffs == tuple(total)

    # K_N+ <-> K_N, parsing and both JSON round trips
    ints, fracs = _samples(rng, kr)
    yr = _check(kr.element(fracs))
    t = [a + b for a, b in zip(_fmap([0, 1], k, 1), _fmap([0, 1], k, n - 1))]  # z + 1/z
    emb, power = [Fraction(0)] * k.degree, [Fraction(1)] + [Fraction(0)] * (k.degree - 1)
    for c in fracs:
        emb = [a + c * b for a, b in zip(emb, power)]
        power = _fmul(power, t, k.cyclo_poly)
    e = _check(yr.embed(), emb)
    _check(project(e), fracs)
    text = ",".join(str(c) for c in fracs)
    _check(parse_element(k, text), fracs + [0] * (k.degree - kr.degree))
    _check(element_from_json_dict(element_to_json_dict(y)), y.coeffs)
    _check(real_element_from_json_dict(yr.to_json_dict()), fracs)


def test_rational_one_of_k16_and_k16_plus_hash_alike():
    a, b = make_field(16).one(), make_real_field(16).one()
    assert (a.num, a.den) == ((1,) + (0,) * 7, 1) and (b.num, b.den) == ((1,) + (0,) * 3, 1)
    assert a == b == 1 == Fraction(1)
    assert hash(a) == hash(b) == hash(1) == hash(Fraction(1))
    assert len({a, b, 1}) == len({1, b, a}) == 1
    half = make_field(16).from_rational(Fraction(-3, 6))
    assert (half.num[0], half.den) == (-1, 2) and half == make_real_field(16).one() / -2
