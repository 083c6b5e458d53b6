import math
import random
from fractions import Fraction

import pytest

from unitred.errors import ConductorError, FieldMismatchError
from unitred.field import (
    CycloElement,
    cyclotomic_poly,
    element_from_json_dict,
    element_to_json_dict,
    make_field,
    parse_element,
    recompose,
)
from unitred.numtheory import euler_phi, moebius
from unitred.realfield import make_real_field

CONDUCTORS = (5, 8, 9, 12, 15, 16)

# six coefficient tuples of known cyclotomic polynomials, low degree first
CYCLO_POLYS = {
    1: (-1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
    15: (1, -1, 0, 1, -1, 1, 0, -1, 1),
}

# |disc| for the six reference conductors
DISC_ABS = {5: 125, 7: 16807, 8: 256, 9: 19683, 12: 144, 15: 1265625}


def _rand_elem(ctx, rng, denom=1):
    return ctx.element(
        [Fraction(rng.randint(-9, 9), denom) for _ in range(ctx.degree)]
    )


def test_cyclotomic_polys():
    for n, coeffs in CYCLO_POLYS.items():
        assert cyclotomic_poly(n) == coeffs
        assert len(coeffs) - 1 == euler_phi(n)


def test_zeta_is_root():
    for n in CONDUCTORS + (25, 27):
        ctx = make_field(n)
        z = ctx.zeta()
        acc = ctx.zero()
        for i, c in enumerate(ctx.cyclo_poly):
            acc = acc + z**i * c
        assert acc.is_zero()
        assert z**n == ctx.one()


def test_conductor_gate():
    for bad in (6, 10, 22):
        with pytest.raises(ConductorError, match=f"use {bad // 2}"):
            make_field(bad)
    with pytest.raises(ConductorError):
        make_field(0)


def test_discriminants():
    for n, d in DISC_ABS.items():
        assert make_field(n).discriminant_abs == d


def test_discriminant_prime_power_closed_form():
    # |disc| of the p^m-th field is p^(p^(m-1) * (pm - m - 1))
    for p, m in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)):
        n = p**m
        expo = p ** (m - 1) * (p * m - m - 1)
        assert make_field(n).discriminant_abs == p**expo


def test_monomial_trace_oracle():
    # Tr(zeta_N^j) = phi(N) * mu(d) / phi(d) with d = N / gcd(N, j)
    for n in (5, 8, 9, 12, 15, 16, 25, 27):
        ctx = make_field(n)
        for j in range(n):
            d = n // math.gcd(n, j)
            expected = Fraction(euler_phi(n) * moebius(d), euler_phi(d))
            assert ctx.zeta(j).trace() == expected


def test_trace_galois_orbit_sum():
    # the same traces as an explicit sum over the Galois orbit
    for n in (5, 8, 9, 12, 15, 16, 25, 27):
        ctx = make_field(n)
        for j in range(n):
            z = ctx.zeta(j)
            orbit = ctx.zero()
            for k in range(1, n):
                if math.gcd(k, n) == 1:
                    orbit = orbit + z.galois(k)
            assert orbit.is_rational()
            assert z.trace() == orbit.as_rational()


def test_trace_additive_norm_multiplicative():
    rng = random.Random(301)
    for n in CONDUCTORS:
        ctx = make_field(n)
        for _ in range(100):
            a = _rand_elem(ctx, rng)
            b = _rand_elem(ctx, rng)
            assert (a + b).trace() == a.trace() + b.trace()
            assert (a * b).norm() == a.norm() * b.norm()


def test_conj_ring_automorphism():
    rng = random.Random(302)
    for n in CONDUCTORS:
        ctx = make_field(n)
        for _ in range(50):
            a = _rand_elem(ctx, rng)
            b = _rand_elem(ctx, rng)
            assert a.conj().conj() == a
            assert (a * b).conj() == a.conj() * b.conj()
            assert (a + b).conj() == a.conj() + b.conj()
            assert a.trace() == a.conj().trace()
            if not a.is_zero():
                na = (a * a.conj()).norm()
                assert na == a.norm() ** 2
                assert na > 0


def test_inverse():
    rng = random.Random(303)
    for n in CONDUCTORS:
        ctx = make_field(n)
        done = 0
        while done < 30:
            a = _rand_elem(ctx, rng, denom=rng.randint(1, 3))
            if a.is_zero():
                continue
            assert a * a.inverse() == ctx.one()
            done += 1
    with pytest.raises(ZeroDivisionError):
        make_field(5).zero().inverse()


def test_galois_permutes_and_fixes_trace():
    rng = random.Random(304)
    ctx = make_field(15)
    for _ in range(25):
        a = _rand_elem(ctx, rng)
        for k in (2, 4, 7, 11):
            assert a.galois(k).trace() == a.trace()
            assert a.galois(k).norm() == a.norm()


def test_integrality_and_rationality():
    ctx = make_field(8)
    assert ctx.element([1, 2, -3, 0]).is_integral()
    assert not ctx.element([Fraction(1, 2), 0, 0, 0]).is_integral()
    assert ctx.from_rational(Fraction(7, 3)).is_rational()
    assert ctx.from_rational(Fraction(7, 3)).as_rational() == Fraction(7, 3)
    assert not ctx.zeta().is_rational()


def test_lift_and_relative_trace_basics():
    k3 = make_field(3)
    k9 = make_field(9)
    z3 = k3.zeta()
    # zeta_3 lifts to zeta_9^3
    assert z3.lift(9) == k9.zeta(3)
    # relative trace of 1 is the relative degree
    assert k9.one().relative_trace(3) == k3.from_rational(3)
    # relative trace commutes with lifting scalars
    a = k3.element([2, -1])
    assert a.lift(9).relative_trace(3) == a * 3


def test_decompose_examples():
    k3 = make_field(3)
    k9 = make_field(9)
    parts = k9.zeta().decompose(3)
    assert parts == [k3.zero(), k3.one(), k3.zero()]
    a = k3.element([1, 5])
    lifted = a.lift(9)
    parts = lifted.decompose(3)
    assert parts[0] == a
    assert all(x.is_zero() for x in parts[1:])


def test_decompose_recompose_round_trip():
    rng = random.Random(305)
    for small, big in ((3, 9), (5, 25), (4, 8), (8, 16), (9, 27), (4, 16), (3, 27)):
        ctx = make_field(big)
        for _ in range(40):
            y = ctx.element([rng.randint(-9, 9) for _ in range(ctx.degree)])
            parts = y.decompose(small)
            assert len(parts) == ctx.degree // make_field(small).degree
            assert recompose(parts, big) == y


def test_decompose_needs_power_compatible_step():
    # the relative power basis only exists when every prime of M/N divides N
    y = make_field(15).zeta()
    with pytest.raises(ConductorError, match="offending primes"):
        y.decompose(3)


def test_mixed_field_arithmetic_rejected():
    a = make_field(5).one()
    b = make_field(8).one()
    with pytest.raises(FieldMismatchError):
        _ = a + b


def test_parse_and_json_round_trip():
    ctx = make_field(8)
    a = parse_element(ctx, "1, -2, 3/4")
    assert a == ctx.element([1, -2, Fraction(3, 4), 0])
    assert element_from_json_dict(element_to_json_dict(a)) == a
    with pytest.raises(ValueError):
        parse_element(ctx, "1,2,3,4,5")
    with pytest.raises(ValueError):
        parse_element(ctx, "")


def test_scalar_mixing():
    ctx = make_field(12)
    a = ctx.element([1, 0, 2, 0])
    assert a * 2 - a == a
    assert (a / 2) * 2 == a
    assert a + Fraction(1, 3) == ctx.element([Fraction(4, 3), 0, 2, 0])
    assert isinstance(1 * a, CycloElement)


@pytest.mark.parametrize(
    "make, other",
    [(make_field, make_real_field), (make_real_field, make_field)],
    ids=["CycloElement", "RealElement"],
)
def test_element_base_behaviour(make, other):
    # CycloElement and RealElement share their ring code; each must still
    # mix only with its own class at its own conductor
    rng = random.Random(907)
    ctx = make(16)
    xs = [_rand_elem(ctx, rng) for _ in range(4)]
    for x, y, z in zip(xs, xs[1:] + xs[:1], xs[2:] + xs[:2]):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * (y + z) == x * y + x * z
        assert x - y == -(y - x)
        assert 3 - x == -(x - 3)
        assert x * ctx.one() == x and x + ctx.zero() == x
        assert x**-2 * x**2 == ctx.one()
        assert x**-1 == x.inverse() == ctx.one() / x
        twin = ctx.element(list(x.coeffs))
        assert twin is not x and twin == x and hash(twin) == hash(x)
        assert len({x, twin, x + 0}) == 1
        assert 1 / x == x.inverse() * 1 and 1 / x * x == ctx.one()
        assert Fraction(1, 2) / x == x.inverse() * Fraction(1, 2)
    assert type(xs[0] + xs[1]) is type(-xs[0]) is type(xs[0] / 2) is type(xs[0])
    assert type(1 / xs[0]) is type(xs[0])
    # a rational element equals its value, so it hashes like it
    for q in (1, 0, -3, Fraction(1, 2)):
        r = ctx.from_rational(q)
        assert r == q and hash(r) == hash(q)
        assert len({q, r}) == 1
    assert {1: "one"}[ctx.one()] == "one"
    assert (xs[0] ** 0) == ctx.one()

    with pytest.raises(FieldMismatchError):
        _ = ctx.one() + make(15).one()
    with pytest.raises(FieldMismatchError):
        _ = ctx.one() * make(15).one()
    with pytest.raises(FieldMismatchError):
        _ = ctx.one() - make(15).one()

    # K_16 and K_16+ share a conductor but not a type: never equal, never mixed
    mine, theirs = ctx.one(), other(16).one()
    assert (mine == theirs) is False
    assert mine != theirs
    for op in (
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: a / b,
    ):
        with pytest.raises(TypeError):
            op(mine, theirs)
