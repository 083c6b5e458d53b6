import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import unitred.field as field
from unitred.errors import ConductorError, FieldMismatchError, VerificationError
from unitred.field import (
    CycloElement,
    _poly_divmod_monic,
    _subresultant,
    _times_x,
    _trim,
    cyclotomic_poly,
    element_from_json_dict,
    element_to_json_dict,
    make_field,
    parse_element,
    recompose,
)
from unitred.numtheory import divisors, euler_phi, factorize, moebius, prime_divisors
from unitred.realfield import embed, make_real_field, project
from unitred.witness import _witness_x

from linalg_helpers import fraction_solve, solve_exact

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


def test_field_4999_multiplies_in_bounded_memory():
    # a context used to keep z^j mod Phi_N for every j mod N, 4999 rows of
    # 4998 entries at N = 4999 (over 200 MB); a product now reads only Phi_N.
    # (1 + z^4997)(2 + z) reduces z^4998 = -(1 + z + ... + z^4997) once
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from unitred.field import make_field\n"
        "k = make_field(4999)\n"
        "p = (1 + k.zeta(4997)) * (2 + k.zeta())\n"
        "ok = p == k.element([1, 0] + [-1] * 4995 + [1])\n"
        "with open('/proc/self/status') as f:  # VmHWM: this process's own peak, reset by exec\n"
        "    hwm = next(ln.split()[1] for ln in f if ln.startswith('VmHWM:'))\n"
        "print(ok, hwm)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    ok, max_rss_kb = proc.stdout.split()
    assert ok == "True"
    assert int(max_rss_kb) < 64 * 1024


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


@pytest.mark.parametrize(
    "a, b",
    [
        ([1, 0, 1], [5]),  # deg b = 0
        ([1, 0, 1], [1, 2, 3]),  # deg b = deg a
        ([1, 1], [0, 1, 1]),  # deg b > deg a
    ],
)
def test_resultant_needs_0_lt_deg_b_lt_deg_a(a, b):
    deg = f"deg a {len(a) - 1}, deg b {len(b) - 1}"
    with pytest.raises(ValueError, match=deg):
        _subresultant(a, b)


def test_norm_of_zero_and_of_rationals_needs_no_resultant(monkeypatch):
    # .norm() returns early for zero, for constants and in degree 1, so the
    # resultant only ever sees 0 < deg b < deg a
    def refuse(*args, **kwargs):
        raise AssertionError("resultant called")

    monkeypatch.setattr(field, "_subresultant", refuse)
    q = Fraction(-3, 2)
    for ctx in (make_field(16), make_real_field(16)):
        assert ctx.zero().norm() == 0
        assert ctx.from_rational(q).norm() == q**ctx.degree
    for ctx in (make_field(1), make_real_field(3), make_real_field(4)):
        assert ctx.degree == 1
        assert ctx.zero().norm() == 0
        for c in (q, Fraction(7), Fraction(-1, 5)):
            assert ctx.element([c]).norm() == c
    with pytest.raises(AssertionError, match="resultant called"):
        make_field(16).zeta().norm()


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
    with pytest.raises(VerificationError, match="zero divisor"):  # 1 + z modulo z^4 - 1
        make_field(5).element([1, 1])._inverse((-1, 0, 0, 0, 1))


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


def test_refused_pairs_build_no_field():
    # divisibility is tested before either field is built, so a refusal
    # takes no slot in make_field's cache (K_19996 alone takes seconds)
    z, y = make_field(3).zeta(), make_field(9).zeta()
    refusals = [
        (z.lift, 19996),
        (z.lift, 19994),  # not canonical either: the divisibility test comes first
        (y.relative_trace, 19997),
        (y.relative_trace, 6),
        (y.decompose, 19997),
        (y.decompose, 6),
    ]
    before = make_field.cache_info()
    for method, target in refusals:
        with pytest.raises(ConductorError, match="does not divide"):
            method(target)
        assert make_field.cache_info() == before, (method, target)


def _solve_relative_trace(y, n):
    """Oracle: relative_trace as it was before its closed form: the Galois
    images z -> z^k, k = 1 mod n, summed in K_M and solved against the lifted
    power basis of the subfield."""
    m = y.ctx.conductor
    down = make_field(n)
    if m == n:
        return y
    total = y.ctx.zero()
    for k in y.ctx.galois_units:
        if k % n == 1 % n:
            total = total + y.galois(k)
    cols = [down.zeta(j).lift(m).num for j in range(down.degree)]  # integral
    return down.element(solve_exact(list(zip(*cols)), total.coeffs))


def test_relative_trace_matches_solve_oracle():
    # every canonical pair n | M <= 120, n = 1 and n = M included; where every
    # prime of M/n divides n, the trace is also M/n times decompose(n)[0]
    rng = random.Random(306)
    pairs = 0
    for m in range(1, 121):
        if m % 4 == 2:
            continue
        ctx = make_field(m)
        for n in divisors(m):
            if n % 4 == 2:
                continue
            pairs += 1
            for _ in range(3):
                y = ctx.element(
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(ctx.degree)]
                )
                got = y.relative_trace(n)
                assert got == _solve_relative_trace(y, n), (m, n, y)
                if all(n % p == 0 for p in prime_divisors(m // n)):
                    assert got == y.decompose(n)[0] * (m // n), (m, n, y)
    assert pairs == 368


# -- oracles: the kernels as they were before the integer solve and slicing


def _poly_divmod_frac(num, den):
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    dn, dd = len(num) - 1, len(den) - 1
    lc = den[-1]
    if dn < dd:
        return [], _trim(num)
    q = [Fraction(0)] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[k + dd] / lc
        if c:
            q[k] = c
            for i in range(dd + 1):
                num[k + i] -= c * den[i]
    return q, _trim(num)


def _poly_sub_scaled(a, q, b):
    """a - q*b for coefficient lists (q a polynomial)."""
    out = list(a) + [Fraction(0)] * max(0, len(q) + len(b) - 1 - len(a))
    for i, qi in enumerate(q):
        if qi:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] -= qi * bj
    return _trim(out)


def _euclid_inverse(x, modulus):
    """Oracle: coefficients of 1/x by the extended Euclidean algorithm over
    Q[x] against the irreducible modulus."""
    f = [Fraction(c) for c in modulus]
    r0, r1 = f, _trim([Fraction(c) for c in x.coeffs])
    t0, t1 = [], [Fraction(1)]
    while len(r1) > 1:
        q, r = _poly_divmod_frac(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_sub_scaled(t0, q, t1)
    assert r1, "the modulus is irreducible; the gcd must be a constant"
    c = r1[0]
    _, u = _poly_divmod_frac([v / c for v in t1], f)
    return tuple(u) + (Fraction(0),) * (x.ctx.degree - len(u))


def _prem(a, b):
    """Oracle: pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b over the
    integers (the kernel before the chain carried cofactors)."""
    dv = len(b) - 1
    lc = b[-1]
    r = list(a)
    e = len(a) - 1 - dv + 1
    while len(r) - 1 >= dv and r:
        dr = len(r) - 1
        t = r[-1]
        r = [lc * c for c in r]
        for i in range(dv + 1):
            r[dr - dv + i] -= t * b[i]
        _trim(r)
        e -= 1
    if e > 0:
        f = lc**e
        r = [f * c for c in r]
    return r


def _resultant_int(a, b):
    """Oracle: resultant of integer polynomials a and b with 0 < deg b <
    deg a by the plain subresultant PRS, no cofactor carried."""
    da, db = len(a) - 1, len(b) - 1
    s = g = h = 1
    while True:
        delta = da - db
        if (da % 2) and (db % 2):
            s = -s
        r = _prem(a, b)
        if not r:
            return 0
        a, da = b, db
        den = g * h**delta
        b = [field._exact_div(c, den) for c in r]
        db = len(b) - 1
        g = a[-1]
        h = field._exact_div(g**delta, h ** (delta - 1))
        if db == 0:
            return s * field._exact_div(b[0] ** da, h ** (da - 1))


def _bareiss_inverse(x, modulus):
    """Oracle: 1/x from one solve M u = den * e_0, M the matrix of
    multiplication by num = den * x: column j is num * z^j."""
    cols = [x.num]
    for _ in range(x.ctx.degree - 1):
        cols.append(_times_x(cols[-1], modulus))
    rhs = [x.den] + [0] * (x.ctx.degree - 1)
    return x.ctx.element(solve_exact(list(zip(*cols)), rhs))


def _check_chain(x, modulus):
    """The chain of the modulus and x's numerator against the old resultant:
    the same res, with and without the cofactor, and t * num = res modulo
    the modulus."""
    g = _trim(list(x.num))
    if len(g) < 2:
        return
    res, t = _subresultant(modulus, g)
    assert res == _resultant_int(list(modulus), g) != 0
    assert _subresultant(modulus, g, cofactor=False) == (res, [])
    assert len(t) <= len(modulus) - 1
    conv = [0] * (len(t) + len(g) - 1)
    for i, ti in enumerate(t):
        for j, gj in enumerate(g):
            conv[i + j] += ti * gj
    rem = _poly_divmod_monic(conv, modulus)[1]
    assert rem == [res] + [0] * (len(modulus) - 2)


def _prime_power_decompose(y, n):
    """Oracle: decompose by a Fraction solve against the relative basis
    lift(z_n^j) * z_M^i, one prime of M/n at a time."""
    m = y.ctx.conductor
    if m == n:
        return [y]
    fac = factorize(m // n)
    if len(fac) > 1:
        p, e = fac[0]
        r_out = p**e
        out = [None] * (m // n)
        for i, mid_part in enumerate(_prime_power_decompose(y, m // r_out)):
            for j, x in enumerate(_prime_power_decompose(mid_part, n)):
                out[i + j * r_out] = x
        return out
    up, down = y.ctx, make_field(n)
    r, d = m // n, down.degree
    cols = [
        (up.zeta(i) * down.zeta(j).lift(m)).coeffs for i in range(r) for j in range(d)
    ]
    matrix = [[col[row] for col in cols] for row in range(up.degree)]
    sol = fraction_solve(matrix, list(y.coeffs))
    return [down.element(sol[i * d : (i + 1) * d]) for i in range(r)]


CANONICAL_TO_100 = [n for n in range(1, 101) if n % 4 != 2]
WITNESS_CONDUCTORS = (8, 9, 16, 25, 27, 32, 49, 64, 81)


def _sparse_elem(rng, ctx, denom):
    # 1 plus up to three terms: sparse enough that the Euclid oracle stays
    # fast at degree 96, where it takes 20 s on a dense element
    c = [Fraction(1)] + [Fraction(0)] * (ctx.degree - 1)
    for _ in range(3):
        c[rng.randrange(ctx.degree)] += Fraction(rng.randint(-3, 3), rng.randint(1, denom))
    return ctx.element(c)


@pytest.mark.parametrize("real", [False, True], ids=["K_N", "K_N+"])
def test_inverse_matches_euclid_oracle(real):
    rng = random.Random(311 + real)
    degrees = set()
    for n in CANONICAL_TO_100:
        if real and n < 3:
            continue
        ctx = make_real_field(n) if real else make_field(n)
        modulus = ctx.min_poly if real else ctx.cyclo_poly
        degrees.add(ctx.degree)
        with pytest.raises(ZeroDivisionError):
            ctx.zero().inverse()
        xs = [
            _sparse_elem(rng, ctx, 1),
            _sparse_elem(rng, ctx, 4),
            ctx.from_rational(Fraction(-3, 7)),
        ]
        if ctx.degree <= 24:
            xs.append(_rand_elem(ctx, rng, denom=rng.randint(1, 5)))
        if n in WITNESS_CONDUCTORS:  # the witnesses invert 2 + t, 2 - t and x conj(x)
            if real:
                xs.append(2 + ctx.theta() if n % 2 == 0 else 2 - ctx.theta())
            else:
                xs.append(_witness_x(n) * _witness_x(n).conj())
        for x in xs:
            if x.is_zero():
                continue
            inv = x.inverse()
            assert inv.coeffs == _euclid_inverse(x, modulus), (n, x)
            assert inv == _bareiss_inverse(x, modulus)
            assert x * inv == 1
            _check_chain(x, modulus)
        if real and n <= 32:
            # the embed -> invert in K_N -> project round trip K_N+ used to take
            x = xs[1]
            assert project(embed(x).inverse()) == x.inverse()
    assert 1 in degrees and max(degrees) == (48 if real else 96)
    if real:
        for n in (3, 4):  # degree 1: t = -1 and t = 0
            ctx = make_real_field(n)
            assert ctx.degree == 1
            assert ctx.from_rational(Fraction(5, 2)).inverse() == Fraction(2, 5)
    else:
        assert make_field(1).element([-4]).inverse() == Fraction(-1, 4)


def _decompose_pairs(limit):
    """Every (M, n) with M < limit that decompose accepts, M == n included."""
    canon = [m for m in range(1, limit) if m % 4 != 2]
    return [
        (m, n)
        for m in canon
        for n in canon
        if m % n == 0 and all(n % p == 0 for p in prime_divisors(m // n))
    ]


def test_decompose_is_coefficient_slicing_for_every_pair_below_200():
    rng = random.Random(313)
    pairs = _decompose_pairs(200)
    assert len(pairs) > 200 and (196, 28) in pairs and (15, 3) not in pairs
    for m, n in pairs:
        ctx = make_field(m)
        y = _rand_elem(ctx, rng, denom=rng.randint(1, 3))
        parts = y.decompose(n)
        assert len(parts) == m // n
        assert all(x.ctx.conductor == n for x in parts)
        assert parts == _prime_power_decompose(y, n), (m, n)
        assert recompose(parts, m) == y


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


def test_rational_elements_equal_their_value_across_fields():
    # equality is transitive: the ones of K_5 and K_7 equal 1 and each other,
    # so a set holds one of them whatever the order
    a, b = make_field(5).one(), make_field(7).one()
    assert a == b == 1 and hash(a) == hash(b) == hash(1)
    assert len({1, a, b}) == len({a, b, 1}) == len({a, 1, b}) == 1
    half = Fraction(1, 2)
    pair = make_field(5).from_rational(half), make_real_field(7).from_rational(half)
    assert pair[0] == pair[1] == half and len({half, *pair}) == len({*pair, half}) == 1
    # non-rational elements differ across conductors even with equal coefficients
    assert make_field(5).zeta() != make_field(7).zeta()
    assert make_field(5).zeta() != make_field(5).one()
    with pytest.raises(FieldMismatchError):
        _ = a + b


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

    # K_16 and K_16+ share a conductor but not a type: never mixed, and equal
    # only where both are rational with one value
    mine, theirs = ctx.one(), other(16).one()
    assert (mine == theirs) is True and hash(mine) == hash(theirs)
    assert (ctx.element([1, 1]) == other(16).element([1, 1])) is False
    assert ctx.element([1, 1]) != other(16).element([1, 1])
    for op in (
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
        lambda a, b: a / b,
    ):
        with pytest.raises(TypeError):
            op(mine, theirs)
