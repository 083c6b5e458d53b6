"""The integer multiplication kernel against the table kernel it replaced.

The oracle is the earlier implementation: each context kept x^j reduced
modulo its defining polynomial (every j mod N for K_N, j < max(3d - 2, 2)
for K_N+), and products, Galois maps and lifts were summed in Fractions
through those rows.  The functions below are that code unchanged, except
that the rows come from _zeta_rows / _theta_rows instead of the context and
that results are built through ctx.element from their Fraction coefficients.
"""

import math
import random
from fractions import Fraction

import pytest

from unitred.errors import ConductorError, VerificationError
from unitred.field import _times_x, make_field
from unitred.realfield import make_real_field

CANONICAL_TO_100 = [n for n in range(1, 101) if n % 4 != 2]


def _zeta_rows(ctx):
    n, phi, cyclo = ctx.conductor, ctx.degree, ctx.cyclo_poly
    # z^j reduced mod the cyclotomic polynomial, for every j mod n
    red = []
    cur = [0] * phi
    cur[0] = 1
    for _ in range(n):
        red.append(tuple(cur))
        cur = _times_x(cur, cyclo)
    if tuple(cur) != red[0]:
        raise VerificationError(f"z^{n} does not reduce to 1")
    return tuple(red)


def _theta_rows(ctx):
    d, min_poly = ctx.degree, ctx.min_poly
    # t^k on the basis, far enough for products and trace-form entries
    reach = max(3 * d - 2, 2)
    pows = [(1,) + (0,) * (d - 1)]
    for _ in range(reach - 1):
        pows.append(tuple(_times_x(pows[-1], min_poly)))
    return tuple(pows)


def _table_mul(self, other, rows):
    """Product with other, reduced through rows[j] = x^j mod f.

    rows is either periodic (z^N = 1 in K_N) or long enough that every
    index k < 2 * degree - 1 is its own residue mod len(rows).
    """
    if isinstance(other, (int, Fraction)):
        q = Fraction(other)
        return self.ctx.element([x * q for x in self.coeffs])
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    n = self.ctx.degree
    conv = [Fraction(0)] * (2 * n - 1)
    for i, ai in enumerate(self.coeffs):
        if ai:
            for j, bj in enumerate(o.coeffs):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:n]
    for k in range(n, 2 * n - 1):
        ck = conv[k]
        if ck:
            row = rows[k % len(rows)]
            for t in range(n):
                if row[t]:
                    out[t] += ck * row[t]
    return self.ctx.element(out)


def _table_galois(self, k, rows):
    """Image under z -> z^k; k must be a unit mod the conductor."""
    big_n = self.ctx.conductor
    k %= big_n
    if math.gcd(k, big_n) != 1:
        raise ValueError(f"{k} is not invertible mod {big_n}")
    n = self.ctx.degree
    out = [Fraction(0)] * n
    for i, c in enumerate(self.coeffs):
        if c:
            row = rows[(i * k) % big_n]
            for t in range(n):
                if row[t]:
                    out[t] += c * row[t]
    return self.ctx.element(out)


def _table_lift(self, m):
    """Image in the field of conductor m (the conductor must divide m)."""
    big_n = self.ctx.conductor
    up = make_field(m)
    if m % big_n != 0:
        raise ConductorError(f"{big_n} does not divide {m}")
    step = m // big_n
    up_rows = _zeta_rows(up)
    out = [Fraction(0)] * up.degree
    for i, c in enumerate(self.coeffs):
        if c:
            row = up_rows[(i * step) % m]
            for t in range(up.degree):
                if row[t]:
                    out[t] += c * row[t]
    return up.element(out)


def _coeff(rng, denom):
    return Fraction(rng.randint(-9, 9), rng.randint(1, denom))


def _elements(ctx, rng):
    """Integral and non-integral, each sparse (up to four terms) and dense.
    One odd numerator over the denominator 6 keeps the latter non-integral."""
    out = []
    for denom in (1, 6):
        sparse = [0] * ctx.degree
        for _ in range(3):
            sparse[rng.randrange(ctx.degree)] = _coeff(rng, denom)
        dense = [_coeff(rng, denom) for _ in range(ctx.degree)]
        for c in (sparse, dense):
            c[rng.randrange(ctx.degree)] = Fraction(2 * rng.randint(-4, 4) + 1, denom)
        out += [ctx.element(sparse), ctx.element(dense)]
    assert [x.is_integral() for x in out] == [True, True, False, False]
    return out


@pytest.mark.parametrize("real", [False, True], ids=["K_N", "K_N+"])
def test_products_match_the_table_kernel(real):
    rng = random.Random(1009 + real)
    for n in CANONICAL_TO_100:
        if real and n < 3:
            continue
        ctx = make_real_field(n) if real else make_field(n)
        rows = _theta_rows(ctx) if real else _zeta_rows(ctx)
        xs = _elements(ctx, rng)
        for x in xs:
            for y in xs:
                assert x * y == _table_mul(x, y, rows), (n, x, y)
        if real:
            # the old theta read t off the table; degree 1 has t = -1 and t = 0
            assert ctx.theta().coeffs == tuple(map(Fraction, rows[1][: ctx.degree]))
        else:
            for k in range(-1, n + 1):
                assert ctx.zeta(k).coeffs == tuple(map(Fraction, rows[k % n])), (n, k)


def test_galois_maps_and_lifts_match_the_table_kernel():
    rng = random.Random(1013)
    for n in CANONICAL_TO_100:
        ctx = make_field(n)
        rows = _zeta_rows(ctx)
        xs = _elements(ctx, rng)
        if n <= 60:
            for k in ctx.galois_units:
                for x in xs:
                    assert x.galois(k) == _table_galois(x, k, rows), (n, k, x)
        assert all(x.conj() == _table_galois(x, -1, rows) for x in xs)
        # the two smallest canonical proper multiples of n
        ms = [m for m in range(2 * n, 5 * n, n) if m % 4 != 2][:2]
        for m in ms:
            for x in xs:
                assert x.lift(m) == _table_lift(x, m), (n, m, x)
