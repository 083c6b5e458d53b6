"""Exact arithmetic in cyclotomic fields.

The field of conductor N is Q(z) for a primitive N-th root of unity z.  An
element is stored on the power basis 1, z, ..., z^(phi(N)-1) as integer
coefficients over one positive denominator, in lowest terms, so it lies in
the ring of integers Z[z] exactly when that denominator is 1.  Conductor
labels are canonical (N = 1 or N % 4 != 2), so every field has one name;
N % 4 == 2 is rejected because that field equals the one of conductor N/2.

No floating point anywhere: products and Galois maps are integer
polynomials reduced modulo the cyclotomic polynomial, traces come from a
Moebius closed form and relative traces from Ramanujan sums, norms and
inverses from one integer subresultant chain against the modulus
(split_table gives the enumeration checked roots at split primes instead).
No linear system is solved.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .errors import ConductorError, FieldMismatchError, VerificationError
from .numtheory import (
    divisors,
    euler_phi,
    factorize,
    moebius,
    prime_divisors,
    require_canonical_conductor,
    require_divides,
    split_primes,
)

# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficient lists, constant term first)


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod_monic(num, den):
    """Division by a monic integer polynomial: (quotient, remainder), the
    remainder padded to deg den coefficients.  Zero coefficients of den are
    skipped: a step costs one update per nonzero lower term of den."""
    if den[-1] != 1:
        raise ValueError(f"divisor {den} is not monic")
    dd = len(den) - 1
    num = list(num) + [0] * (dd - len(num))
    taps = [(i, c) for i, c in enumerate(den[:-1]) if c]
    q = [0] * (len(num) - dd)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + dd]
        if c:
            q[k] = c
            for i, fi in taps:
                num[k + i] -= c * fi
    return q, num[:dd]


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise VerificationError("inexact division in subresultant chain")
    return q


def _subresultant(f, g, cofactor=True):
    """(res, t) for trimmed integer polynomials with 0 < deg g < deg f: res
    their resultant and t, of degree below deg f, with t * g = res (mod f);
    t is [] when cofactor is false, and the chain then skips its updates.

    The subresultant PRS (Collins, JACM 14, 1967), carrying each remainder's
    cofactor of g: lc(b)^(delta+1) a = q b + r makes r's cofactor
    lc(b)^(delta+1) t_a - q t_b, and both are divided by lg h^delta (lg the
    previous b's leading coefficient).  Every delta is at least 1.  The
    divisions are exact over Z, remainders and cofactors being determinants;
    _exact_div raises VerificationError if the bookkeeping ever breaks that.
    """
    da, db = len(f) - 1, len(g) - 1
    if not 0 < db < da:
        raise ValueError(f"resultant needs 0 < deg b < deg a, got deg a {da}, deg b {db}")
    a, b, ta, tb = f, g, [], [1] if cofactor else []
    s = lg = h = 1
    while True:
        delta = da - db
        if (da % 2) and (db % 2):
            s = -s
        lc, r, tops = b[-1], list(a), []
        for k in range(delta, -1, -1):  # r <- lc * r - c x^k b, c its top
            c = r.pop()
            r = [lc * x for x in r]
            for i in range(db):
                r[k + i] -= c * b[i]
            tops.append(c)
        if not _trim(r):
            return 0, []
        den = lg * h**delta
        if cofactor:  # q[k] = c_k lc^k, c_k the top taken at x^k
            t = [lc ** (delta + 1) * x for x in ta] + [0] * (delta + len(tb) - len(ta))
            for i, c in enumerate(reversed(tops)):
                qi = c * lc**i
                for j, y in enumerate(tb):
                    t[i + j] -= qi * y
            ta, tb = tb, [_exact_div(c, den) for c in _trim(t)]
        a, da = b, db
        b = [_exact_div(c, den) for c in r]
        db = len(b) - 1
        lg = a[-1]
        h = _exact_div(lg**delta, h ** (delta - 1))
        if db == 0:
            # the last subresultant is (b0 / h)^(da - 1) * b, cofactor alike
            scale, hd = s * b[0] ** (da - 1), h ** (da - 1)
            return _exact_div(scale * b[0], hd), [_exact_div(scale * c, hd) for c in tb]


def _times_x(p, f):
    """x * p mod the monic f, for a coefficient list p of length deg f:
    a shift, reduced by f when the top coefficient is nonzero."""
    top, out = p[-1], [0] + list(p[:-1])
    return [c - top * fc for c, fc in zip(out, f)] if top else out


@lru_cache(maxsize=256)  # phi(n) + 1 ints each; multiples ask for their divisors
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n < 1:
        raise ValueError(f"cyclotomic polynomials need n >= 1, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d < n:
            poly, rem = _poly_divmod_monic(poly, cyclotomic_poly(d))
            if any(rem):
                raise VerificationError(f"Phi_{d} does not divide x^{n} - 1")
    return tuple(poly)


# ---------------------------------------------------------------------------
# elements of Z[x]/(f) tensored with Q, shared by K_N and K_N+


class _Ring:
    """Element constructors shared by FieldContext and RealFieldContext.

    A context provides `degree`, `conductor` and the class attribute
    `_element_type`.
    """

    def __repr__(self):
        return f"{type(self).__name__}(conductor={self.conductor}, degree={self.degree})"

    def element(self, coeffs):
        """Element from a coefficient sequence on the power basis.

        Shorter sequences are zero-padded to the degree; longer ones are an
        error.  Entries may be ints, Fractions, or strings like "-3/2"; only
        the last are converted, ints carrying numerator and denominator too.
        """
        vals = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        if len(vals) > self.degree:
            raise ValueError(
                f"expected at most {self.degree} coefficients for {self!r}, "
                f"got {len(vals)}"
            )
        den = math.lcm(*(c.denominator for c in vals))
        num = [c.numerator * (den // c.denominator) for c in vals]
        return self._make(num + [0] * (self.degree - len(num)), den)

    def _make(self, num, den: int = 1):
        """The element sum_i num[i] x^i / den for integers num[i] and den > 0,
        put in lowest terms: gcd(den, *num) == 1."""
        if den != 1 and (g := math.gcd(den, *num)) != 1:
            num, den = [c // g for c in num], den // g
        return self._element_type(self, tuple(num), den)

    def zero(self):
        return self._make([0] * self.degree)

    def one(self):
        return self.from_rational(1)

    def from_rational(self, q):
        q = Fraction(q)
        return self._make([q.numerator] + [0] * (self.degree - 1), q.denominator)

    def roots_mod(self, ell: int) -> list[int]:
        """The roots of the defining polynomial f mod ell, from a w of order
        N; VerificationError unless their linear factors multiply back to f
        mod ell, as they do when ell is a prime = 1 (mod N)."""
        n, p = self.conductor, [1]
        cofactors = [n // q for q in prime_divisors(n)]
        w = next((w for w in (pow(g, (ell - 1) // n, ell) for g in range(2, ell))
                  if all(pow(w, e, ell) != 1 for e in cofactors)), 0)
        f, roots = self._conjugates_mod(w, ell)
        for r in roots:
            p = [(a - r * b) % ell for a, b in zip([0] + p, p + [0])]
        if p != [c % ell for c in f]:
            raise VerificationError(f"roots mod {ell} do not multiply back to the modulus")
        return roots


@lru_cache(maxsize=64)  # degree^2 residues each
def split_table(ring, primes: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(M, powers): M the product of the first `primes` of split_primes(N),
    and powers[j] = (r_0^j, ..., r_(d-1)^j) mod M for the roots r_i of the
    defining polynomial mod M, joined by CRT from ring.roots_mod of each."""
    m, roots = 1, [0] * ring.degree
    for ell in islice(split_primes(ring.conductor), primes):
        inv = pow(m, -1, ell)
        roots = [x + m * ((r - x) * inv % ell) for x, r in zip(roots, ring.roots_mod(ell))]
        m *= ell
    powers = [[1] * ring.degree]  # powers[j][i] = r_i^j mod M
    for _ in range(ring.degree - 1):
        powers.append([p * r % m for p, r in zip(powers[-1], roots)])
    return m, tuple(map(tuple, powers))


@dataclass(frozen=True, eq=False, repr=False)
class _Element:
    """Exact element on the power basis of a monic integer polynomial f:
    integer coefficients num over one denominator den, in lowest terms as
    _Ring._make builds them; coeffs are the Fractions num[i] / den.

    Everything here takes f as an argument.  Subclasses supply repr and the
    maps to other fields, and define `*`, norm and inverse as calls passing
    their own f, since perfbench/tracer.py reads those names from each
    class's own namespace.  Only elements of the same class and conductor
    mix; ints and Fractions coerce.  A rational element equals its value in
    every field.
    """

    ctx: _Ring
    num: tuple[int, ...]
    den: int

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- ring structure -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, type(self)):
            if self.ctx.conductor != other.ctx.conductor:
                raise FieldMismatchError(
                    f"conductor mismatch: {self.ctx.conductor} vs {other.ctx.conductor}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        s, t = self.den, o.den
        return self.ctx._make([x * t + y * s for x, y in zip(self.num, o.num)], s * t)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self.ctx._make([-x for x in self.num], self.den)

    def _scale(self, q: Fraction):
        return self.ctx._make([x * q.numerator for x in self.num], self.den * q.denominator)

    def _mul(self, other, modulus):
        """Product with other: one integer convolution of the numerators,
        reduced modulo the monic modulus, over the product of denominators."""
        if isinstance(other, (int, Fraction)):
            return self._scale(Fraction(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        taps = [(j, y) for j, y in enumerate(o.num) if y]
        conv = [0] * (2 * len(self.num) - 1)
        for i, x in enumerate(self.num):
            if x:
                for j, y in taps:
                    conv[i + j] += x * y
        return self.ctx._make(_poly_divmod_monic(conv, modulus)[1], self.den * o.den)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(1 / Fraction(other))
        if isinstance(other, type(self)):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.ctx.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def _key(self):
        # a rational element is keyed by its value, so that equality stays
        # transitive across fields and it hashes like its value; any other by
        # conductor and (num, den), which is in lowest terms (K_N+ has half
        # the degree of K_N, so num tells the two apart)
        if self.is_rational():
            return Fraction(self.num[0], self.den)
        return self.ctx.conductor, self.num, self.den

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._key() == other
        return self._key() == other._key() if isinstance(other, _Element) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_integral(self) -> bool:
        return self.den == 1

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    # -- invariants --------------------------------------------------------------

    def trace(self) -> Fraction:
        return Fraction(self._traces(self.ctx._mono_trace, 1)[0], self.den)

    def _traces(self, mono, count) -> list[int]:
        """den * Tr(self * x^k) for k < count, from the integer monomial
        traces mono[j] = Tr(x^j): one integer sum each."""
        return [sum(map(operator.mul, self.num, mono[k:])) for k in range(count)]

    def _norm(self, modulus) -> Fraction:
        """Resultant of the monic modulus and the numerator polynomial, over
        den^degree; exact and sign-exact."""
        g = _trim(list(self.num))
        if len(g) < 2:
            return self.as_rational() ** self.ctx.degree
        return Fraction(_subresultant(modulus, g, cofactor=False)[0], self.den**self.ctx.degree)

    def _inverse(self, modulus):
        """1/x = den * t / res from the subresultant chain of the modulus and
        num = den * x, which ends with t * num = res (mod the modulus): O(d^2)
        integer steps, no linear solve."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        g = _trim(list(self.num))
        if len(g) < 2:
            return self.ctx.from_rational(1 / self.as_rational())
        res, t = _subresultant(modulus, g)
        if not res:
            raise VerificationError(f"{self!r} is a zero divisor: the modulus is reducible")
        sign = -1 if res < 0 else 1
        t += [0] * (self.ctx.degree - len(t))
        return self.ctx._make([sign * self.den * c for c in t], sign * res)


class CycloElement(_Element):
    def __mul__(self, other):
        return self._mul(other, self.ctx.cyclo_poly)

    __rmul__ = __mul__

    def __repr__(self):
        return f"<K_{self.ctx.conductor}: {_poly_str(self.coeffs, 'z')}>"

    # -- Galois action ----------------------------------------------------------

    def galois(self, k: int) -> "CycloElement":
        """Image under z -> z^k; k must be a unit mod the conductor."""
        big_n = self.ctx.conductor
        k %= big_n
        if math.gcd(k, big_n) != 1:
            raise ValueError(f"{k} is not invertible mod {big_n}")
        return self._monomial_map(self.ctx, k)

    def _monomial_map(self, up: "FieldContext", step: int) -> "CycloElement":
        """Image under z -> w^step, w the generator of up: c_i moves to the
        exponent i * step mod up's conductor, over one common denominator."""
        m = up.conductor
        p = [0] * m
        for i, c in enumerate(self.num):
            p[i * step % m] += c
        return up._from_exponents(p, self.den)

    def conj(self) -> "CycloElement":
        """Complex conjugation z -> z^(-1) (identity for conductor 1)."""
        if self.ctx.conductor == 1:
            return self
        return self.galois(self.ctx.conductor - 1)

    # -- invariants --------------------------------------------------------------

    def norm(self) -> Fraction:
        """Field norm, as the resultant of the cyclotomic polynomial and the
        coefficient polynomial; no bound on the element is needed."""
        return self._norm(self.ctx.cyclo_poly)

    def inverse(self) -> "CycloElement":
        return self._inverse(self.ctx.cyclo_poly)

    # -- moving between fields -----------------------------------------------------

    def lift(self, m: int) -> "CycloElement":
        """Image in the field of conductor m (the conductor must divide m)."""
        big_n = self.ctx.conductor
        require_divides(big_n, m)
        return self._monomial_map(make_field(m), m // big_n)

    def relative_trace(self, n: int) -> "CycloElement":
        """Trace down to the subfield of conductor n (n must divide the
        conductor M): the sum over the automorphisms z -> z^k, k = 1 mod n, in
        closed form, on the subfield's power basis.

        Split M = A * B with A the part of M whose primes divide n, so n | A
        and gcd(A, B) = 1, and write z^e = w^x * v^y by CRT, w = z^B and
        v = z^A.  Gal(K_M/K_n) = Gal(K_A/K_n) x Gal(K_B/Q), so the trace of
        z^e is a product.  Over K_n, w has minimal polynomial X^r - z_n with
        r = A/n, every prime of r dividing n: the trace of w^x is r * z_n^(x/r)
        when r | x, else 0.  The trace of v^y to Q is the Ramanujan sum
        c_B(y) = mu(q) * phi(B) / phi(q), q = B / gcd(y, B) (S. Ramanujan,
        Trans. Cambridge Philos. Soc. 22, 1918).  So one pass over the
        coefficients collects integers on the powers of z_n, and one reduction
        modulo Phi_n ends it.
        """
        m = self.ctx.conductor
        require_divides(n, m)
        down = make_field(n)
        a = math.prod(p**k for p, k in factorize(m) if n % p == 0)
        b, r = m // a, a // n
        u, v, phi_b = pow(b, -1, a), pow(a, -1, b), euler_phi(b)
        qs = [b // math.gcd(y, b) for y in range(b)]
        ramanujan = [moebius(q) * phi_b // euler_phi(q) for q in qs]
        p = [0] * n
        for e, c in enumerate(self.num):
            if c and (x := e * u % a) % r == 0:
                p[x // r] += c * r * ramanujan[e * v % b]
        return down._from_exponents(p, self.den)

    def decompose(self, n: int) -> list["CycloElement"]:
        """Write self = sum_i lift(x_i) * z_M^i with x_i in the subfield of
        conductor n and 0 <= i < r = M/n.

        Requires every prime of r to divide n; then phi(M) = r * phi(n),
        lift(z_n^j) * z_M^i = z_M^(i + j*r), and these exponents run over
        0 .. phi(M) - 1 exactly once.  So the components are read off the
        coefficients, x_i taking those of z_M^i, z_M^(i+r), ...; the
        decomposition is unique and integral exactly when self is.
        """
        m = self.ctx.conductor
        require_divides(n, m)
        down = make_field(n)
        ratio = m // n
        bad = [p for p in prime_divisors(ratio) if n % p != 0]
        if bad:
            raise ConductorError(
                f"decomposition needs every prime of {m}//{n} to divide {n}; "
                f"offending primes: {bad}"
            )
        return [down._make(self.num[i::ratio], self.den) for i in range(ratio)]


@dataclass(frozen=True, eq=False, repr=False)
class FieldContext(_Ring):
    """Immutable per-conductor data: cyclotomic polynomial, monomial traces,
    Galois residues, |discriminant|."""

    conductor: int
    degree: int
    cyclo_poly: tuple[int, ...]
    discriminant_abs: int
    galois_units: tuple[int, ...]
    _mono_trace: tuple[int, ...]

    _element_type = CycloElement

    def zeta(self, k: int = 1) -> CycloElement:
        """z^k for any integer k (reduced mod the conductor)."""
        return self._from_exponents([0] * (k % self.conductor) + [1])

    def _from_exponents(self, p, den: int = 1) -> CycloElement:
        """sum_j p[j] z^j / den for integers p[j], j < conductor: one
        reduction modulo the cyclotomic polynomial."""
        return self._make(_poly_divmod_monic(p, self.cyclo_poly)[1], den)

    def _conjugates_mod(self, w, ell):  # Phi_N and w^k, k a unit mod N
        return self.cyclo_poly, [pow(w, k, ell) for k in self.galois_units]

    # -- trace form -----------------------------------------------------------

    def trace_form_entries(self, a: CycloElement):
        """(rows, den): the Gram matrix Tr(a * z^i * conj(z^j)) over the power
        basis is rows / den, entry (i, j) being Tr(a * z^k), k = i - j mod N.
        ValueError unless a == conj(a), which, the trace pairing being
        nondegenerate, is exactly when the rows are symmetric."""
        if a.conj() != a:
            raise ValueError(f"{a!r} is not totally real; its trace pairing is not symmetric")
        n, big_n = self.degree, self.conductor
        t = a._traces(self._mono_trace * 2, big_n)
        return tuple(tuple(t[(i - j) % big_n] for j in range(n)) for i in range(n)), a.den


@lru_cache(maxsize=64)  # O(N) traces and units each: a sweep must not keep them all
def make_field(n: int) -> FieldContext:
    """Context for the cyclotomic field of canonical conductor n."""
    require_canonical_conductor(n)
    phi = euler_phi(n)
    cyclo = cyclotomic_poly(n)
    if len(cyclo) - 1 != phi:
        raise VerificationError(f"Phi_{n} has degree {len(cyclo) - 1}, not {phi}")

    disc = n**phi
    for p in prime_divisors(n):
        d, r = divmod(phi, p - 1)
        disc, s = divmod(disc, p**d)
        if r or s:
            raise VerificationError(f"|disc| of conductor {n}: inexact at p = {p}")

    if _poly_divmod_monic([0] * n + [1], cyclo)[1] != [1] + [0] * (phi - 1):
        raise VerificationError(f"z^{n} does not reduce to 1")

    # Tr(z^j) = phi(n) * moebius(d) / phi(d) with d = n / gcd(j, n), an
    # integer since phi(d) divides phi(n)
    mono = []
    for j in range(n):
        d = n // math.gcd(j, n)
        mono.append(phi * moebius(d) // euler_phi(d))

    units = tuple(k for k in range(n) if math.gcd(k, n) == 1)
    return FieldContext(
        conductor=n,
        degree=phi,
        cyclo_poly=cyclo,
        discriminant_abs=disc,
        galois_units=units,
        _mono_trace=tuple(mono),
    )


def recompose(components, m: int) -> CycloElement:
    """Inverse of decompose: sum_i lift(x_i) * z_m^i."""
    up = make_field(m)
    total = up.zero()
    for i, x in enumerate(components):
        total = total + x.lift(m) * up.zeta(i)
    return total


# ---------------------------------------------------------------------------
# parsing and serialization


def parse_element(ctx: FieldContext, text: str) -> CycloElement:
    """Parse "c0,c1,..." with integer or p/q entries; whitespace is ignored.
    Fewer than degree-many entries are zero-padded."""
    parts = [p.strip() for p in text.strip().split(",")]
    if parts == [""]:
        raise ValueError("empty element text")
    try:
        vals = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad coefficient in element text: {exc}") from exc
    return ctx.element(vals)


def element_to_json_dict(a: CycloElement) -> dict:
    return {
        "conductor": a.ctx.conductor,
        "coeffs": [str(c) for c in a.coeffs],
    }


def element_from_json_dict(d: dict) -> CycloElement:
    return make_field(int(d["conductor"])).element(d["coeffs"])


def _poly_str(coeffs, var: str) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
            continue
        mono = var if i == 1 else f"{var}^{i}"
        if c == 1:
            t = mono
        elif c == -1:
            t = f"-{mono}"
        else:
            t = f"{c}*{mono}"
        terms.append(t)
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out
