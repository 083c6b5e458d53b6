"""Arithmetic in the maximal totally real subfield Q(t), t = z + 1/z.

Elements live on the integral basis 1, t, ..., t^(d-1) with d = phi(N)/2,
so trace-form Gram matrices have half the cyclotomic dimension and
enumeration stays cheap.  embed/project move exactly between this basis
and the cyclotomic power basis; Z[t] is the full ring of integers here,
so integrality and unit tests read straight off the coefficients.

The witnesses of the half-degree discrepancy bounds are (2+t)^-1 for
conductor 2^n and (2-t)^-1 for p^n; both embed to the corresponding
cyclotomic witnesses since (1+z)(1+1/z) = 2+t and (1-z)(1-1/z) = 2-t.
verify_real_witness certifies their minima by enumeration and reports the
proof-route bound mu*(a)/Tr(a^-1) next to the quoted closed form; the two
disagree for odd p (see README on the trace of 2-t), and the certificate
carries both values plus an agreement flag rather than silently picking
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ConductorError, VerificationError
from .field import CycloElement, _Element, _poly_str, _Ring, _times_x, make_field
from .numtheory import listed_divisor, require_canonical_conductor
from .svp import DEFAULT_NODE_CAP, enumerate_below
from .traceform import gram
from .units import mu_star
from .witness import _certify, _prime_power, _WitnessCertificate, _witness_x


class RealElement(_Element):
    def __mul__(self, other):
        return self._mul(other, self.ctx.min_poly)

    __rmul__ = __mul__

    def __repr__(self):
        return f"<K_{self.ctx.conductor}+: {_poly_str(self.coeffs, 't')}>"

    def norm(self) -> Fraction:
        """Field norm via the resultant of the minimal polynomial of t and
        the coefficient polynomial; sign-exact, unlike a square root of the
        cyclotomic norm, and no bound on the element is needed."""
        return self._norm(self.ctx.min_poly)

    def inverse(self) -> "RealElement":
        return self._inverse(self.ctx.min_poly)

    def embed(self) -> CycloElement:
        """Image in the cyclotomic field, on the power basis: Horner's rule in
        t = z + z^-1 on exponents mod N, additions only, reduced once."""
        big_n = self.ctx.conductor
        p = [0] * big_n
        for c in reversed(self.num):
            p = [x + y for x, y in zip(p[-1:] + p[:-1], p[1:] + p[:1])]  # p * t
            p[0] += c
        return make_field(big_n)._from_exponents(p, self.den)

    def to_json_dict(self) -> dict:
        return {
            "conductor": self.ctx.conductor,
            "basis": "theta",
            "coeffs": [str(c) for c in self.coeffs],
        }


@dataclass(frozen=True, eq=False, repr=False)
class RealFieldContext(_Ring):
    """Immutable per-conductor data for Q(t): minimal polynomial of t and
    the monomial traces Tr(t^k) that trace-form entries read."""

    conductor: int
    degree: int
    min_poly: tuple[int, ...]
    _mono_trace: tuple[int, ...]

    _element_type = RealElement

    def _conjugates_mod(self, w, ell):  # the polynomial of t and w^k + w^-k, k < N/2
        n = self.conductor
        units = (k for k in range(1, (n + 1) // 2) if math.gcd(k, n) == 1)
        return self.min_poly, [(pow(w, k, ell) + pow(w, n - k, ell)) % ell for k in units]

    def theta(self) -> RealElement:
        # x * 1 mod the minimal polynomial: rational in degree 1 (conductors 3, 4)
        return self._make(_times_x(self.one().num, self.min_poly))

    # -- trace form -------------------------------------------------------------

    def trace_form_entries(self, a: RealElement):
        """(rows, den): entry (i, j) of rows / den is Tr(a * t^(i+j))."""
        d = self.degree
        t = a._traces(self._mono_trace, 2 * d - 1)
        return tuple(tuple(t[i + j] for j in range(d)) for i in range(d)), a.den


def _dickson_sum(c) -> list[int]:
    """c[0] + sum_(k >= 1) c[k] * D_k(t) as integer coefficients in t, low
    first.  D_k(t) = z^k + z^(-k) for t = z + 1/z, so D_0 = 2, D_1 = t and
    D_(k+1) = t * D_k - D_(k-1)."""
    out = [c[0]] + [0] * (len(c) - 1)
    prev, cur = [2], [0, 1]
    for ck in c[1:]:
        for i, v in enumerate(cur):
            out[i] += ck * v
        prev, cur = cur, [x - y for x, y in zip([0] + cur, prev + [0, 0])]
    return out


@lru_cache(maxsize=64)  # O(N) integers each, as for make_field
def make_real_field(n: int) -> RealFieldContext:
    """Context for the maximal totally real subfield at canonical conductor
    n >= 3.  Phi_n is palindromic of degree 2d, so z^(-d) * Phi_n(z) =
    c_d + sum_k c_(d+k) * D_k(t) is the minimal polynomial of t."""
    if not isinstance(n, int) or n < 3:
        raise ConductorError(
            f"real subfield contexts need a conductor >= 3, got {n!r}"
        )
    cyclo = make_field(n)  # rejects non-canonical n
    phi_n, d = cyclo.cyclo_poly, cyclo.degree // 2
    if phi_n != phi_n[::-1]:
        raise VerificationError(f"Phi_{n} is not palindromic")
    m = _dickson_sum(phi_n[d:])

    # Tr(t^k), k <= 3d - 3, is the power sum p_k of the roots of m; Newton's
    # identities: p_k = -k m_(d-k) [k <= d] - sum_(0 < i <= d, i < k) m_(d-i) p_(k-i)
    mono = [d]
    for k in range(1, 3 * d - 2):
        head = k * m[d - k] if k <= d else 0
        mono.append(-head - sum(m[d - i] * mono[k - i] for i in range(1, min(k, d + 1))))
    return RealFieldContext(
        conductor=n, degree=d, min_poly=tuple(m), _mono_trace=tuple(mono)
    )


def embed(x: RealElement) -> CycloElement:
    return x.embed()


def project(y: CycloElement) -> RealElement:
    """Inverse of embed on conjugation-fixed elements; ValueError otherwise.
    Such a y = sum_i y_i z^i equals (y + conj(y)) / 2 = sum_i y_i D_i(t) / 2.

    The sum runs by Clenshaw's recurrence b_k = y_k + t * b_(k+1) - b_(k+2),
    each step reduced mod the minimal polynomial of t, and ends with
    2y = 2 y_0 + t * b_1 - 2 b_2 (D_0 = 2, D_1 = t)."""
    if y.conj() != y:
        raise ValueError(f"{y!r} is not fixed by conjugation")
    ctx = make_real_field(y.ctx.conductor)
    a, f = y.num, ctx.min_poly
    b1 = b2 = [0] * ctx.degree
    for c in reversed(a[1:]):
        b1, b2 = [x - z for x, z in zip(_times_x(b1, f), b2)], b1
        b1[0] += c
    out = [x - 2 * z for x, z in zip(_times_x(b1, f), b2)]
    out[0] += 2 * a[0]
    return ctx._make(out, 2 * y.den)


def real_element_from_json_dict(payload: dict) -> RealElement:
    if payload.get("basis") != "theta":
        raise ValueError("expected a theta-basis element payload")
    return make_real_field(int(payload["conductor"])).element(payload["coeffs"])


# ---------------------------------------------------------------------------
# witnesses


def _real_witness_data(big_n: int):
    """(a, trace closed form, Tr(a^-1) closed form, quoted ratio) for N = p^n,
    where a = (2+t)^-1 for p = 2 (n >= 4) and a = (2-t)^-1 for odd p."""
    p, n = _prime_power(big_n, "real witnesses")
    if p == 2 and n < 4:
        raise ValueError(f"2-power real witness needs 2^n with n >= 4, got {big_n}")
    t = make_real_field(big_n).theta()
    if p == 2:
        a = (2 + t).inverse()
        return a, Fraction(2 ** (2 * n - 5)), Fraction(2 ** (n - 1)), Fraction(2 ** (n - 4))
    a = (2 - t).inverse()
    trace_cf = Fraction(p ** (2 * (n - 1)) * (p * p - 1), 24)
    upper_cf = Fraction(p ** (n - 1) * (p - 1)) if n >= 2 else Fraction(p)
    return a, trace_cf, upper_cf, Fraction(p ** (n - 1) * (p * p - 1), 24 * (p - 2))


@dataclass(frozen=True, kw_only=True)
class RealDiscrepancyCertificate(_WitnessCertificate):
    """Half-degree witness report.

    bound = mu_star / mu_upper is the proof-route lower bound on the
    discrepancy (mu_upper = Tr(a^-1) >= mu(a)); mu_exact and ratio_exact
    come from the same enumeration, as the constant mu_path records, and
    can only sharpen it.  quoted_form is the closed form as published;
    closed_form_agrees records whether the exact computation reproduces it
    (it does not for odd p, where the published trace of 2-t drops a term).
    """

    mu_path = "enumeration"

    witness: RealElement
    mu_upper: Fraction
    quoted_form: Fraction
    mu_star: Fraction
    mu_exact: Fraction
    bound: Fraction
    ratio_exact: Fraction
    closed_form_agrees: bool

    def to_json_dict(self) -> dict:
        return self._json(
            kind="real_discrepancy_witness",
            witness=self.witness.to_json_dict(),
            mu_upper=str(self.mu_upper),
            quoted_form=str(self.quoted_form),
            mu_path=self.mu_path,
            mu_star=str(self.mu_star),
            mu_exact=str(self.mu_exact),
            bound=str(self.bound),
            ratio_exact=str(self.ratio_exact),
            closed_form_agrees=self.closed_form_agrees,
        )


def verify_real_witness(
    big_n: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    force: bool = False,
) -> RealDiscrepancyCertificate:
    """Certify the half-degree witness at N = 2^n (n >= 4) or p^n.

    One enumeration below Tr(a) yields mu(a) exactly, mu*(a) (= Tr(a) when
    reduced, which is checked, not assumed), and the complete non-unit
    evidence.  The reported bound divides mu* by Tr(a^-1), the quantity the
    closed forms are built from; ratio_exact divides by the enumerated mu.
    The embedding and Tr(a^-1) checks run before the scan, so a budget stop
    (BudgetError) skips none of them.
    """
    a, trace_cf, upper_cf, quoted = _real_witness_data(big_n)
    x = _witness_x(big_n)
    if a.embed() * x * x.conj() != 1:
        raise VerificationError(
            f"real witness at {big_n} does not embed to the cyclotomic one"
        )
    upper = (2 + x.num[1] * a.ctx.theta()).trace()  # a^-1 = 2 + c t for x = 1 + c z
    if upper != upper_cf:
        raise VerificationError(
            f"Tr(a^-1) is {upper}, expected {upper_cf} at conductor {big_n}"
        )
    mu_exact, fields = _certify(a, trace_cf, node_cap, force)
    if mu_exact > upper:
        raise VerificationError(
            f"enumerated minimum {mu_exact} exceeds the Tr(a^-1) bound {upper}"
        )
    mu_star_val = fields["trace_a"]  # u = 1 attains it and nothing below is a unit
    bound = mu_star_val / upper
    return RealDiscrepancyCertificate(
        witness=a,
        mu_upper=upper,
        quoted_form=quoted,
        mu_star=mu_star_val,
        mu_exact=mu_exact,
        bound=bound,
        ratio_exact=mu_star_val / mu_exact,
        closed_form_agrees=bound == quoted,
        **fields,
    )


# ---------------------------------------------------------------------------
# relations between the two trace forms


@dataclass(frozen=True)
class RealMuRelations:
    """Relations between the half-degree form of a and the full form of
    a' = embed(a), both sides by enumeration.

    Always true, and what `passed` checks: mu*(a) >= mu*(a')/2 (real unit
    squares are among the u*conj(u)) and mu(a) >= mu(a')/2 (the real ring
    sits inside the full one).  The sharper identity mu*(a) = mu*(a')/2 is
    reported as star_identity; it holds at prime-power conductors, where
    every unit of the big field is a root of unity times a real unit, but
    fails at composite ones, where u*conj(u) can be a totally positive real
    unit that is no square of a real unit (conductor 12, a = 17 + 8t: the
    unit 1 - z gives u*conj(u) = 2 - t, and mu*(a') = 40 against
    2 mu*(a) = 68).  strict records mu(a) > mu(a')/2, the half-degree
    minimum beating the lifted bound.
    """

    element: RealElement
    mu_star_real: Fraction
    mu_star_lift: Fraction
    mu_real: Fraction
    mu_lift: Fraction

    @property
    def star_identity(self) -> bool:
        return self.mu_star_real * 2 == self.mu_star_lift

    @property
    def star_lower(self) -> bool:
        return self.mu_star_real * 2 >= self.mu_star_lift

    @property
    def half_bound(self) -> bool:
        return self.mu_real * 2 >= self.mu_lift

    @property
    def strict(self) -> bool:
        return self.mu_real * 2 > self.mu_lift

    @property
    def passed(self) -> bool:
        return self.star_lower and self.half_bound

    def to_json_dict(self) -> dict:
        return {
            "kind": "real_mu_relations",
            "conductor": self.element.ctx.conductor,
            "element": self.element.to_json_dict(),
            "mu_star_real": str(self.mu_star_real),
            "mu_star_lift": str(self.mu_star_lift),
            "mu_real": str(self.mu_real),
            "mu_lift": str(self.mu_lift),
            "star_identity": self.star_identity,
            "star_lower": self.star_lower,
            "half_bound": self.half_bound,
            "strict": self.strict,
            "passed": self.passed,
        }


def real_mu_relations_check(a: RealElement) -> RealMuRelations:
    # each mu_star scan is exhaustive up to Tr(a), which u = 1 attains, so
    # its report's mu is the exact minimum of the form
    ms_real = mu_star(a)
    ms_lift = mu_star(a.embed())
    return RealMuRelations(
        element=a,
        mu_star_real=ms_real.mu_star,
        mu_star_lift=ms_lift.mu_star,
        mu_real=ms_real.mu,
        mu_lift=ms_lift.mu,
    )


def real_sqrt_of_unit(w: RealElement) -> RealElement | None:
    """A unit v with v^2 = w, found by enumeration, or None.

    Any candidate satisfies Tr(v^2) = Tr(w) exactly, so the search space is
    the finite shell of the unit form at that value.
    """
    target = w.trace()
    res = enumerate_below(gram(w.ctx.one()), target)
    for fv in res.vectors:
        if fv.value != target or abs(fv.norm) != 1:
            continue
        v = w.ctx.element(fv.coeffs)
        if v * v == w:
            return v
    return None


# ---------------------------------------------------------------------------
# classification


REAL_UR = frozenset({3, 4, 5, 7, 8, 9, 12, 15})
REAL_NOT_UR_PRIME_POWERS = ((2, 5), (3, 3), (5, 2), (7, 2), (11, 2), (13, 2), (17, 2), (19, 2))
REAL_NOT_UR_PRIME_FLOOR = 23


def real_not_ur_by_divisor(n: int):
    """Smallest listed prime power (p, k) with p^k | n forcing the real
    subfield out of unit reducibility, or None."""
    return listed_divisor(n, REAL_NOT_UR_PRIME_POWERS, REAL_NOT_UR_PRIME_FLOOR)


@dataclass(frozen=True)
class RealCertificate:
    conductor: int
    verdict: str  # UR | NotUR | Unknown
    reason: str
    divisor: tuple[int, int] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "kind": "real_classification",
            "conductor": self.conductor,
            "verdict": self.verdict,
            "reason": self.reason,
        }
        if self.divisor is not None:
            p, k = self.divisor
            out["divisor"] = {"p": p, "k": k, "value": p**k}
        return out


def classify_real(n: int) -> RealCertificate:
    """UR / NotUR / Unknown for the maximal totally real subfield.

    UR is inherited from the unit-reducible cyclotomic fields; NotUR
    follows the published divisor list (2^5, 3^3, 5^2, 7^2, 11^2, 13^2,
    17^2, 19^2, odd primes >= 23) and propagates up divisibility;
    everything else is open.  The exact computation behind the list is
    exposed by verify_real_witness: every divisor checks out except the
    bare prime 23, where the corrected witness ratio is exactly 1 (see
    README); that entry is carried as published.
    """
    require_canonical_conductor(n)
    div = real_not_ur_by_divisor(n)  # None at 1, 3 and 4
    if n in (1, 3, 4):
        verdict, reason = "UR", f"degenerate: the {'field' if n == 1 else 'subfield'} is Q"
    elif div is not None:
        p, k = div
        verdict, reason = "NotUR", (
            f"divisible by {p}^{k}, a listed non-reducible divisor; the "
            "obstruction propagates along divisibility"
        )
    elif n in REAL_UR:
        verdict, reason = "UR", "inherited: the full cyclotomic field is unit reducible"
    else:
        verdict, reason = "Unknown", "no applicable criterion at this conductor"
    return RealCertificate(conductor=n, verdict=verdict, reason=reason, divisor=div)
