"""Classification of cyclotomic fields by unit reducibility.

Verdicts:
  StronglyUR  every reduced totally positive form has all its minima at units
              (certified by an exact sufficient criterion, or degree <= 2)
  WeaklyUR    unit reducible, with a concrete boundary form whose minima
              contain a non-unit
  NotUR       a forbidden prime-power divisor is present; non-reducibility
              lifts from the divisor field to its multiples
  Unknown     none of the above settles it at this degree

The sufficient criterion compares gamma_n^n * |disc| against n^n * eta^2 in
exact integer arithmetic (gamma_n the Hermite constant of dimension n).  The
two famous equality cases, conductors 8 and 9, are settled by inspecting the
minima of the specific boundary form that makes the criterion tight.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConductorError, DegreeError, VerificationError
from .field import CycloElement, make_field
from .numtheory import euler_phi, listed_divisor, require_canonical_conductor
from .svp import MinimaReport, shortest
from .traceform import gram
from .units import EtaCertificate, eta

# gamma_n^n for n = 1..8; exact values, no radicals
HERMITE_POW = {
    1: Fraction(1),
    2: Fraction(4, 3),
    3: Fraction(2),
    4: Fraction(4),
    5: Fraction(8),
    6: Fraction(64, 3),
    7: Fraction(64),
    8: Fraction(256),
}


def hermite_pow(n: int) -> Fraction:
    """gamma_n^n, the n-th power of the Hermite constant, for n <= 8."""
    if n not in HERMITE_POW:
        raise DegreeError(f"no exact Hermite constant stored for dimension {n}")
    return HERMITE_POW[n]


@dataclass(frozen=True)
class CriterionResult:
    """Exact trichotomy of gamma_n^n * |disc| versus n^n * eta^2."""

    conductor: int
    degree: int
    eta: int
    discriminant_abs: int
    lhs: Fraction  # gamma_n^n * |disc|
    rhs: Fraction  # n^n * eta^2
    relation: str  # "Strict" | "Equal" | "Fail"


def strong_criterion(n: int) -> CriterionResult:
    """Sufficient condition for StronglyUR, as an exact comparison.

    lhs < rhs is decisive; lhs == rhs leaves exactly the boundary forms to
    inspect; lhs > rhs says nothing.
    """
    require_canonical_conductor(n)
    deg = euler_phi(n)
    gp = hermite_pow(deg)  # DegreeError for deg > 8, before a field is built
    ctx = make_field(n)
    e = eta(n)
    lhs = gp * ctx.discriminant_abs
    rhs = Fraction(deg**deg * e.eta**2)
    relation = "Strict" if lhs < rhs else ("Equal" if lhs == rhs else "Fail")
    return CriterionResult(
        conductor=n,
        degree=deg,
        eta=e.eta,
        discriminant_abs=ctx.discriminant_abs,
        lhs=lhs,
        rhs=rhs,
        relation=relation,
    )


# forbidden prime-power divisors: the field of that conductor is not unit
# reducible, and non-reducibility lifts to every multiple
NOT_UR_PRIME_POWERS = ((2, 4), (3, 3), (5, 2), (7, 2), (11, 2))
NOT_UR_PRIME_FLOOR = 13


def not_ur_by_divisor(n: int):
    """First forbidden divisor of n as (prime, exponent), or None."""
    return listed_divisor(n, NOT_UR_PRIME_POWERS, NOT_UR_PRIME_FLOOR)


@dataclass(frozen=True)
class BoundaryReport:
    """Minima inspection of the form that makes the criterion an equality.

    x is the small-norm non-unit (|norm| = eta) with a = 1/(x conj(x)):
    the minimum of the form of a equals Tr(a), attained both by units and
    by x itself, which is what WeaklyUR means.
    """

    conductor: int
    x: CycloElement
    a: CycloElement
    trace: Fraction
    minima: MinimaReport
    unit_minima: int
    nonunit_minima: int
    x_norm_abs: int

    def to_json_dict(self) -> dict:
        return {
            "conductor": self.conductor,
            "x_coeffs": [str(c) for c in self.x.coeffs],
            "a_coeffs": [str(c) for c in self.a.coeffs],
            "trace": str(self.trace),
            "minima": self.minima.to_json_dict(),
            "unit_minima": self.unit_minima,
            "nonunit_minima": self.nonunit_minima,
            "x_norm_abs": str(self.x_norm_abs),
        }


BOUNDARY_X = {
    8: (1, 1, 0, 0),  # 1 + z
    9: (1, 1, 0, 1, 0, 0),  # 1 + z + z^3
}


def boundary_analysis(n: int) -> BoundaryReport:
    """Settle a criterion equality by enumerating the minima of the boundary
    form.  Only conductors 8 and 9 have one.  Every claim is re-verified;
    a mismatch raises VerificationError since it can only mean a bug."""
    if n not in BOUNDARY_X:
        raise ConductorError(f"no boundary form for conductor {n}")
    ctx = make_field(n)
    x = ctx.element(BOUNDARY_X[n])
    a = (x * x.conj()).inverse()
    t = a.trace()
    rep = shortest(gram(a))
    if rep.mu != t:
        raise VerificationError(
            f"boundary form minimum {rep.mu} differs from trace {t} at conductor {n}"
        )
    units = [fv for fv in rep.minima if abs(fv.norm) == 1]
    nonunits = [fv for fv in rep.minima if abs(fv.norm) != 1]
    if not units:
        raise VerificationError(f"boundary minima of conductor {n} contain no unit")
    x_norm = abs(x.norm())
    e = eta(n)
    if x_norm != e.eta:
        raise VerificationError(
            f"|norm(x)| = {x_norm} but the least prime-ideal norm is {e.eta}"
        )
    if tuple(x.coeffs) not in {tuple(map(Fraction, fv.coeffs)) for fv in nonunits}:
        raise VerificationError(f"x is not among the non-unit minima at conductor {n}")
    return BoundaryReport(
        conductor=n,
        x=x,
        a=a,
        trace=t,
        minima=rep,
        unit_minima=len(units),
        nonunit_minima=len(nonunits),
        x_norm_abs=x_norm,
    )


@dataclass(frozen=True)
class Certificate:
    """Classification verdict with the exact numbers and evidence behind it."""

    conductor: int
    verdict: str  # StronglyUR | WeaklyUR | NotUR | Unknown
    reason: str
    criterion: CriterionResult | None = None
    eta_cert: EtaCertificate | None = None
    divisor: tuple[int, int] | None = None
    boundary: BoundaryReport | None = None

    def to_json_dict(self) -> dict:
        out = {
            "kind": "classification",
            "conductor": self.conductor,
            "verdict": self.verdict,
            "reason": self.reason,
        }
        if self.criterion is not None:
            out["criterion_lhs"] = str(self.criterion.lhs)
            out["criterion_rhs"] = str(self.criterion.rhs)
            out["criterion_relation"] = self.criterion.relation
        evidence = []
        if self.divisor is not None:
            p, k = self.divisor
            evidence.append(
                {"kind": "divisor", "prime": p, "exponent": k, "divisor": p**k}
            )
        if self.eta_cert is not None:
            evidence.append(self.eta_cert.to_json_dict())
        if self.boundary is not None:
            evidence.append(
                {"kind": "boundary", **self.boundary.to_json_dict()}
            )
        out["evidence"] = evidence
        return out


def classify(n: int) -> Certificate:
    """Unit-reducibility verdict for the field of conductor n.

    The criterion exists only at the twelve conductors of degree <= 8, and
    it is an equality only at 8 and 9, the conductors of BOUNDARY_X;
    boundary_analysis raises for any other, so no equality goes unsettled.
    """
    require_canonical_conductor(n)
    crit = strong_criterion(n) if euler_phi(n) in HERMITE_POW else None

    div = not_ur_by_divisor(n)
    if div is not None:
        p, k = div
        reason = (
            f"{p}^{k} divides {n}; the field of conductor {p**k} is not "
            "unit reducible and non-reducibility lifts to multiples"
        )
        return Certificate(conductor=n, verdict="NotUR", reason=reason, criterion=crit, divisor=div)
    if euler_phi(n) <= 2:
        reason = "degree <= 2: trivially unit reducible (degenerate certificate)"
        return Certificate(conductor=n, verdict="StronglyUR", reason=reason, criterion=crit)
    if crit is None:
        reason = f"degree {euler_phi(n)} > 8: no exact Hermite constant available"
        return Certificate(conductor=n, verdict="Unknown", reason=reason)

    boundary = None
    if crit.relation == "Strict":
        verdict, reason = "StronglyUR", f"criterion strict: {crit.lhs} < {crit.rhs}"
    elif crit.relation == "Equal":
        boundary = boundary_analysis(n)
        verdict, reason = "WeaklyUR", (
            f"criterion equality {crit.lhs} = {crit.rhs}; boundary form "
            "minima contain a non-unit alongside units"
        )
    else:
        verdict, reason = "Unknown", f"criterion fails: {crit.lhs} > {crit.rhs}"
    return Certificate(
        conductor=n,
        verdict=verdict,
        reason=reason,
        criterion=crit,
        eta_cert=eta(n),
        boundary=boundary,
    )


TABLE1_CONDUCTORS = (5, 7, 8, 9, 12, 15)


def table1() -> list[dict]:
    """The reference table of constants: N, eta, gamma_n^n, |disc|."""
    rows = []
    for n in TABLE1_CONDUCTORS:
        crit = strong_criterion(n)
        rows.append(
            {
                "N": n,
                "degree": crit.degree,
                "eta": crit.eta,
                "hermite_pow": crit.lhs / crit.discriminant_abs,
                "disc_abs": crit.discriminant_abs,
                "relation": crit.relation,
            }
        )
    return rows
