"""Unit minima of trace forms, reducedness certificates, and the smallest
prime-ideal norm.

For totally positive a, the quadratic form q(u) = Tr(a * u * conj(u)) takes
the value Tr(a) at u = 1.  Its minimum over all nonzero integers is mu(a);
its minimum over units is mu*(a); a is reduced when no unit beats u = 1.
Each is decided by one exhaustive enumeration, with the norm of every
candidate checked exactly: mu_star scans up to Tr(a) and reads the units on
that shell; is_reduced scans strictly below Tr(a), and when nothing lies
there the minimum is Tr(a), which u = 1 attains.  Over K_N the scan walks
one slice of the form and closes it under u -> zeta * u, which keeps the
value and the norm, so units come in whole orbits of +-zeta^j u.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import VerificationError
from .numtheory import multiplicative_order, primes, require_canonical_conductor
from .svp import DEFAULT_NODE_CAP, FoundVector, enumerate_below
from .traceform import gram

ATTAINING_CAP = 512


def is_unit(x) -> bool:
    """True for integral elements of norm +-1."""
    return x.is_integral() and abs(x.norm()) == 1


@dataclass(frozen=True)
class MuStarReport:
    """mu*(a) with the units attaining it.

    attaining lists at most ATTAINING_CAP units (up to sign);
    attaining_count is the true number, attaining_truncated flags a cut.
    mu is the unconstrained minimum of the same form, which the enumeration
    yields for free.
    """

    element: object
    trace: Fraction
    mu: Fraction
    mu_star: Fraction
    attaining: tuple[FoundVector, ...]
    attaining_count: int
    attaining_truncated: bool
    nodes: int

    def to_json_dict(self) -> dict:
        return {
            "kind": "mu_star",
            "conductor": self.element.ctx.conductor,
            "value": str(self.mu_star),
            "evidence": {
                "trace": str(self.trace),
                "mu": str(self.mu),
                "attaining_units": [fv.to_json_dict() for fv in self.attaining],
                "attaining_count": self.attaining_count,
                "attaining_truncated": self.attaining_truncated,
                "nodes_visited": self.nodes,
            },
        }


def mu_star(a, *, node_cap: int = DEFAULT_NODE_CAP) -> MuStarReport:
    """Minimum of Tr(a u conj(u)) over units u, by exhaustive enumeration up
    to Tr(a) (the value at u = 1, so the search bound is always attained)."""
    t = a.trace()
    res = enumerate_below(gram(a), t, node_cap=node_cap)
    level = None
    attaining = []
    count = 0
    for fv in res.vectors:
        if level is not None and fv.value > level:
            break
        if abs(fv.norm) == 1:
            if level is None:
                level = fv.value
            count += 1
            if len(attaining) < ATTAINING_CAP:
                attaining.append(fv)
    if level is None:
        raise VerificationError(f"no unit attains Tr(a) = {t}, which u = 1 does")
    return MuStarReport(
        element=a,
        trace=t,
        mu=res.vectors[0].value,
        mu_star=level,
        attaining=tuple(attaining),
        attaining_count=count,
        attaining_truncated=count > len(attaining),
        nodes=res.nodes,
    )


@dataclass(frozen=True)
class ReducednessCertificate:
    """Decision of mu*(a) == Tr(a), with checkable evidence.

    When reduced, below_trace is the complete list of vectors of value
    strictly under Tr(a), every one annotated with its (non-unit) norm.
    When not, witness_unit is a unit with a strictly smaller value.
    """

    element: object
    reduced: bool
    trace: Fraction
    mu_star: Fraction
    witness_unit: FoundVector | None
    below_trace: tuple[FoundVector, ...]
    nodes: int

    def to_json_dict(self) -> dict:
        ev = {
            "trace": str(self.trace),
            "mu_star": str(self.mu_star),
            "below_trace": [fv.to_json_dict() for fv in self.below_trace],
            "nodes_visited": self.nodes,
        }
        if self.witness_unit is not None:
            ev["witness_unit"] = self.witness_unit.to_json_dict()
        return {
            "kind": "reduced",
            "conductor": self.element.ctx.conductor,
            "value": self.reduced,
            "evidence": ev,
        }


def is_reduced(a, *, node_cap: int = DEFAULT_NODE_CAP) -> ReducednessCertificate:
    """Whether no unit does strictly better than u = 1 in the form of a, by
    one enumeration strictly below Tr(a).

    Raises NotTotallyPositiveError when a is not totally positive and
    BudgetError when the enumeration hits a cap.
    """
    t = a.trace()
    res = enumerate_below(gram(a), t, strict=True, node_cap=node_cap)
    witness = next((fv for fv in res.vectors if abs(fv.norm) == 1), None)
    return ReducednessCertificate(
        element=a,
        reduced=witness is None,
        trace=t,
        mu_star=t if witness is None else witness.value,
        witness_unit=witness,
        below_trace=res.vectors,
        nodes=res.nodes,
    )


@dataclass(frozen=True)
class EtaCertificate:
    """Smallest norm of a prime ideal, with the primes examined as evidence.

    For a rational prime p with p^v exactly dividing the conductor n, primes
    above p have norm p^f with f the multiplicative order of p mod n/p^v.
    Any prime p >= the best norm found cannot improve it, so the scan below
    that bound is complete.
    """

    conductor: int
    eta: int
    prime: int
    residue_degree: int
    examined: tuple[tuple[int, int, int], ...]  # (p, f, p**f)

    def to_json_dict(self) -> dict:
        return {
            "kind": "eta",
            "conductor": self.conductor,
            "value": str(self.eta),
            "evidence": {
                "prime": self.prime,
                "residue_degree": self.residue_degree,
                "examined": [
                    {"prime": p, "residue_degree": f, "norm": str(nrm)}
                    for p, f, nrm in self.examined
                ],
            },
        }


def eta(n: int) -> EtaCertificate:
    """Least prime-ideal norm in the cyclotomic field of conductor n."""
    require_canonical_conductor(n)
    best = best_p = best_f = None
    examined = []
    for p in primes():
        if best is not None and p >= best:
            break
        m = n
        while m % p == 0:
            m //= p
        f = multiplicative_order(p, m)
        nrm = p**f
        examined.append((p, f, nrm))
        if best is None or nrm < best:
            best, best_p, best_f = nrm, p, f
    return EtaCertificate(
        conductor=n,
        eta=best,
        prime=best_p,
        residue_degree=best_f,
        examined=tuple(examined),
    )
