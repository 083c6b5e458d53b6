"""Discrepancy witnesses for prime-power conductors and the identities
behind them.

For N = 2^n the witness is a = ((1+z)(1+z^-1))^-1; for N = p^n (p odd)
it is a = ((1-z)(1-z^-1))^-1.  Each is totally positive and reduced, with
Tr(a) strictly above the true minimum of its form once N is large enough:
the ratio Tr(a)/mu(a) is 2^(n-3) resp. p^(n-1)(p+1)/12 (floored at 1 for
the handful of tiny cases where the closed form dips below 1 and the trace
itself is the minimum).  verify_witness certifies all of this by one
exhaustive enumeration, never by trusting the formulas.

Also here: rho_N(z) = Tr(x conj(x)) and its closed forms, the quadratic
form Q behind the p-power case, the small-p exhaustive scan of the
rounding inequality Q(w/p - m) >= Q(w/p), the trace-lifting identity
relating a form over K_N to its lift over K_M, and the resulting lower
bounds on the reduction discrepancy delta.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass
from fractions import Fraction

from .errors import ConductorError, DegreeError, NotTotallyPositiveError, VerificationError
from .field import CycloElement, make_field
from .numtheory import euler_phi, factorize, require_canonical_conductor
from .svp import DEFAULT_NODE_CAP, FoundVector
from .units import is_reduced

VERIFY_DEGREE_CAP = 20  # enumeration dimension attempted by default


def _prime_power(big_n: int, what: str) -> tuple[int, int]:
    """(p, n) with N = p^n; ConductorError naming `what` for any other N."""
    fac = factorize(big_n)
    if len(fac) != 1:
        raise ConductorError(f"{what} exist for prime powers only, got {big_n}")
    return fac[0]


def _closed_ratio(p: int, k: int) -> Fraction:
    """Tr(a)/mu(a) of the witness at p^k before flooring at 1:
    2^(k-3) for p = 2, p^(k-1)(p+1)/12 for odd p."""
    return Fraction(2) ** (k - 3) if p == 2 else Fraction(p ** (k - 1) * (p + 1), 12)


def _witness_data(big_n: int):
    """(a, x, trace closed form, floored ratio closed form) for N = p^n, where
    a = (x conj(x))^-1 with x = 1+z for p = 2 (n >= 3) and x = 1-z for odd p."""
    p, n = _prime_power(big_n, "witnesses")
    if p == 2 and n < 3:
        raise ValueError(f"2-power witness needs 2^n with n >= 3, got {big_n}")
    x = _witness_x(big_n)
    trace_cf = 2 ** (2 * n - 4) if p == 2 else Fraction(p ** (2 * (n - 1)) * (p * p - 1), 12)
    return (x * x.conj()).inverse(), x, Fraction(trace_cf), max(Fraction(1), _closed_ratio(p, n))


def _witness_x(big_n: int) -> CycloElement:
    """x = 1+z at N = 2^n, 1-z at N = p^n: both witnesses' inverses embed to x conj(x)."""
    z = make_field(big_n).zeta()
    return 1 + z if big_n % 2 == 0 else 1 - z


def witness_for_conductor(big_n: int) -> CycloElement:
    """The witness a = (x conj(x))^-1 at N = p^n; see _witness_data."""
    return _witness_data(big_n)[0]


@dataclass(frozen=True, kw_only=True)
class _WitnessCertificate:
    """What every witness certificate carries: reduced_evidence is the
    complete list of vectors with form value strictly below trace_a, all
    non-units.  Only a finished check builds one (a budget stop raises
    BudgetError), so status and reduced are constants, kept as attributes
    and in the JSON.
    """

    status = "verified"
    reduced = True

    conductor: int
    trace_a: Fraction
    nodes: int
    reduced_evidence: tuple[FoundVector, ...]

    def _json(self, **fields) -> dict:
        """fields and the shared ones, as one JSON dict."""
        return {
            **fields,
            "conductor": self.conductor,
            "status": self.status,
            "trace_a": str(self.trace_a),
            "nodes_visited": self.nodes,
            "reduced": self.reduced,
            "reduced_evidence": [fv.to_json_dict() for fv in self.reduced_evidence],
        }


def _certify(a, big_n: int, trace_cf: Fraction, node_cap: int, force: bool, what: str):
    """The steps both witness checks share: the degree cap, Tr(a) against its
    closed form, is_reduced's one enumeration strictly below Tr(a) and the
    check that no unit lies there.

    Returns (mu, fields): mu is the minimum of the form of a, the first value
    below Tr(a), or Tr(a) itself when nothing lies below it, since u = 1
    attains Tr(a); fields are the _WitnessCertificate arguments.  A budget
    stop raises the scan's BudgetError.
    """
    deg = a.ctx.degree
    if deg > VERIFY_DEGREE_CAP and not force:
        raise DegreeError(
            f"enumeration dimension {deg} exceeds the cap {VERIFY_DEGREE_CAP} "
            "for exhaustive witness checks"
        )
    t = a.trace()
    if t != trace_cf:
        raise VerificationError(f"trace {t} differs from closed form {trace_cf}")
    try:
        cert = is_reduced(a, node_cap=node_cap)
    except NotTotallyPositiveError:
        raise VerificationError(f"{what} at {big_n} is not totally positive") from None
    unit = cert.witness_unit
    if unit is not None:
        raise VerificationError(
            f"unit {unit.coeffs} has form value {unit.value} < Tr(a) = {t}; "
            f"the {what} at {big_n} is not reduced"
        )
    below = cert.below_trace
    fields = {"conductor": big_n, "trace_a": t, "nodes": cert.nodes, "reduced_evidence": below}
    return (below[0].value if below else t), fields


@dataclass(frozen=True, kw_only=True)
class DiscrepancyCertificate(_WitnessCertificate):
    """Exhaustively certified witness report: mu_a is exact and
    ratio = trace_a / mu_a equals closed_form."""

    witness: CycloElement
    closed_form: Fraction
    mu_a: Fraction
    ratio: Fraction
    mu_attained_at_expected: bool

    def to_json_dict(self) -> dict:
        return self._json(
            kind="discrepancy_witness",
            witness_coeffs=[str(c) for c in self.witness.coeffs],
            closed_form=str(self.closed_form),
            mu_a=str(self.mu_a),
            ratio=str(self.ratio),
            mu_attained_at_expected=self.mu_attained_at_expected,
        )


def verify_witness(
    big_n: int,
    *,
    node_cap: int = DEFAULT_NODE_CAP,
    force: bool = False,
) -> DiscrepancyCertificate:
    """Certify the witness at conductor N = p^n by exhaustive enumeration.

    Checks, and raises VerificationError if any fails:
      - Tr(a) matches the closed form and a is totally positive;
      - no vector below Tr(a) is a unit (a is reduced), each has |norm| >= 2;
      - mu(a) from enumeration satisfies trace/mu == closed ratio;
      - x (= 1+z or 1-z) attains mu exactly when the ratio is not floored.

    Dimensions above VERIFY_DEGREE_CAP are refused unless force=True.  The
    node cap always applies: a cap hit raises BudgetError, after every
    check that does not read the scan has passed.
    """
    a, x, trace_cf, ratio_cf = _witness_data(big_n)
    # x = 1+z (2-power) or 1-z (p-power) has value Tr(1) = phi(N), the minimum
    # unless the ratio is floored
    x_val = (a * x * x.conj()).trace()
    if x_val != euler_phi(big_n):
        raise VerificationError(f"x has form value {x_val}, expected {euler_phi(big_n)}")
    mu_a, fields = _certify(a, big_n, trace_cf, node_cap, force, "witness")
    t = fields["trace_a"]
    ratio = t / mu_a
    if ratio != ratio_cf:
        raise VerificationError(
            f"ratio {ratio} differs from closed form {ratio_cf} at conductor {big_n}"
        )
    # x's first coefficient is 1, so the scan, exhaustive below Tr(a), lists x
    # as it is whenever x attains a mu_a < Tr(a)
    attained = x_val == mu_a
    minima = (fv for fv in fields["reduced_evidence"] if fv.value == mu_a)
    if attained and mu_a < t and not any(fv.coeffs == x.coeffs for fv in minima):
        raise VerificationError(f"x does not attain the minimum at conductor {big_n}")

    return DiscrepancyCertificate(
        witness=a,
        closed_form=ratio_cf,
        mu_a=mu_a,
        ratio=ratio,
        mu_attained_at_expected=attained,
        **fields,
    )


# ---------------------------------------------------------------------------
# rho and Q


def rho(big_n: int, z) -> Fraction:
    """Tr(x conj(x)) for x = sum z_i zeta^i; z must have length phi(N)."""
    ctx = make_field(big_n)
    vals = [Fraction(c) for c in z]
    if len(vals) != ctx.degree:
        raise ValueError(f"expected {ctx.degree} coordinates, got {len(vals)}")
    x = ctx.element(vals)
    return (x * x.conj()).trace()


def rho_closed(big_n: int, z) -> Fraction:
    """Closed form of rho for prime-power N: 2^(n-1) * sum z_i^2 when N = 2^n,
    p^(n-1) * sum of Q over coordinate slices when N = p^n."""
    p, n = _prime_power(big_n, "closed forms")
    vals = [Fraction(c) for c in z]
    if len(vals) != euler_phi(big_n):
        raise ValueError(f"expected {euler_phi(big_n)} coordinates, got {len(vals)}")
    if p == 2:
        return Fraction(2 ** (n - 1)) * sum(c * c for c in vals)
    block = p ** (n - 1)
    total = Fraction(0)
    for i in range(block):
        total += q_eval(p, vals[i::block])
    return block * total


def q_eval(p: int, m) -> Fraction:
    """Q(m_1..m_{p-1}) = (p-1) sum m_i^2 - 2 sum_{i<j} m_i m_j."""
    vals = [Fraction(c) for c in m]
    if len(vals) != p - 1:
        raise ValueError(f"expected {p - 1} coordinates, got {len(vals)}")
    sq = sum(c * c for c in vals)
    cross = Fraction(0)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            cross += vals[i] * vals[j]
    return (p - 1) * sq - 2 * cross


def q_matrix(p: int) -> list[list[int]]:
    """Gram matrix of Q: (p-1) on the diagonal, -1 off it."""
    d = p - 1
    return [[p - 1 if i == j else -1 for j in range(d)] for i in range(d)]


@dataclass(frozen=True)
class L75Report:
    """Exhaustive check of Q(w/p - m) >= Q(w/p) over all permutation vectors
    w of (1..p-1) and all integer m in a box.  Margins are scaled by p^2 to
    stay integral: margin(w, m) = Q(w - p m) - Q(w).  All permutations see
    the same margins (see l75_scan), so zero_margin_count is permutations
    times the zero count of w = (1..p-1)."""

    p: int
    box_radius: int
    permutations: int
    grid_points: int
    passed: bool
    min_margin: int
    zero_margin_count: int
    zero_at_m_zero: bool
    boundary_min_margin: int | None

    def to_json_dict(self) -> dict:
        return {"kind": "l75_scan", **asdict(self)}  # every field is an int, bool or None


def l75_scan(p: int, box_radius: int) -> L75Report:
    """Scan the rounding inequality at every lattice point of a box, small p.

    Q and the box are both invariant under permuting coordinates, so
    margin(sigma w, m) = margin(w, sigma^-1 m): one scan of w = (1..p-1)
    stands for all (p-1)! permutations.  With sum(w) = p(p-1)/2 the margin
    is p^2 * (sum_w f_w(m_w) - s^2), f_w(t) = p t^2 + (p-1-2w) t, s = sum m_w.
    The coordinates meet only through s, so the scan meets in the middle
    (Horowitz-Sahni): the tail, all but the first h = (p-1)//2 coordinates,
    is tabulated by its sum s_B (a count per total T_B, the least T_B, the
    least on the wall), and each head point (s_A, T_A) meets each row at
    margins T_B - need, need = (s_A + s_B)^2 - T_A.  At radius r that is
    (2r+1)^h (2(p-1-h)r + 1) + (2r+1)^(p-1-h) integer steps for (2r+1)^(p-1)
    points.  PASS covers the box's lattice points only: extending it by
    convexity would need margin >= 0 on the continuous wall, unchecked here.
    """
    if p not in (3, 5, 7):
        raise ValueError(f"scan supports p in 3, 5, 7, got {p}")
    if box_radius < 1:
        raise ValueError("box radius must be >= 1")
    d, h = p - 1, (p - 1) // 2
    side = range(-box_radius, box_radius + 1)
    # terms[w-1] tabulates f_w over the side, indexed by m_w + box_radius
    terms = [[p * t * t + (p - 1 - 2 * w) * t for t in side] for w in range(1, p)]
    wall = (0, len(side) - 1)  # indices of -box_radius and box_radius

    def points(cols):  # (s, T, on the wall) for each point of the box over cols
        for idx in itertools.product(range(len(side)), repeat=len(cols)):
            s = sum(idx) - len(cols) * box_radius
            yield s, sum(col[i] for col, i in zip(cols, idx)), any(i in wall for i in idx)

    rows = {}  # s_B -> [{T_B: count}, least T_B, least T_B on the wall or None]
    for s, t, on_wall in points(terms[h:]):
        row = rows.setdefault(s, [{}, t, None])
        row[0][t] = row[0].get(t, 0) + 1
        row[1] = min(row[1], t)
        if on_wall and (row[2] is None or t < row[2]):
            row[2] = t
    min_margin, boundary_min, zeros = 0, None, 0  # m = 0 lies in the box, at margin 0
    for s_a, t_a, a_wall in points(terms[:h]):
        for s_b, (counts, lo, lo_wall) in rows.items():
            need = (s_a + s_b) ** 2 - t_a
            zeros += counts.get(need, 0)
            if lo - need < min_margin:
                min_margin = lo - need
            wall_lo = lo if a_wall else lo_wall
            if wall_lo is not None and (boundary_min is None or wall_lo - need < boundary_min):
                boundary_min = wall_lo - need
    perms = math.factorial(d)
    return L75Report(
        p=p,
        box_radius=box_radius,
        permutations=perms,
        grid_points=len(side) ** d,
        passed=min_margin >= 0,
        min_margin=p * p * min_margin,
        zero_margin_count=perms * zeros,
        zero_at_m_zero=True,  # margin(w, 0) = Q(w) - Q(w) = 0 by definition
        boundary_min_margin=p * p * boundary_min,
    )


# ---------------------------------------------------------------------------
# the trace-lifting identity


@dataclass(frozen=True)
class Eq4Report:
    conductor_low: int
    conductor_high: int
    lhs: Fraction
    rhs: Fraction
    components: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs

    def to_json_dict(self) -> dict:
        return {
            "kind": "trace_lift_identity",
            "conductor_low": self.conductor_low,
            "conductor_high": self.conductor_high,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "components": self.components,
            "passed": self.passed,
        }


def eq4_check(a: CycloElement, y: CycloElement) -> Eq4Report:
    """Tr_{K_M}(lift(a) y conj(y)) == (M/N) * sum_i Tr_{K_N}(a x_i conj(x_i))
    where the x_i are the components of y over K_N.  Exact on both sides.

    The left side is a product in K_M.  The right side is one integer sum:
    with T[m] = den(a) * Tr(a z^m), Tr(a x conj(x)) = sum_(j,k) x_j x_k
    T[(j - k) mod N] / den(a) for x = sum_j x_j z^j, each component's
    numerator put over y's denominator."""
    low = a.ctx.conductor
    high = y.ctx.conductor
    lhs = (a.lift(high) * y * y.conj()).trace()
    parts = y.decompose(low)
    t = a._traces(a.ctx._mono_trace * 2, low)
    rows = [[t[(j - k) % low] for k in range(a.ctx.degree)] for j in range(a.ctx.degree)]
    total = 0
    for x in parts:
        v = [c * (y.den // x.den) for c in x.num]
        total += sum(c * sum(map(operator.mul, row, v)) for c, row in zip(v, rows) if c)
    rhs = Fraction(total * (high // low), a.den * y.den**2)
    return Eq4Report(
        conductor_low=low,
        conductor_high=high,
        lhs=lhs,
        rhs=rhs,
        components=len(parts),
    )


# ---------------------------------------------------------------------------
# delta lower bounds


@dataclass(frozen=True)
class DeltaBound:
    """Lower bound for the reduction discrepancy of the field of conductor n:
    the best closed-form witness ratio over prime-power divisors, floored
    at 1 (every field has delta >= 1 since a = 1 is reduced)."""

    conductor: int
    bound: Fraction
    source_divisor: int | None  # prime power achieving the bound
    desk_verifiable: bool | None  # enumeration dimension within default cap
    floored: bool

    @property
    def provenance(self) -> str:
        if self.source_divisor is None:
            return "trivial bound (a = 1 is reduced)"
        if self.floored:
            return f"trivial bound (witness ratio at divisor {self.source_divisor} is below 1)"
        tag = "desk-verifiable" if self.desk_verifiable else "closed form, not desk-verified"
        return f"witness at divisor {self.source_divisor} ({tag})"

    def to_json_dict(self) -> dict:
        return {
            "kind": "delta_lower_bound",
            "conductor": self.conductor,
            "value": str(self.bound),
            "evidence": {
                "source_divisor": self.source_divisor,
                "desk_verifiable": self.desk_verifiable,
                "floored": self.floored,
                "provenance": self.provenance,
            },
        }


def delta_lower_bound(n: int) -> DeltaBound:
    """max over prime-power divisors p^k | n of the witness ratios
    (2^(k-3) for p = 2 with k >= 3; p^(k-1)(p+1)/12 for odd p), floored at 1."""
    require_canonical_conductor(n)
    best = None  # (ratio, divisor)
    for p, k in factorize(n):
        if p == 2 and k < 3:
            continue
        raw = _closed_ratio(p, k)
        if best is None or raw > best[0]:
            best = (raw, p**k)
    if best is None:
        return DeltaBound(
            conductor=n, bound=Fraction(1), source_divisor=None, desk_verifiable=None, floored=False
        )
    ratio, divisor = best
    return DeltaBound(
        conductor=n,
        bound=max(ratio, Fraction(1)),
        source_divisor=divisor,
        desk_verifiable=euler_phi(divisor) <= VERIFY_DEGREE_CAP,
        floored=ratio < 1,
    )
