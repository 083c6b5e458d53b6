import dataclasses
import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import unitred.realfield as realfield
import unitred.svp as svp
import unitred.units as units
import unitred.witness as witness_module
from unitred.errors import BudgetError, ConductorError, DegreeError, VerificationError
from unitred.field import make_field
from unitred.svp import FoundVector
from unitred.traceform import ldl
from unitred.witness import (
    L75Report,
    delta_lower_bound,
    eq4_check,
    l75_scan,
    q_eval,
    q_matrix,
    rho,
    rho_closed,
    verify_witness,
    witness_for_conductor,
)

# trace of the witness at N = p^n: 2^(2n-4) for p = 2, p^(2n-2)(p^2-1)/12 odd
WITNESS_TRACE = {
    8: Fraction(4),
    16: Fraction(16),
    32: Fraction(64),
    5: Fraction(2),
    25: Fraction(50),
    9: Fraction(6),
    27: Fraction(54),
    7: Fraction(4),
    49: Fraction(196),
}

# trace/mu ratio, floored at 1
WITNESS_RATIO = {
    8: Fraction(1),
    16: Fraction(2),
    32: Fraction(4),
    64: Fraction(8),
    5: Fraction(1),
    25: Fraction(5, 2),
    9: Fraction(1),
    27: Fraction(3),
    7: Fraction(1),
    49: Fraction(14, 3),
    121: Fraction(11),
    13: Fraction(7, 6),
    23: Fraction(2),
}

RHO_CONDUCTORS = (8, 16, 9, 27, 5, 25)


def test_witness_construction_inverts():
    for big_n in (8, 16, 3, 9, 5, 25, 7):
        a = witness_for_conductor(big_n)
        ctx = a.ctx
        assert ctx.conductor == big_n
        x = ctx.one() + ctx.zeta() if big_n % 2 == 0 else ctx.one() - ctx.zeta()
        assert a * x * x.conj() == ctx.one()


def test_witness_traces_match_closed_forms():
    for n, t in WITNESS_TRACE.items():
        assert witness_for_conductor(n).trace() == t


def test_witness_closed_ratios():
    # at a prime power the delta bound is the witness's floored closed ratio
    for n, r in WITNESS_RATIO.items():
        d = delta_lower_bound(n)
        assert (d.bound, d.source_divisor) == (r, n)


def test_witness_needs_prime_power():
    with pytest.raises(ConductorError):
        witness_for_conductor(12)
    with pytest.raises(ValueError):
        witness_for_conductor(4)  # conductor 4 has no such witness


def test_verify_witness_16():
    cert = verify_witness(16)
    assert cert.status == "verified"
    assert cert.trace_a == 16
    assert cert.mu_a == 8
    assert cert.ratio == 2
    assert cert.closed_form == 2
    assert cert.reduced
    assert cert.mu_attained_at_expected is True  # mu = phi(16), attained at 1+z
    assert len(cert.reduced_evidence) == 8
    for fv in cert.reduced_evidence:
        assert abs(fv.norm) >= 2


def test_verify_witness_floored_cases():
    # at 8, 9 and 5 the ratio floors at 1, so mu equals the trace
    for n in (8, 9, 5):
        cert = verify_witness(n)
        assert cert.status == "verified"
        assert cert.ratio == 1
        assert cert.mu_a == cert.trace_a
        assert cert.reduced
        assert cert.reduced_evidence == ()


def test_verify_witness_degree_guard():
    with pytest.raises(DegreeError):
        verify_witness(49)


def test_verify_witness_budget_stop_raises():
    # a budget stop is the scan's BudgetError with the counts reached; no
    # certificate is built
    with pytest.raises(BudgetError) as exc:
        verify_witness(27, node_cap=1500)
    assert str(exc.value) == "enumeration exceeded node cap 1500"
    assert (exc.value.nodes, exc.value.results) == (1501, 98)


def test_verify_witness_checks_x_before_the_scan(monkeypatch):
    # the check on x's value does not read the scan, so a budget stop
    # cannot skip it
    data = witness_module._witness_data

    def doubled_x(big_n):
        a, x, trace_cf, ratio_cf = data(big_n)
        return a, 2 * x, trace_cf, ratio_cf

    monkeypatch.setattr(witness_module, "_witness_data", doubled_x)
    with pytest.raises(VerificationError, match="x has form value 32, expected 8"):
        verify_witness(16, node_cap=1)


def test_witness_checks_reject_a_form_that_is_not_positive(monkeypatch):
    # the positivity check and the enumeration share one Gram matrix; a
    # failed check is a VerificationError, also under python -O.  LLL's
    # first elimination is the check: here it finds a negative first minor
    def indefinite(a):
        return "indefinite", 0, [1, -1] + [0] * (len(a) - 1), [[0] * len(a) for _ in a]

    monkeypatch.setattr(svp, "_fraction_free", indefinite)
    with pytest.raises(VerificationError, match="not totally positive"):
        verify_witness(16)
    with pytest.raises(VerificationError, match="not totally positive"):
        realfield.verify_real_witness(16)


def test_witness_checks_reject_a_unit_below_the_trace(monkeypatch):
    # only a broken enumerator can list a unit below Tr(a); both checks share
    # the test and its text
    def broken(a, *, node_cap):
        t = a.trace()
        fv = FoundVector((1,) + (0,) * (a.ctx.degree - 1), t - 1)
        return units.ReducednessCertificate(
            element=a,
            reduced=False,
            trace=t,
            mu_star=fv.value,
            witness_unit=fv,
            below_trace=(fv,),
            nodes=1,
        )

    monkeypatch.setattr(witness_module, "is_reduced", broken)
    with pytest.raises(VerificationError) as exc:
        verify_witness(16)
    assert str(exc.value) == (
        "unit (1, 0, 0, 0, 0, 0, 0, 0) has form value 15 < Tr(a) = 16; "
        "the witness at 16 is not reduced"
    )
    with pytest.raises(VerificationError) as exc:
        realfield.verify_real_witness(16)
    assert str(exc.value) == (
        "unit (1, 0, 0, 0) has form value 7 < Tr(a) = 8; the real witness at 16 is not reduced"
    )


def _perturbed(monkeypatch, module, name, change):
    """Replace module.name by a wrapper that passes its result through change."""
    inner = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kw: change(inner(*args, **kw)))


# each check below holds at 16 unless a closed form or the scan result is
# perturbed; a failed check is a VerificationError, also under python -O


def test_witness_check_rejects_a_trace_off_its_closed_form(monkeypatch):
    _perturbed(monkeypatch, witness_module, "_witness_data", lambda d: (d[0], d[1], d[2] + 1, d[3]))
    with pytest.raises(VerificationError) as exc:
        verify_witness(16)
    assert str(exc.value) == "trace 16 differs from closed form 17"


def test_witness_check_rejects_a_ratio_off_its_closed_form(monkeypatch):
    _perturbed(monkeypatch, witness_module, "_witness_data", lambda d: (*d[:3], d[3] + 1))
    with pytest.raises(VerificationError) as exc:
        verify_witness(16)
    assert str(exc.value) == "ratio 2 differs from closed form 3 at conductor 16"


def test_witness_check_rejects_x_off_its_form_value(monkeypatch):
    _perturbed(monkeypatch, witness_module, "euler_phi", lambda phi: phi + 1)
    with pytest.raises(VerificationError) as exc:
        verify_witness(16)
    assert str(exc.value) == "x has form value 8, expected 9"


def test_witness_check_rejects_x_missing_from_the_minimum_shell(monkeypatch):
    x = (1, 1) + (0,) * 6  # 1 + z over K_16, one of eight vectors at mu = 8

    def without_x(cert):
        below = tuple(fv for fv in cert.below_trace if fv.coeffs != x)
        assert len(below) == len(cert.below_trace) - 1
        return dataclasses.replace(cert, below_trace=below)

    _perturbed(monkeypatch, witness_module, "is_reduced", without_x)
    with pytest.raises(VerificationError) as exc:
        verify_witness(16)
    assert str(exc.value) == "x does not attain the minimum at conductor 16"


def test_real_witness_check_rejects_a_wrong_embedding(monkeypatch):
    _perturbed(monkeypatch, realfield, "_witness_x", lambda x: 2 * x)
    with pytest.raises(VerificationError) as exc:
        realfield.verify_real_witness(16)
    assert str(exc.value) == "real witness at 16 does not embed to the cyclotomic one"


def test_real_witness_check_rejects_a_trace_inverse_off_its_closed_form(monkeypatch):
    _perturbed(monkeypatch, realfield, "_real_witness_data", lambda d: (*d[:2], d[2] + 1, d[3]))
    with pytest.raises(VerificationError) as exc:
        realfield.verify_real_witness(16)
    assert str(exc.value) == "Tr(a^-1) is 8, expected 9 at conductor 16"


def test_real_witness_check_rejects_a_minimum_above_the_trace_inverse(monkeypatch):
    _perturbed(monkeypatch, realfield, "_certify", lambda r: (Fraction(9), r[1]))
    with pytest.raises(VerificationError) as exc:
        realfield.verify_real_witness(16)
    assert str(exc.value) == "enumerated minimum 9 exceeds the Tr(a^-1) bound 8"


def test_rho_identity():
    rng = random.Random(801)
    for n in RHO_CONDUCTORS:
        ctx = make_field(n)
        for _ in range(200):
            z = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(ctx.degree)]
            direct = rho(n, z)
            assert direct == rho_closed(n, z)
            x = ctx.element(z)
            assert direct == (x * x.conj()).trace()


def test_rho_rejects_bad_length():
    with pytest.raises(ValueError):
        rho(8, [1, 2])
    with pytest.raises(ConductorError, match="closed forms exist for prime powers only, got 12"):
        rho_closed(12, [1, 2, 3, 4])


def test_q_eval_identity():
    rng = random.Random(802)
    for _ in range(500):
        p = rng.choice((3, 5, 7, 11))
        m = [Fraction(rng.randint(-9, 9)) for _ in range(p - 1)]
        s = sum(m)
        sq = sum(c * c for c in m)
        assert q_eval(p, m) == p * sq - s * s


def test_q_matrix_is_positive_definite():
    for p in (3, 5, 7, 11):
        rows = [[Fraction(x) for x in row] for row in q_matrix(p)]
        res = ldl(rows)
        assert res.status == "positive_definite"
        assert res.pivots[0] == p - 1
        assert all(piv > 0 for piv in res.pivots)


def test_q_matrix_evaluates_q():
    rng = random.Random(803)
    for p in (3, 5, 7):
        rows = q_matrix(p)
        for _ in range(30):
            m = [rng.randint(-6, 6) for _ in range(p - 1)]
            quad = sum(
                rows[i][j] * m[i] * m[j]
                for i in range(p - 1)
                for j in range(p - 1)
            )
            assert q_eval(p, m) == quad


def test_l75_scans_pass():
    for p, box in ((3, 3), (5, 3), (7, 2)):
        rep = l75_scan(p, box)
        assert rep.passed
        assert rep.min_margin == 0
        assert rep.zero_at_m_zero
        assert rep.permutations == [2, 24, 720][(3, 5, 7).index(p)]
        assert rep.grid_points == (2 * box + 1) ** (p - 1)
        assert rep.boundary_min_margin > 0


def _l75_oracle(p, box):
    """The scan over every permutation w of (1..p-1), straight from the
    definition margin(w, m) = Q(w - p m) - Q(w)."""

    def q(v):
        return p * sum(c * c for c in v) - sum(v) ** 2

    side = range(-box, box + 1)
    grid = list(itertools.product(side, repeat=p - 1))
    margins, boundary, zeros, at_origin, perms = [], [], 0, True, 0
    for w in itertools.permutations(range(1, p)):
        perms += 1
        for m in grid:
            margin = q([wi - p * mi for wi, mi in zip(w, m)]) - q(w)
            margins.append(margin)
            zeros += margin == 0
            if not any(m):
                at_origin = at_origin and margin == 0
            if any(abs(mi) == box for mi in m):
                boundary.append(margin)
    return {
        "p": p,
        "box_radius": box,
        "permutations": perms,
        "grid_points": len(grid),
        "passed": min(margins) >= 0 and at_origin,
        "min_margin": min(margins),
        "zero_margin_count": zeros,
        "zero_at_m_zero": at_origin,
        "boundary_min_margin": min(boundary),
    }


def test_l75_scan_matches_full_permutation_oracle():
    for p, boxes in ((3, (1, 2, 3)), (5, (1, 2)), (7, (1,))):
        for box in boxes:
            rep = l75_scan(p, box).to_json_dict()
            assert rep.pop("kind") == "l75_scan"
            assert rep == _l75_oracle(p, box), (p, box)


def _l75_box_oracle(p, box):
    """The direct scan: one pass over every point of the box for
    w = (1..p-1), margin / p^2 = sum_w f_w(m_w) - (sum m)^2."""
    d = p - 1
    side = range(-box, box + 1)
    terms = [[p * t * t + (p - 1 - 2 * w) * t for t in side] for w in range(1, p)]
    wall = (0, len(side) - 1)
    min_margin = boundary_min = None
    zeros = 0
    for idx in itertools.product(range(len(side)), repeat=d):
        s = sum(idx) - d * box
        margin = sum(col[i] for col, i in zip(terms, idx)) - s * s
        if min_margin is None or margin < min_margin:
            min_margin = margin
        if margin == 0:
            zeros += 1
        if (boundary_min is None or margin < boundary_min) and any(i in wall for i in idx):
            boundary_min = margin
    perms = math.factorial(d)
    return L75Report(
        p=p,
        box_radius=box,
        permutations=perms,
        grid_points=len(side) ** d,
        passed=min_margin >= 0,
        min_margin=p * p * min_margin,
        zero_margin_count=perms * zeros,
        zero_at_m_zero=True,
        boundary_min_margin=p * p * boundary_min,
    )


def test_l75_scan_matches_the_box_oracle():
    for p, boxes in ((3, (1, 2, 3, 4)), (5, (1, 2, 3)), (7, (1, 2))):
        for box in boxes:
            assert l75_scan(p, box) == _l75_box_oracle(p, box), (p, box)


def test_import_does_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import unitred; "
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_l75_guards():
    with pytest.raises(ValueError):
        l75_scan(11, 2)
    with pytest.raises(ValueError):
        l75_scan(3, 0)


def _eq4_by_products(a, y):
    """Oracle: (lhs, rhs, components) of eq4 with the right side summed over
    field products a * x * conj(x), one per component."""
    low, high = a.ctx.conductor, y.ctx.conductor
    lhs = (a.lift(high) * y * y.conj()).trace()
    parts = y.decompose(low)
    rhs = Fraction(high // low) * sum(((a * x * x.conj()).trace() for x in parts), Fraction(0))
    return lhs, rhs, len(parts)


def test_eq4_random_trials():
    # integer trials, then the perfbench pairs with Fraction coefficients so
    # that a.den and y.den are not 1 and components reduce to other dens
    rng = random.Random(804)
    cases = [
        (3, 9, 40, 1), (5, 25, 20, 1), (4, 8, 40, 1), (7, 49, 4, 6), (15, 45, 4, 4), (3, 81, 4, 9)
    ]
    for small, big, trials, denom in cases:
        ctx_s = make_field(small)
        ctx_b = make_field(big)
        for _ in range(trials):
            a, y = (
                [Fraction(rng.randint(-5, 5), rng.randint(1, denom)) for _ in range(ctx.degree)]
                for ctx in (ctx_s, ctx_b)
            )
            if denom > 1:  # a top coefficient 1/denom puts denom into den
                a[-1] = y[-1] = Fraction(1, denom)
            a, y = ctx_s.element(a), ctx_b.element(y)
            assert a.den % denom == 0 == y.den % denom
            rep = eq4_check(a, y)
            assert rep.passed
            assert rep.components == ctx_b.degree // ctx_s.degree
            assert (rep.lhs, rep.rhs, rep.components) == _eq4_by_products(a, y)
            d = rep.to_json_dict()
            assert d["kind"] == "trace_lift_identity"


def test_relative_trace_kronecker():
    # Tr from the 16th to the 8th field kills odd zeta powers and doubles even
    k16 = make_field(16)
    k8 = make_field(8)
    for k in range(16):
        got = k16.zeta(k).relative_trace(8)
        if k % 2 == 0:
            assert got == k8.zeta(k // 2) * 2
        else:
            assert got.is_zero()


def test_delta_bounds():
    expected = {
        1: Fraction(1),
        8: Fraction(1),
        12: Fraction(1),
        16: Fraction(2),
        32: Fraction(4),
        25: Fraction(5, 2),
        27: Fraction(3),
        13: Fraction(7, 6),
        23: Fraction(2),
        49: Fraction(14, 3),
        400: Fraction(5, 2),
    }
    for n, b in expected.items():
        assert delta_lower_bound(n).bound == b


def test_delta_bound_provenance():
    d = delta_lower_bound(25)
    assert d.source_divisor == 25
    assert d.desk_verifiable
    assert "desk-verifiable" in d.provenance
    d = delta_lower_bound(49)
    assert d.source_divisor == 49
    assert not d.desk_verifiable
    assert "not desk-verified" in d.provenance
    d = delta_lower_bound(3)
    assert d.bound == 1
    assert d.floored
    d = delta_lower_bound(1)
    assert d.bound == 1
    assert d.source_divisor is None
    j = delta_lower_bound(16).to_json_dict()
    assert j["kind"] == "delta_lower_bound"
    assert j["value"] == "2"


def test_delta_monotone_under_divisibility():
    # K_2m = K_m for odd m, and n | m keeps that divisibility between the
    # canonical names, which are the only conductors delta_lower_bound takes
    def canonical(n):
        return n // 2 if n % 4 == 2 else n

    rng = random.Random(805)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 200)
        mult = rng.randint(1, 12)
        m = n * mult
        assert delta_lower_bound(canonical(n)).bound <= delta_lower_bound(canonical(m)).bound
        checked += 1
