import hashlib
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import unitred.svp as svp
from unitred.errors import BudgetError, ConductorError, DegreeError, VerificationError
from unitred.field import make_field
from unitred.numtheory import is_canonical_conductor
from unitred.realfield import (
    _real_witness_data,
    classify_real,
    embed,
    make_real_field,
    project,
    real_element_from_json_dict,
    real_mu_relations_check,
    real_sqrt_of_unit,
    verify_real_witness,
)
from unitred.serialize import dumps_canonical
from unitred.svp import enumerate_below, shortest
from unitred.traceform import gram, is_totally_positive
from unitred.units import is_unit

# minimal polynomials of theta = zeta + 1/zeta, low degree first
MIN_POLY = {
    3: (1, 1),
    4: (0, 1),
    5: (-1, 1, 1),
    7: (-1, -2, 1, 1),
    8: (-2, 0, 1),
    9: (1, -3, 0, 1),
    12: (-3, 0, 1),
    15: (1, 4, -4, -1, 1),
    16: (2, 0, -4, 0, 1),
}

REAL_UR_SET = (3, 4, 5, 7, 8, 9, 12, 15)
REAL_NOT_UR = (32, 27, 25, 49, 121, 169, 289, 361, 23)


def _rand_real(rng, ctx, lo=-4, hi=4):
    return ctx.element([rng.randint(lo, hi) for _ in range(ctx.degree)])


def test_min_polys():
    for n, coeffs in MIN_POLY.items():
        ctx = make_real_field(n)
        assert ctx.min_poly == coeffs
        assert ctx.degree == len(coeffs) - 1
        th = ctx.theta()
        acc = ctx.zero()
        for i, c in enumerate(coeffs):
            acc = acc + th**i * c
        assert acc.is_zero()


def test_theta_embeds_to_zeta_pair():
    for n in (5, 8, 12, 16, 9):
        kc = make_field(n)
        th = make_real_field(n).theta()
        assert embed(th) == kc.zeta() + kc.zeta(n - 1)


def test_conductor_gate():
    with pytest.raises(ConductorError):
        make_real_field(6)
    with pytest.raises(ConductorError):
        make_real_field(2)


def test_embed_project_round_trip():
    rng = random.Random(901)
    for n in (5, 8, 12, 16, 9, 7, 15):
        ctx = make_real_field(n)
        for _ in range(25):
            x = _rand_real(rng, ctx)
            y = embed(x)
            assert y.conj() == y
            assert project(y) == x


def test_field_1009_builds_its_real_subfield_in_bounded_memory():
    # the real subfield used to come from a solve over phi(N)^2 / 2 embedded
    # coefficients, and `field 1009` did not finish within 100 s; the
    # Dickson derivation keeps O(N) integers per context
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import contextlib, io, json, resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from unitred.cli import main\n"
        "from unitred.realfield import embed, make_real_field, project\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    rc = main(['field', '1009', '--json'])\n"
        "mp = json.loads(out.getvalue())['real_min_poly']\n"
        "ctx = make_real_field(1009)\n"
        "x = ctx.element([(7 * i) % 11 - 5 or 6 for i in range(ctx.degree)]) / 3\n"
        "ok = rc == 0 and len(mp) == 505 and mp[-1] == 1 and project(embed(x)) == x\n"
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


def test_project_rejects_non_fixed():
    with pytest.raises(ValueError, match="not fixed by conjugation"):
        project(make_field(8).zeta())


def test_embed_is_ring_homomorphism():
    rng = random.Random(902)
    for n in (5, 8, 12, 16):
        ctx = make_real_field(n)
        for _ in range(25):
            x = _rand_real(rng, ctx)
            y = _rand_real(rng, ctx)
            assert embed(x * y) == embed(x) * embed(y)
            assert embed(x + y) == embed(x) + embed(y)


def test_trace_doubles_and_norm_squares():
    rng = random.Random(903)
    for n in (5, 8, 12, 16, 9):
        ctx = make_real_field(n)
        for _ in range(25):
            x = _rand_real(rng, ctx)
            assert embed(x).trace() == 2 * x.trace()
            assert embed(x).norm() == x.norm() ** 2


def test_real_norm_signs():
    # resultant-based norms keep their sign
    assert make_real_field(12).theta().norm() == -3
    assert make_real_field(5).theta().norm() == -1
    t = make_real_field(12).theta()
    assert (2 - t).norm() == 1  # 2 - sqrt(3) is a unit
    assert (1 + t).norm() == -2


def test_real_inverse_and_division():
    rng = random.Random(904)
    ctx = make_real_field(16)
    done = 0
    while done < 20:
        x = _rand_real(rng, ctx)
        if x.is_zero():
            continue
        assert x * x.inverse() == ctx.one()
        assert (x / x) == ctx.one()
        done += 1


def test_real_gram_of_one_over_8():
    g = gram(make_real_field(8).one())
    assert g.entries == ((2, 0), (0, 4))


def test_totally_positive_transfers():
    rng = random.Random(905)
    for n in (5, 8, 12, 16):
        ctx = make_real_field(n)
        for _ in range(30):
            x = _rand_real(rng, ctx)
            if x.is_zero():
                continue
            assert is_totally_positive(x * x) is True
            assert is_totally_positive(embed(x * x))
            # signs transfer both ways
            assert is_totally_positive(x) == is_totally_positive(embed(x))


def test_real_element_json_round_trip():
    ctx = make_real_field(16)
    x = ctx.element([1, Fraction(-2, 3), 0, 5])
    d = x.to_json_dict()
    assert d["basis"] == "theta"
    assert real_element_from_json_dict(d) == x


def test_real_witness_shapes():
    a = _real_witness_data(16)[0]  # over K_16+
    ctx = a.ctx
    assert (2 + ctx.theta()) * a == ctx.one()
    with pytest.raises(ValueError):
        _real_witness_data(8)
    b = _real_witness_data(25)[0]
    assert (2 - b.ctx.theta()) * b == b.ctx.one()


def test_verify_real_witness_16():
    cert = verify_real_witness(16)
    assert cert.status == "verified"
    assert cert.trace_a == 8
    assert cert.mu_upper == 8
    assert cert.mu_exact == 8
    assert cert.mu_star == 8
    assert cert.bound == 1
    assert cert.ratio_exact == 1
    assert cert.quoted_form == 1
    assert cert.closed_form_agrees is True
    assert cert.reduced


def test_verify_real_witness_32():
    cert = verify_real_witness(32)
    assert cert.status == "verified"
    assert cert.trace_a == 32
    assert cert.mu_upper == 16
    assert cert.mu_exact == 16
    assert cert.mu_star == 32
    assert cert.bound == 2
    assert cert.ratio_exact == 2
    assert cert.quoted_form == 2
    assert cert.closed_form_agrees is True
    assert cert.mu_path == "enumeration"


def test_verify_real_witness_25_differs_from_quoted():
    # the certified bound is 5/4; the quoted closed form 5/3 is not attained
    cert = verify_real_witness(25)
    assert cert.status == "verified"
    assert cert.trace_a == 25
    assert cert.mu_upper == 20
    assert cert.mu_exact == 20
    assert cert.mu_star == 25
    assert cert.bound == Fraction(5, 4)
    assert cert.quoted_form == Fraction(5, 3)
    assert cert.closed_form_agrees is False


def test_verify_real_witness_27_differs_from_quoted():
    cert = verify_real_witness(27)
    assert cert.status == "verified"
    assert cert.trace_a == 27
    assert cert.mu_upper == 18
    assert cert.mu_exact == 18
    assert cert.mu_star == 27
    assert cert.bound == Fraction(3, 2)
    assert cert.quoted_form == 3
    assert cert.closed_form_agrees is False


def test_verify_real_witness_23_bound_below_one():
    # at the bare prime 23 the certified bound drops below 1: the witness
    # proves nothing there, and enumeration confirms mu equals the trace
    cert = verify_real_witness(23)
    assert cert.status == "verified"
    assert cert.trace_a == 22
    assert cert.mu_upper == 23
    assert cert.mu_exact == 22
    assert cert.mu_star == 22
    assert cert.bound == Fraction(22, 23)
    assert cert.ratio_exact == 1
    assert cert.reduced


def test_verify_real_witness_guards():
    with pytest.raises(ConductorError):
        verify_real_witness(12)
    with pytest.raises(DegreeError):
        verify_real_witness(49)  # half degree 21 exceeds the cap


def test_verify_real_witness_budget_stop_raises():
    # the whole scan takes 49 nodes and keeps 8 vectors; it stops inside
    with pytest.raises(BudgetError) as exc:
        verify_real_witness(32, node_cap=40)
    assert str(exc.value) == "enumeration exceeded node cap 40"
    assert (exc.value.nodes, exc.value.results) == (41, 7)


def test_verify_real_witness_checks_tr_inverse_before_the_scan(monkeypatch):
    # the embedding and Tr(a^-1) checks do not read the scan, so a budget
    # stop cannot skip them: a wrong closed form fails at node cap 1
    def wrong_upper(big_n):
        a, trace_cf, upper_cf, quoted = _real_witness_data(big_n)
        return a, trace_cf, upper_cf + 1, quoted

    monkeypatch.setattr("unitred.realfield._real_witness_data", wrong_upper)
    with pytest.raises(VerificationError, match="Tr\\(a\\^-1\\) is 16, expected 17"):
        verify_real_witness(32, node_cap=1)


def _units_below(n, bound):
    ctx = make_field(n)
    res = enumerate_below(gram(ctx.one()), Fraction(bound))
    return [ctx.element(fv.coeffs) for fv in res.vectors if abs(fv.norm) == 1]


def test_unit_square_correspondence_prime_powers():
    # u * conj(u) is the square of a real unit, for all short units found
    for n, bound in ((5, 8), (8, 8), (16, 20)):
        units = _units_below(n, bound)
        assert units
        for u in units:
            w = project(u * u.conj())
            v = real_sqrt_of_unit(w)
            assert v is not None
            assert v * v == w
            assert is_unit(v)


def test_unit_square_two_branches_at_12():
    # over the composite conductor 12 a second branch appears: u * conj(u)
    # can also be (2 - theta) times a square, and 1 - zeta_12 lands there
    ctx = make_real_field(12)
    t = ctx.theta()
    co = 2 + t  # inverse of 2 - theta
    second_branch_seen = 0
    for u in _units_below(12, 10):
        w = project(u * u.conj())
        v = real_sqrt_of_unit(w)
        if v is None:
            v2 = real_sqrt_of_unit(w * co)
            assert v2 is not None
            assert v2 * v2 == w * co
            second_branch_seen += 1
    assert second_branch_seen > 0
    # the pinned example: 1 - zeta_12 is a unit whose relative norm 2 - theta
    # is totally positive yet not a square of any real unit
    k12 = make_field(12)
    u = k12.one() - k12.zeta()
    assert is_unit(u)
    assert project(u * u.conj()) == 2 - t
    assert is_totally_positive(2 - t)
    assert real_sqrt_of_unit(2 - t) is None


def test_mu_relations_identity_at_prime_powers():
    rng = random.Random(906)
    for n in (5, 8, 16):
        ctx = make_real_field(n)
        done = 0
        while done < 6:
            b = _rand_real(rng, ctx, -2, 2)
            # keep the lifted enumeration bound small enough to stay fast
            if b.is_zero() or (b * b).trace() > 30:
                continue
            rel = real_mu_relations_check(b * b)
            assert rel.star_identity, (n, b.coeffs)
            assert rel.star_lower and rel.half_bound and rel.passed
            done += 1


def test_mu_relations_identity_fails_at_12():
    # mu*(a) = mu*(lift)/2 is a prime-power fact; at 12 the unit 1 - zeta_12
    # beats every real unit and breaks the equality, leaving only >=
    ctx = make_real_field(12)
    a = ctx.element([17, 8])
    rel = real_mu_relations_check(a)
    assert rel.mu_star_real == 34
    assert rel.mu_star_lift == 40
    assert not rel.star_identity
    assert rel.star_lower
    assert rel.half_bound
    assert rel.passed
    d = rel.to_json_dict()
    assert d["kind"] == "real_mu_relations"
    assert d["star_identity"] is False


def test_half_bound_can_be_strict():
    # over K_16+ the plain minimum can exceed half the lifted minimum
    ctx = make_real_field(16)
    t = ctx.theta()
    a = ctx.one() + 2 * t**2 - t**3
    assert is_totally_positive(a)
    rel = real_mu_relations_check(a)
    assert rel.mu_real == 20
    assert rel.mu_lift == 32
    assert rel.strict
    assert rel.half_bound


def _relation_elements():
    """Squares over K_5+, K_8+ and K_16+ plus the two pinned forms above."""
    rng = random.Random(908)
    out = []
    for n in (5, 8, 16):
        ctx = make_real_field(n)
        squares = []
        while len(squares) < 3:
            b = _rand_real(rng, ctx, -2, 2)
            if not b.is_zero() and (b * b).trace() <= 30:
                squares.append(b * b)
        out += squares
    t16 = make_real_field(16).theta()
    return out + [make_real_field(12).element([17, 8]), 1 + 2 * t16**2 - t16**3]


def test_mu_relations_match_shortest_oracle():
    # mu(a) and mu(embed(a)) come from the two mu_star scans; shortest on
    # each Gram matrix computes them independently
    for a in _relation_elements():
        rel = real_mu_relations_check(a)
        assert rel.mu_real == shortest(gram(a)).mu, a
        assert rel.mu_lift == shortest(gram(embed(a))).mu, a


def test_mu_relations_prepare_each_form_once(monkeypatch):
    calls = []
    orig = svp.lll_reduce

    def counting(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(svp, "lll_reduce", counting)
    for a in _relation_elements()[-3:]:
        calls.clear()
        real_mu_relations_check(a)
        assert len(calls) == 2, a


def test_classify_real_lists():
    for n in REAL_UR_SET:
        assert classify_real(n).verdict == "UR", n
    for n in REAL_NOT_UR:
        cert = classify_real(n)
        assert cert.verdict == "NotUR", n
        assert cert.divisor is not None
    for n in (11, 13, 16, 20):
        assert classify_real(n).verdict == "Unknown", n


def test_classify_real_propagates():
    assert classify_real(75).verdict == "NotUR"  # 25 | 75
    assert classify_real(96).verdict == "NotUR"  # 32 | 96
    assert classify_real(575).verdict == "NotUR"  # 23 | 575
    assert classify_real(529).verdict == "NotUR"  # 23 | 529
    d = classify_real(75).to_json_dict()
    assert d["kind"] == "real_classification"
    assert d["divisor"] == {"p": 5, "k": 2, "value": 25}


def test_classify_real_json_is_pinned():
    # the canonical JSON lines of every canonical n <= 600, verdicts,
    # reasons and divisors alike, as recorded at 9f1adb4
    lines = [
        dumps_canonical(classify_real(n).to_json_dict())
        for n in range(1, 601)
        if is_canonical_conductor(n)
    ]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "88d68d3e0d8dc4d10b7a5c6c1715a48ceeafc930e8eb3c3f635a87f953c75456"
    )


def test_classify_real_degenerate():
    assert classify_real(1).verdict == "UR"
    assert classify_real(3).verdict == "UR"
    with pytest.raises(ConductorError):
        classify_real(10)
