import hashlib
import random
from fractions import Fraction

import pytest

import unitred.realfield as realfield
import unitred.svp as svp
import unitred.units as units
from unitred.errors import BudgetError
from unitred.field import CycloElement, make_field
from unitred.realfield import RealElement, verify_real_witness
from unitred.serialize import dumps_canonical
from unitred.svp import enumerate_below, shortest
from unitred.traceform import gram
from unitred.units import eta, is_reduced, is_unit, mu_star
from unitred.witness import verify_witness

ETA_TABLE = {5: 5, 7: 7, 8: 2, 9: 3, 12: 4, 15: 16, 16: 2, 25: 5, 27: 3}

# smallest enumeration bounds at which the minimal non-unit norm shows up
ETA_ORACLE_BOUND = {5: 12, 7: 16, 8: 8, 9: 12, 12: 8, 15: 16}


def _rand_totally_positive(rng, ctx):
    while True:
        b = ctx.element([rng.randint(-3, 3) for _ in range(ctx.degree)])
        if not b.is_zero():
            return b * b.conj()


def test_is_unit():
    ctx = make_field(8)
    assert is_unit(ctx.one())
    assert is_unit(-ctx.one())
    assert is_unit(ctx.zeta(3))
    assert not is_unit(ctx.from_rational(2))
    assert not is_unit(ctx.one() + ctx.zeta())  # norm 2
    assert not is_unit(ctx.one() / 2)  # not integral
    k5 = make_field(5)
    assert not is_unit(k5.one() - k5.zeta())  # norm 5
    # cyclotomic unit (1 - z^2)/(1 - z) is integral of norm 1
    u = (k5.one() - k5.zeta(2)) * (k5.one() - k5.zeta()).inverse()
    assert is_unit(u)


def test_eta_table():
    for n, v in ETA_TABLE.items():
        cert = eta(n)
        assert cert.eta == v
        assert cert.prime ** cert.residue_degree == v


def test_eta_against_enumeration_oracle():
    # the minimal |norm| >= 2 among short vectors of the unit form matches
    # the residue-degree formula
    for n, bound in ETA_ORACLE_BOUND.items():
        ctx = make_field(n)
        res = enumerate_below(gram(ctx.one()), Fraction(bound))
        nonunit = [abs(fv.norm) for fv in res.vectors if abs(fv.norm) >= 2]
        assert nonunit, f"no non-unit below {bound} at conductor {n}"
        assert min(nonunit) == ETA_TABLE[n]


def test_eta_scan_is_complete():
    cert = eta(15)
    assert cert.eta == 16
    assert cert.prime == 2
    assert cert.residue_degree == 4
    examined = {p for p, _, _ in cert.examined}
    # every prime below the winning norm was considered
    assert {2, 3, 5, 7, 11, 13} <= examined


def test_mu_star_of_one():
    for n in (5, 8, 12):
        ctx = make_field(n)
        rep = mu_star(ctx.one())
        assert rep.mu_star == ctx.degree
        assert rep.trace == ctx.degree
        assert rep.mu == ctx.degree
        for fv in rep.attaining:
            assert abs(fv.norm) == 1


def test_mu_star_dominates_mu():
    rng = random.Random(601)
    for n in (5, 8, 12):
        ctx = make_field(n)
        for _ in range(12):
            a = _rand_totally_positive(rng, ctx)
            rep = mu_star(a)
            mu = shortest(gram(a)).mu
            assert rep.mu == mu
            assert rep.mu_star >= mu
            assert rep.mu_star <= rep.trace
            has_unit_min = any(
                abs(fv.norm) == 1
                for fv in shortest(gram(a)).minima
            )
            assert (rep.mu_star == mu) == has_unit_min


def test_am_gm_floor():
    # rationalized: value^n >= n^n * norm(a) * norm(x)^2 for enumerated x
    rng = random.Random(602)
    total = 0
    for n in (5, 8, 12):
        ctx = make_field(n)
        deg = ctx.degree
        cases = 0
        while cases < 40:
            a = _rand_totally_positive(rng, ctx)
            res = enumerate_below(gram(a), a.trace())
            for fv in res.vectors:
                x = ctx.element(fv.coeffs)
                lhs = fv.value**deg
                rhs = deg**deg * a.norm() * x.norm() ** 2
                assert lhs >= rhs
                cases += 1
        total += cases
    assert total >= 120


def test_reduced_scale_invariance():
    rng = random.Random(603)
    ctx = make_field(8)
    for _ in range(8):
        a = _rand_totally_positive(rng, ctx)
        base = is_reduced(a).reduced
        for q in (Fraction(1, 2), Fraction(3), Fraction(7, 5)):
            assert is_reduced(a * q).reduced == base


def test_reduced_of_one():
    cert = is_reduced(make_field(12).one())
    assert cert.reduced
    assert cert.mu_star == cert.trace == 4
    assert cert.witness_unit is None


def test_not_reduced_example():
    # 2 + theta over K_5 loses to the unit z + z^3 (= golden-ratio inverse pair)
    ctx = make_field(5)
    a = ctx.element([1, 0, -1, -1])
    cert = is_reduced(a)
    assert a.trace() == 6
    assert not cert.reduced
    assert cert.mu_star == 4
    assert abs(cert.witness_unit.norm) == 1


def test_mu_star_attaining_cap(monkeypatch):
    monkeypatch.setattr(units, "ATTAINING_CAP", 2)
    rep = mu_star(make_field(12).one())
    assert rep.attaining_truncated
    assert len(rep.attaining) == 2
    assert rep.attaining_count > 2


def test_report_json_shapes():
    rep = mu_star(make_field(5).one())
    d = rep.to_json_dict()
    assert d["kind"] == "mu_star"
    assert d["value"] == "4"
    cert = is_reduced(make_field(5).one())
    d = cert.to_json_dict()
    assert d["kind"] == "reduced"
    assert d["value"] is True
    d = eta(8).to_json_dict()
    assert d["kind"] == "eta"
    assert d["value"] == "2"


def test_norms_are_computed_only_where_a_certificate_reads_them(monkeypatch):
    # each scan stores a kept vector's norm as it finds it, from the root
    # table at split primes; no scan calls the resultant behind .norm(),
    # and the JSON reads the stored values
    resultant = {cls: cls.norm for cls in (CycloElement, RealElement)}
    for cls in resultant:

        def refuse(self):
            raise AssertionError(f"an enumeration called .norm() on {self!r}")

        monkeypatch.setattr(cls, "norm", refuse)

    # the witness checks keep the vectors strictly below Tr(a); the JSON
    # matches the inclusive scan's but for nodes_visited
    cert = verify_witness(25)
    assert len(cert.reduced_evidence) == 575
    text = dumps_canonical(cert.to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1a73be95e929749734b3bdac5965b2a3f9f0ef688faa6448f32ba7fc51e9f2db"
    )
    real = verify_real_witness(32)
    assert real.reduced_evidence

    # shortest's 15 minima over K_15 are one orbit of x under +-z^j
    x = make_field(15).element([3, 1, 0, 0, 0, 0, 0, 1])
    rep = shortest(gram(x * x.conj()))
    rep.to_json_dict()
    assert len(rep.minima) == 15 and len({fv.norm for fv in rep.minima}) == 1

    # mu_star reads norms up to its unit level: the five vectors at or below
    # it over K_5 are the units it reports
    ctx = make_field(5)
    e = 1 + ctx.zeta()  # a unit, so u = e^-1 beats u = 1 for a = (e e^-)^2
    a = (e * e.conj()) ** 2
    scan = enumerate_below(gram(a), a.trace()).vectors
    ms = mu_star(a)
    assert ms.mu_star < a.trace()
    at_or_below = [fv.coeffs for fv in scan if fv.value <= ms.mu_star]
    assert len(at_or_below) == 5 < len(scan)
    assert [fv.coeffs for fv in ms.attaining] == at_or_below

    monkeypatch.undo()
    checked = (cert.reduced_evidence, real.reduced_evidence, rep.minima, ms.attaining, scan)
    rings = (cert.witness.ctx, real.witness.ctx, x.ctx, ctx, ctx)
    for vectors, ring in zip(checked, rings):
        for fv in vectors:
            assert fv.norm == ring.element(fv.coeffs).norm(), (ring, fv.coeffs)


def test_is_reduced_is_one_strict_scan():
    # nothing lies strictly below Tr(1) over K_12 and K_15, so the minimum is
    # Tr(1), which u = 1 attains; is_reduced walks the strict tree once and
    # reports that walk's nodes, a budget stop's too.  Over K_12 the form's
    # value step is Tr(1) = 4, so the strict scan visits no node at all
    for n, nodes in ((12, 0), (15, 5)):
        one = make_field(n).one()
        strict = enumerate_below(gram(one), one.trace(), strict=True)
        assert strict.vectors == () and strict.nodes == nodes
        cert = is_reduced(one)
        assert cert.reduced and cert.below_trace == () and cert.mu_star == cert.trace
        assert cert.nodes == nodes
        if nodes:
            with pytest.raises(BudgetError) as exc:
                is_reduced(one, node_cap=nodes - 1)
            assert exc.value.nodes == nodes
        assert is_reduced(one, node_cap=nodes).nodes == nodes
    # the floored witnesses: mu(a) = Tr(a), attained by x = 1 -+ z exactly
    # when Tr(a) = phi(N); the inclusive scan of the Tr(a) shell is the oracle
    for n, attained in ((3, False), (5, False), (7, False), (8, True), (9, True), (11, True)):
        w = verify_witness(n)
        a = w.witness
        strict = enumerate_below(gram(a), w.trace_a, strict=True)
        assert strict.vectors == w.reduced_evidence == (), n
        assert w.nodes == strict.nodes and w.mu_a == w.trace_a, n
        shell = enumerate_below(gram(a), w.trace_a).vectors
        assert shell[0].value == w.mu_a, n
        x = 1 + a.ctx.zeta() if n % 2 == 0 else 1 - a.ctx.zeta()
        on_shell = any(fv.coeffs == x.coeffs for fv in shell)
        assert on_shell is w.mu_attained_at_expected is attained, n
    for n in (5, 7, 9, 11, 13, 16, 23):
        w = verify_real_witness(n)
        strict = enumerate_below(gram(w.witness), w.trace_a, strict=True)
        assert strict.vectors == w.reduced_evidence == (), n
        assert w.nodes == strict.nodes, n
        assert w.mu_exact == w.mu_star == w.trace_a, n
        assert enumerate_below(gram(w.witness), w.trace_a).vectors[0].value == w.mu_exact, n


def test_each_check_enumerates_once(monkeypatch):
    # is_reduced, mu_star and both witness checks each walk one tree, strict
    # below Tr(a) but for mu_star, which reads the Tr(a) shell
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("strict", False))
        return enumerate_below(*args, **kwargs)

    for module in (svp, units, realfield):
        monkeypatch.setattr(module, "enumerate_below", counting)
    one = make_field(15).one()
    checks = (
        (lambda: is_reduced(one), True),
        (lambda: mu_star(one), False),
        (lambda: verify_witness(11), True),
        (lambda: verify_witness(16), True),
        (lambda: verify_real_witness(16), True),
        (lambda: verify_real_witness(32), True),
    )
    for check, strict in checks:
        del calls[:]
        check()
        assert calls == [strict]
