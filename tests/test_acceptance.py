"""Acceptance gate: twelve end-to-end checks with timing limits.

Each check prints one verdict line to the real stdout (past pytest's
capture) so a plain `pytest -v` run still shows the twelve lines.
"""

import itertools
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from unitred.certify import boundary_analysis, classify, strong_criterion, table1
from unitred.cli import run
from unitred.field import make_field
from unitred.realfield import classify_real, make_real_field, verify_real_witness
from unitred.serialize import dumps_canonical
from unitred.svp import enumerate_below
from unitred.traceform import gram
from unitred.units import mu_star
from unitred.witness import eq4_check, l75_scan, q_eval, rho, rho_closed, verify_witness

from linalg_helpers import fraction_det, invert_exact

PRIMES_13_97 = (13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _verdict(capsys, num, ok, elapsed, limit, detail):
    line = (
        f"[accept {num:02d}] {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.2f}s, limit {limit:g}s) {detail}"
    )
    with capsys.disabled():
        print("\n" + line, flush=True)


def test_01_reference_table(capsys):
    t0 = time.perf_counter()
    rows = table1()
    ns = tuple(r["N"] for r in rows)
    etas = tuple(r["eta"] for r in rows)
    discs = tuple(r["disc_abs"] for r in rows)
    ok = (
        ns == (5, 7, 8, 9, 12, 15)
        and etas == (5, 7, 2, 3, 4, 16)
        and discs == (125, 16807, 256, 19683, 144, 1265625)
    )
    el = time.perf_counter() - t0
    _verdict(capsys, 1, ok and el < 1, el, 1, f"eta={etas} |disc|={discs}")
    assert ok
    assert el < 1


def test_02_classification_sweep(capsys):
    t0 = time.perf_counter()
    expect = {}
    for n in (3, 4, 5, 7, 12, 15):
        expect[n] = "StronglyUR"
    for n in (8, 9):
        expect[n] = "WeaklyUR"
    for n in (16, 27, 25, 49, 121) + PRIMES_13_97:
        expect[n] = "NotUR"
    for n in (11, 20, 21, 24):
        expect[n] = "Unknown"
    bad = {n: (classify(n).verdict, want) for n, want in expect.items() if classify(n).verdict != want}
    el = time.perf_counter() - t0
    _verdict(capsys, 2, not bad and el < 10, el, 10, f"{len(expect)} conductors, mismatches: {bad or 'none'}")
    assert not bad
    assert el < 10


def test_03_criterion_equalities(capsys):
    t0 = time.perf_counter()
    c8, c9 = strong_criterion(8), strong_criterion(9)
    ok = (
        c8.relation == "Equal" and c8.lhs == c8.rhs == 1024
        and c9.relation == "Equal" and c9.lhs == c9.rhs == 419904
    )
    el = time.perf_counter() - t0
    _verdict(capsys, 3, ok and el < 1, el, 1, f"N=8: {c8.lhs}={c8.rhs}, N=9: {c9.lhs}={c9.rhs}")
    assert ok
    assert el < 1


def test_04_boundary_minima(capsys):
    t0 = time.perf_counter()
    b8 = boundary_analysis(8)
    vecs8 = b8.minima.minima
    has_unit8 = any(abs(fv.norm) == 1 for fv in vecs8)
    has_norm2 = any(fv.coeffs == (1, 1, 0, 0) and abs(fv.norm) == 2 for fv in vecs8)
    b9 = boundary_analysis(9)
    vecs9 = b9.minima.minima
    has_unit9 = any(abs(fv.norm) == 1 for fv in vecs9)
    has_norm3 = any(fv.coeffs == (1, 1, 0, 1, 0, 0) and abs(fv.norm) == 3 for fv in vecs9)
    ok = (
        b8.minima.mu == 4 and has_unit8 and has_norm2
        and b9.minima.mu == 6 and has_unit9 and has_norm3
    )
    el = time.perf_counter() - t0
    _verdict(
        capsys, 4, ok and el < 5, el, 5,
        f"N=8 mu={b8.minima.mu} unit+1+z8 found; N=9 mu={b9.minima.mu} 1+z9+z9^3 found",
    )
    assert ok
    assert el < 5


def test_05_witness_16(capsys):
    t0 = time.perf_counter()
    cert = verify_witness(16)
    ev = cert.reduced_evidence
    ok = (
        cert.status == "verified"
        and cert.trace_a == 16
        and cert.mu_a == 8
        and cert.ratio == 2
        and len(ev) == 8
        and all(len(fv.coeffs) == 8 for fv in ev)
        and all(abs(fv.norm) >= 2 for fv in ev)
    )
    el = time.perf_counter() - t0
    _verdict(
        capsys, 5, ok and el < 60, el, 60,
        f"trace 16, mu {cert.mu_a}, ratio {cert.ratio}, {len(ev)} sub-trace vectors all |norm|>=2",
    )
    assert ok
    assert el < 60


def test_06_witness_27_and_25(capsys):
    t0 = time.perf_counter()
    details = []
    ok = True
    for n, trace, mu, ratio, dim in ((27, 54, 18, Fraction(3), 18), (25, 50, 20, Fraction(5, 2), 20)):
        cert = verify_witness(n)
        good = (
            cert.trace_a == trace
            and cert.mu_a == mu
            and cert.ratio == ratio
            and all(len(fv.coeffs) == dim and abs(fv.norm) >= 2 for fv in cert.reduced_evidence)
        )
        details.append(f"N={n} verified mu={cert.mu_a} ratio={cert.ratio}")
        ok = ok and good
    el = time.perf_counter() - t0
    _verdict(capsys, 6, ok and el < 1800, el, 1800, "; ".join(details))
    assert ok
    assert el < 1800


def test_07_trace_lift_identity(capsys):
    t0 = time.perf_counter()
    rng = random.Random(424242)
    checked = 0
    for small, big, trials in ((3, 9, 100), (5, 25, 50)):
        ctx_s, ctx_b = make_field(small), make_field(big)
        for _ in range(trials):
            a = ctx_s.element([rng.randint(-5, 5) for _ in range(ctx_s.degree)])
            y = ctx_b.element([rng.randint(-5, 5) for _ in range(ctx_b.degree)])
            assert eq4_check(a, y).passed
            checked += 1
    k16, k8 = make_field(16), make_field(8)
    for k in range(16):
        got = k16.zeta(k).relative_trace(8)
        want = k8.zeta(k // 2) * 2 if k % 2 == 0 else k8.zero()
        assert got == want
    el = time.perf_counter() - t0
    _verdict(capsys, 7, el < 30, el, 30, f"{checked} lifted-trace trials + 16 Kronecker cases")
    assert checked == 150
    assert el < 30


def test_08_rho_and_q_identities(capsys):
    t0 = time.perf_counter()
    rng = random.Random(434343)
    per = 200
    for n in (8, 16, 9, 27, 5, 25):
        dim = make_field(n).degree
        for _ in range(per):
            z = [rng.randint(-3, 3) for _ in range(dim)]
            assert rho(n, z) == rho_closed(n, z)
    for _ in range(500):
        p = rng.choice((3, 5, 7, 11, 13))
        m = [rng.randint(-4, 4) for _ in range(p - 1)]
        assert q_eval(p, m) == p * sum(x * x for x in m) - sum(m) ** 2
    el = time.perf_counter() - t0
    _verdict(capsys, 8, el < 30, el, 30, f"{per} vectors x 6 conductors + 500 q evaluations")
    assert el < 30


def test_09_permutation_form_scan(capsys):
    t0 = time.perf_counter()
    reps = [l75_scan(3, 3), l75_scan(5, 3), l75_scan(7, 2)]
    ok = all(r.passed and r.min_margin == 0 and r.zero_at_m_zero for r in reps)
    el = time.perf_counter() - t0
    _verdict(
        capsys, 9, ok and el < 300, el, 300,
        "p=3,5,7 all pass; margin 0 attained at m=0 "
        f"(boundary margins {[r.boundary_min_margin for r in reps]})",
    )
    assert ok
    assert el < 300


def test_10_real_subfield(capsys):
    t0 = time.perf_counter()
    ok = classify_real(15).verdict == "UR"
    for n in (32, 27, 25, 49, 121, 169, 289, 361, 23):
        ok = ok and classify_real(n).verdict == "NotUR"
    cert = verify_real_witness(32)
    ok = (
        ok
        and cert.status == "verified"
        and cert.bound == 2 == 2 ** (5 - 4)
        and make_real_field(32).degree == 8
    )
    el = time.perf_counter() - t0
    _verdict(capsys, 10, ok and el < 120, el, 120, f"K32+ bound {cert.bound} via dimension-8 enumeration")
    assert ok
    assert el < 120


def _random_pd_gram(rng, dim):
    while True:
        b = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        if fraction_det([[Fraction(x) for x in row] for row in b]) == 0:
            continue
        return [
            [sum(b[k][i] * b[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]


def test_11_enumeration_oracles(capsys):
    t0 = time.perf_counter()
    rng = random.Random(444444)
    # independent box enumeration must agree with the pruned search
    for _ in range(50):
        dim = rng.choice((3, 4))
        rows = _random_pd_gram(rng, dim)
        bound = Fraction(rng.randint(4, 12))
        inv = invert_exact([[Fraction(x) for x in row] for row in rows])
        radii = [math.isqrt(math.floor(bound * inv[i][i])) + 1 for i in range(dim)]
        found = set()
        ranges = [range(-radii[i], radii[i] + 1) for i in range(dim)]
        for z in itertools.product(*ranges):
            if all(c == 0 for c in z):
                continue
            val = sum(rows[i][j] * z[i] * z[j] for i in range(dim) for j in range(dim))
            if val <= bound:
                first = next(c for c in z if c != 0)
                found.add(tuple(-c for c in z) if first < 0 else z)
        res = enumerate_below(rows, bound)
        assert {fv.coeffs for fv in res.vectors} == found
    # doubling the search bound must not change the unit minimum
    done = 0
    for n in (5, 8, 12):
        ctx = make_field(n)
        per = 9 if n == 5 else 8
        got = 0
        while got < per:
            c = ctx.element([rng.randint(-2, 2) for _ in range(ctx.degree)])
            if c.is_zero():
                continue
            a = c * c.conj()
            if a.trace() > 60:
                continue
            rep = mu_star(a)
            res = enumerate_below(gram(a), Fraction(2) * rep.mu_star)
            unit_vals = [fv.value for fv in res.vectors if abs(fv.norm) == 1]
            assert min(unit_vals) == rep.mu_star
            got += 1
            done += 1
    el = time.perf_counter() - t0
    _verdict(capsys, 11, el < 120, el, 120, f"50 box-oracle grams + {done} doubled-bound unit minima")
    assert done == 25
    assert el < 120


def test_12_byte_determinism(capsys):
    t0 = time.perf_counter()
    cmds = [
        ["classify", "15", "--json"],
        ["table1", "--json"],
        ["eta", "15", "--json"],
        ["delta-bound", "25", "--json"],
        ["witness", "16", "--verify", "--json"],
        ["real", "witness", "32", "--verify", "--json"],
        ["check-eq4", "3", "9", "--seed", "424242", "--json"],
        ["l75", "3", "--json"],
        ["shortest", "8", "-a", "1,0,0,0", "--json"],
        ["mustar", "5", "-a", "1,0,-1,-1", "--json"],
        ["reduced", "5", "-a", "1,0,-1,-1", "--json"],
        ["sweep", "3..16"],
    ]
    ok = True
    for cmd in cmds:
        a, b = run(list(cmd)), run(list(cmd))
        if a.payload is not None:
            same = dumps_canonical(a.payload) == dumps_canonical(b.payload)
        else:
            same = a.text == b.text
        ok = ok and a.exit_code == b.exit_code == 0 and same
    # and across interpreter processes, where hash randomization could bite
    argv = [sys.executable, "-m", "unitred.cli", "check-eq4", "3", "9", "--seed", "424242", "--json"]
    out1 = subprocess.run(argv, capture_output=True, check=True).stdout
    out2 = subprocess.run(argv, capture_output=True, check=True).stdout
    ok = ok and out1 == out2 and out1
    el = time.perf_counter() - t0
    _verdict(capsys, 12, bool(ok) and el < 30, el, 30, f"{len(cmds)} commands byte-identical twice + cross-process")
    assert ok
    assert el < 30
