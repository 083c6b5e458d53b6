import random
from fractions import Fraction

import pytest

from unitred.certify import (
    BOUNDARY_X,
    NOT_UR_PRIME_FLOOR,
    NOT_UR_PRIME_POWERS,
    boundary_analysis,
    classify,
    hermite_pow,
    not_ur_by_divisor,
    strong_criterion,
    table1,
)
from unitred.errors import ConductorError, DegreeError
from unitred.field import make_field
from unitred.numtheory import is_canonical_conductor, is_prime
from unitred.realfield import (
    REAL_NOT_UR_PRIME_FLOOR,
    REAL_NOT_UR_PRIME_POWERS,
    real_not_ur_by_divisor,
)
from unitred.svp import shortest
from unitred.traceform import gram

HERMITE_POWERS = {
    1: Fraction(1),
    2: Fraction(4, 3),
    3: Fraction(2),
    4: Fraction(4),
    5: Fraction(8),
    6: Fraction(64, 3),
    7: Fraction(64),
    8: Fraction(256),
}

TABLE1_EXPECTED = [
    (5, 4, 5, Fraction(4), 125, "Strict"),
    (7, 6, 7, Fraction(64, 3), 16807, "Strict"),
    (8, 4, 2, Fraction(4), 256, "Equal"),
    (9, 6, 3, Fraction(64, 3), 19683, "Equal"),
    (12, 4, 4, Fraction(4), 144, "Strict"),
    (15, 8, 16, Fraction(256), 1265625, "Strict"),
]

STRONGLY = (3, 4, 5, 7, 12, 15)
WEAKLY = (8, 9)
NOT_UR = (16, 27, 25, 49, 121)
UNKNOWN = (11, 20, 21, 24)


def test_hermite_powers():
    for n, v in HERMITE_POWERS.items():
        assert hermite_pow(n) == v
    with pytest.raises(DegreeError):
        hermite_pow(9)


def test_criterion_relations():
    for n in (5, 7, 12, 15):
        assert strong_criterion(n).relation == "Strict"
    for n in (16, 20, 24):
        assert strong_criterion(n).relation == "Fail"
    # phi(n) <= 8 forces n <= 30, so this scan finds every conductor with a
    # criterion; equality only at the boundary-form conductors is why
    # classify has no branch for an equality left unsettled
    relations = {}
    for n in filter(is_canonical_conductor, range(1, 31)):
        try:
            relations[n] = strong_criterion(n).relation
        except DegreeError:
            pass
    assert sorted(relations) == [1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24]
    assert sorted(n for n, rel in relations.items() if rel == "Equal") == sorted(BOUNDARY_X)
    # beyond dimension 8 there is no exact Hermite constant to compare with,
    # and that is decided before any field context is built
    built = make_field.cache_info().misses
    for n in (11, 25, 27, 101):
        with pytest.raises(DegreeError):
            strong_criterion(n)
    assert make_field.cache_info().misses == built
    # a conductor that is not canonical is rejected before its degree is read
    for n in (0, 22, 4998):
        with pytest.raises(ConductorError):
            strong_criterion(n)


def test_criterion_equalities_exact():
    c8 = strong_criterion(8)
    assert (c8.lhs, c8.rhs, c8.relation) == (1024, 1024, "Equal")
    c9 = strong_criterion(9)
    assert (c9.lhs, c9.rhs, c9.relation) == (419904, 419904, "Equal")


def test_table1():
    rows = table1()
    got = [
        (r["N"], r["degree"], r["eta"], r["hermite_pow"], r["disc_abs"], r["relation"])
        for r in rows
    ]
    assert got == TABLE1_EXPECTED


def test_classification_verdicts():
    for n in STRONGLY:
        assert classify(n).verdict == "StronglyUR", n
    for n in WEAKLY:
        assert classify(n).verdict == "WeaklyUR", n
    for n in NOT_UR:
        assert classify(n).verdict == "NotUR", n
    for n in UNKNOWN:
        assert classify(n).verdict == "Unknown", n


def test_classification_primes():
    for n in range(13, 98):
        if is_prime(n):
            assert classify(n).verdict == "NotUR", n


def test_classify_rejects_bad_conductor():
    with pytest.raises(ConductorError):
        classify(6)
    with pytest.raises(ConductorError):
        classify(0)


def test_not_ur_propagates_along_divisibility():
    rng = random.Random(701)
    bases = [16, 25, 27, 13, 23, 49]
    checked = 0
    while checked < 25:
        base = rng.choice(bases)
        mult = rng.randint(1, 8)
        m = base * mult
        if not is_canonical_conductor(m):
            continue
        assert classify(m).verdict == "NotUR", m
        checked += 1


def test_strict_criterion_forms_have_unit_minima():
    # spot check: on Strict conductors every sampled totally positive form
    # attains its minimum on some unit
    rng = random.Random(702)
    for n, samples in ((5, 10), (12, 10), (15, 5)):
        ctx = make_field(n)
        deg = ctx.degree
        crit = strong_criterion(n)
        assert crit.relation == "Strict"
        done = 0
        while done < samples:
            b = ctx.element([rng.randint(-2, 2) for _ in range(deg)])
            if b.is_zero():
                continue
            a = b * b.conj()
            rep = shortest(gram(a))
            assert any(abs(fv.norm) == 1 for fv in rep.minima)
            # norm bound on minimizers: n^n norm(x)^2 <= gamma^n |disc|
            for fv in rep.minima:
                x = ctx.element(fv.coeffs)
                assert deg**deg * x.norm() ** 2 <= hermite_pow(deg) * ctx.discriminant_abs
            done += 1


def test_boundary_8():
    rep = boundary_analysis(8)
    assert rep.trace == 4
    assert rep.minima.mu == 4
    assert rep.unit_minima == 8
    assert rep.nonunit_minima == 4
    assert rep.x_norm_abs == 2
    assert list(rep.x.coeffs) == [1, 1, 0, 0]  # 1 + z
    assert rep.a == (rep.x * rep.x.conj()).inverse()


def test_boundary_9():
    rep = boundary_analysis(9)
    assert rep.trace == 6
    assert rep.minima.mu == 6
    assert rep.unit_minima == 27
    assert rep.nonunit_minima == 9
    assert rep.x_norm_abs == 3
    assert list(rep.x.coeffs) == [1, 1, 0, 1, 0, 0]  # 1 + z + z^3


def test_boundary_only_for_8_and_9():
    with pytest.raises(ConductorError):
        boundary_analysis(12)


def test_classification_reasons_and_json():
    cert = classify(15)
    d = cert.to_json_dict()
    assert d["kind"] == "classification"
    assert d["verdict"] == "StronglyUR"
    assert d["criterion_relation"] == "Strict"
    cert = classify(13)
    assert cert.divisor == (13, 1)
    cert = classify(11)
    assert "no exact Hermite constant" in cert.reason


def test_divisor_obstructions_match_a_direct_definition():
    # the first listed prime power dividing N, else the least prime at or
    # above the floor dividing N, with the primes from a sieve
    top = 5000
    sieve = [True] * (top + 1)
    for p in range(2, top + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(sieve[p * p :: p])
    plist = [p for p in range(2, top + 1) if sieve[p]]

    def direct(n, powers, floor):
        for p, k in powers:
            if n % p**k == 0:
                return (p, k)
        for p in plist:
            if p >= floor and n % p == 0:
                return (p, 1)
        return None

    for n in range(1, top + 1):
        assert not_ur_by_divisor(n) == direct(n, NOT_UR_PRIME_POWERS, NOT_UR_PRIME_FLOOR), n
        assert real_not_ur_by_divisor(n) == direct(
            n, REAL_NOT_UR_PRIME_POWERS, REAL_NOT_UR_PRIME_FLOOR
        ), n
