import math
import random

import pytest

from unitred.certify import classify, strong_criterion
from unitred.errors import ConductorError
from unitred.field import make_field
from unitred.realfield import classify_real
from unitred.numtheory import (
    divisors,
    euler_phi,
    factorize,
    is_canonical_conductor,
    is_prime,
    moebius,
    multiplicative_order,
    prime_divisors,
    primes,
    require_canonical_conductor,
)
from unitred.units import eta
from unitred.witness import delta_lower_bound

PHI_TABLE = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 8: 4, 9: 6, 12: 4, 15: 8, 16: 8, 25: 20, 27: 18, 97: 96}
MU_TABLE = {1: 1, 2: -1, 3: -1, 4: 0, 6: 1, 12: 0, 30: -1, 210: 1, 49: 0}


def test_factorize_reassembles():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randint(2, 10**6)
        fac = factorize(n)
        prod = 1
        for p, k in fac:
            assert is_prime(p)
            assert k >= 1
            prod *= p**k
        assert prod == n
        assert [p for p, _ in fac] == sorted(p for p, _ in fac)


def test_euler_phi_table_and_multiplicativity():
    for n, v in PHI_TABLE.items():
        assert euler_phi(n) == v
    rng = random.Random(102)
    for _ in range(200):
        a = rng.randint(1, 500)
        b = rng.randint(1, 500)
        if math.gcd(a, b) == 1:
            assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_phi_as_count():
    for n in range(1, 120):
        count = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == count


def test_moebius():
    for n, v in MU_TABLE.items():
        assert moebius(n) == v
    # sum over divisors is the unit impulse at n = 1
    for n in range(1, 200):
        s = sum(moebius(d) for d in divisors(n))
        assert s == (1 if n == 1 else 0)


def test_divisors_sorted_complete():
    rng = random.Random(103)
    for _ in range(100):
        n = rng.randint(1, 5000)
        ds = divisors(n)
        assert ds == sorted(ds)
        assert ds == [d for d in range(1, n + 1) if n % d == 0]


def test_prime_divisors():
    assert prime_divisors(360) == (2, 3, 5)
    assert prime_divisors(1) == ()


def test_primes_generator_matches_is_prime():
    gen = primes()
    got = [next(gen) for _ in range(25)]
    assert got == [n for n in range(2, 98) if is_prime(n)]


def test_multiplicative_order():
    # ord_15(2) = 4 backs the eta(15) = 16 computation
    assert multiplicative_order(2, 15) == 4
    assert multiplicative_order(2, 7) == 3
    rng = random.Random(104)
    for _ in range(200):
        n = rng.randint(2, 400)
        a = rng.randint(1, n - 1)
        if math.gcd(a, n) != 1:
            continue
        k = multiplicative_order(a, n)
        assert pow(a, k, n) == 1
        assert all(pow(a, j, n) != 1 for j in range(1, k))


def test_canonical_conductors():
    good = [1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 20, 25, 27]
    bad = [0, -4, 2, 6, 10, 14, 18, 22, 26]
    assert all(is_canonical_conductor(n) for n in good)
    assert not any(is_canonical_conductor(n) for n in bad)


def test_every_conductor_gate_raises_one_text():
    # make_field, classify, strong_criterion, eta, classify_real and
    # delta_lower_bound share one check
    rule = "is not canonical (need N >= 1 and N % 4 != 2)"
    cases = {
        0: f"conductor 0 {rule}",
        -4: f"conductor -4 {rule}",
        22: f"conductor 22 {rule}; use 11 instead",
        "5": f"conductor '5' {rule}",
    }
    gates = (
        require_canonical_conductor,
        make_field,
        classify,
        strong_criterion,
        eta,
        classify_real,
        delta_lower_bound,
    )
    for n, text in cases.items():
        for gate in gates:
            with pytest.raises(ConductorError) as exc:
                gate(n)
            assert str(exc.value) == text, (gate.__name__, n)
    for n in (1, 4, 15):
        require_canonical_conductor(n)
