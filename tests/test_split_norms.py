"""Norms at split primes against the resultant behind .norm().

The enumeration's norm cache (svp._OrbitNorms) evaluates a vector at the
roots of the defining polynomial modulo a product M of primes l = 1 (mod N)
and reads N(x) off the residue, which is exact once M^2 > 4 * N(x)^2.  The
resultant stays the oracle here; the mutants show that a wrong root, a
prime that does not split the polynomial and a modulus below the bound are
each refused with VerificationError rather than giving a wrong norm.
"""

import math
import random
from fractions import Fraction
from itertools import islice

import pytest

import unitred.svp as svp
from unitred.errors import VerificationError
from unitred.field import CycloElement, FieldContext, make_field, split_table
from unitred.numtheory import is_canonical_conductor, is_prime, miller_rabin, split_primes
from unitred.realfield import RealFieldContext, make_real_field, verify_real_witness
from unitred.witness import verify_witness

WITNESSES = (16, 17, 19, 25, 27, 32)
REAL_WITNESSES = (16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 49, 64)


@pytest.fixture(scope="module")
def certificates():
    """The strict scans below Tr(a), each computed once for this module."""
    certs = {f"witness {n}": verify_witness(n) for n in WITNESSES}
    for n in REAL_WITNESSES:
        certs[f"real witness {n}"] = verify_real_witness(n, force=True)
    return certs


def _rings():
    """K_N and K_N+ for every canonical conductor up to 100; K_1, K_3+ and
    K_4+ have degree 1."""
    for n in range(1, 101):
        if is_canonical_conductor(n):
            yield make_field(n)
            if n >= 3:
                yield make_real_field(n)


def _t2(x):
    """Tr(x conj(x)), the sum of |conjugates|^2; conj is the identity on K_N+."""
    return (x * (x.conj() if isinstance(x, CycloElement) else x)).trace()


def test_split_norms_match_resultants_on_the_strict_scans(certificates):
    kept = 0
    for name, cert in certificates.items():
        assert cert.status == "verified", name
        for fv in cert.reduced_evidence:
            assert fv.norm == fv.norms.ring.element(fv.coeffs).norm(), (name, fv.coeffs)
        kept += len(cert.reduced_evidence)
        if cert.reduced_evidence:
            # the bound is (Tr(a) * den(a) / d)^d, and every norm keeps to it
            a, sq_bound = cert.witness, cert.reduced_evidence[0].norms.sq_bound
            den, d = math.lcm(*(c.denominator for c in a.coeffs)), a.ctx.degree
            assert den > 1 and sq_bound == (cert.trace_a * den / d) ** d, name
            assert all(fv.norm**2 <= sq_bound for fv in cert.reduced_evidence), name
    assert kept > 6000


def test_split_norms_match_resultants_on_random_vectors():
    rng = random.Random(1509)
    for ring in _rings():
        d = ring.degree
        xs = [[rng.randint(-1, 1) if rng.random() < 4 / d else 0 for _ in range(d)]
              for _ in range(3)]
        xs = [tuple(x) for x in xs if any(x)] + [(rng.choice((-2, -1, 1, 2)),) * d]
        # by AM-GM, N(x)^2 <= (T2(x) / d)^d
        t2 = max(_t2(ring.element(x)) for x in xs)
        norms = svp._OrbitNorms(ring, (t2 / d) ** d)
        for x in xs:
            assert norms[x] == ring.element(x).norm(), (ring, x)
        m, rows = norms.table
        assert len(rows) == d and all(len(r) == d and r[0] == 1 for r in rows)
        assert m * m > 4 * norms.sq_bound


def test_split_primes_are_primes_one_mod_n():
    for n in (1, 3, 4, 33, 44, 49, 97):
        ells = list(islice(split_primes(n), 4))
        assert ells == sorted(ells) and ells[0] > 2**20
        assert all(ell % n == 1 % n and is_prime(ell) for ell in ells), (n, ells)
    # strong pseudoprimes to the bases 2, 3, 5 (and 7) are caught by 2, 7, 61,
    # and the first one to 2, 7 and 61 together is where exactness ends
    assert not miller_rabin(25326001) and not miller_rabin(3215031751)
    assert miller_rabin(4759123141) and not is_prime(4759123141)
    assert [n for n in range(3000) if miller_rabin(n)] == [n for n in range(3000) if is_prime(n)]


def test_a_perturbed_root_is_refused(monkeypatch):
    rings = (make_field(1), make_field(33), make_real_field(4), make_real_field(49))
    ells = [next(split_primes(ring.conductor)) for ring in rings]
    for ring, ell in zip(rings, ells):
        assert len(set(ring.roots_mod(ell))) == ring.degree
    for i in (0, -1):  # the mutant: root i of every prime is off by one
        with monkeypatch.context() as mp:
            for cls in (FieldContext, RealFieldContext):

                def perturbed(self, w, ell, _orig=cls._conjugates_mod):
                    modulus, roots = _orig(self, w, ell)
                    roots[i] = (roots[i] + 1) % ell
                    return modulus, roots

                mp.setattr(cls, "_conjugates_mod", perturbed)
            for ring, ell in zip(rings, ells):
                with pytest.raises(VerificationError):
                    ring.roots_mod(ell)
                with pytest.raises(VerificationError):
                    split_table.__wrapped__(ring, 2)


def test_a_prime_not_one_mod_n_is_refused():
    # 1048583 = 2 (mod 3), 3 (mod 4), 20 (mod 33), 2 (mod 49); for K_N+ a
    # prime = -1 (mod N) splits the polynomial too, yet has no w of order N
    ell = 1048583
    assert is_prime(ell)
    for n in (3, 4, 33, 49):
        assert ell % n != 1
        for ring in (make_field(n), make_real_field(n)):
            with pytest.raises(VerificationError):
                ring.roots_mod(ell)
    minus_one = next(p for p in range((2**20 // 49 + 1) * 49 - 1, 2**21, 49) if is_prime(p))
    with pytest.raises(VerificationError):
        make_real_field(49).roots_mod(minus_one)


def test_a_modulus_below_the_bound_is_refused(monkeypatch):
    ring, x = make_field(25), (1, 1, 0, 0, 1)
    assert (Fraction(_t2(ring.element(x))) / 20) ** 20 < 2**60
    sq_bound = Fraction(2**60)  # a looser bound is still a bound: two primes
    norms = svp._OrbitNorms(ring, sq_bound)
    assert norms[x] == ring.element(x).norm()
    assert len(norms.table[1]) == 20 and norms.table[0] > 2**40
    # a table one prime short has M^2 <= 4 * sq_bound, which the cache refuses
    monkeypatch.setattr(svp, "split_table", lambda r, k: split_table(r, k - 1))
    with pytest.raises(VerificationError):
        svp._OrbitNorms(ring, sq_bound)[x]
