"""Norms at split primes against the resultant behind .norm().

The enumeration evaluates each kept vector at the roots of the defining
polynomial modulo a product M of primes l = 1 (mod N), from a table of the
reduced basis at those roots (svp._root_table), and reads N(x) off the
residue, which is exact once M^2 > 4 * N(x)^2.  The resultant stays the
oracle here; the mutants show that a wrong root, a prime that does not split
the polynomial and a modulus below the bound are each refused with
VerificationError, through enumerate_below, rather than giving a wrong norm.
"""

import hashlib
import random
from fractions import Fraction
from itertools import islice

import pytest

import unitred.field as field
import unitred.svp as svp
from unitred.errors import VerificationError
from unitred.field import CycloElement, FieldContext, make_field, split_table
from unitred.numtheory import (
    SPLIT_PRIME_BITS,
    is_canonical_conductor,
    is_prime,
    miller_rabin,
    split_primes,
)
from unitred.realfield import RealFieldContext, make_real_field, verify_real_witness
from unitred.serialize import dumps_canonical
from unitred.svp import enumerate_below
from unitred.traceform import gram
from unitred.witness import verify_witness

from linalg_helpers import invert_exact

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


def _unit_scan(ring):
    """The inclusive scan of the form Tr(x conj(x)) up to Tr(1) = d: it keeps
    x = 1 at least, so it builds the root table."""
    return enumerate_below(gram(ring.one()), ring.degree)


def test_split_norms_match_resultants_on_the_strict_scans(certificates):
    kept = 0
    for name, cert in certificates.items():
        assert cert.status == "verified", name
        ring = cert.witness.ctx
        for fv in cert.reduced_evidence:
            assert type(fv.norm) is int, (name, fv.coeffs)
            assert fv.norm == ring.element(fv.coeffs).norm(), (name, fv.coeffs)
        kept += len(cert.reduced_evidence)
        if cert.reduced_evidence:
            # the bound is (Tr(a) * den(a) / d)^d, and every norm keeps to it
            a, d = cert.witness, ring.degree
            sq_bound = (cert.trace_a * a.den / d) ** d
            assert a.den > 1, name
            assert all(fv.norm**2 <= sq_bound for fv in cert.reduced_evidence), name
    assert kept > 6000


def test_split_norms_match_resultants_on_random_vectors():
    # the root table itself, on random rows in place of a reduced basis
    rng = random.Random(1509)
    for ring in _rings():
        d = ring.degree
        xs = [[rng.randint(-1, 1) if rng.random() < 4 / d else 0 for _ in range(d)]
              for _ in range(3)]
        xs = [tuple(x) for x in xs if any(x)] + [(rng.choice((-2, -1, 1, 2)),) * d]
        # for a = 1, N(x)^2 <= (T2(x) / d)^d by AM-GM
        t2 = max(_t2(ring.element(x)) for x in xs)
        m, rows = svp._root_table(ring.one(), t2, xs, None)
        assert m * m > 4 * (t2 / d) ** d
        for x, row in zip(xs, rows):
            assert len(row) == 2 * d and row[:d] == x, (ring, x)
            norm = 1
            for value in row[d:]:
                norm = norm * value % m
            assert (norm - m if 2 * norm > m else norm) == ring.element(x).norm(), (ring, x)


def test_split_primes_are_primes_one_mod_n():
    for n in (1, 3, 4, 33, 44, 49, 97):
        ells = list(islice(split_primes(n), 4))
        assert ells == sorted(ells) and ells[0] > 2**SPLIT_PRIME_BITS
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
    # the scans below read a table built afresh, not a cached one
    monkeypatch.setattr(svp, "split_table", split_table.__wrapped__)
    for ring in rings:
        assert _unit_scan(ring).vectors[0].norm == 1
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
                    _unit_scan(ring)


def test_a_prime_not_one_mod_n_is_refused(monkeypatch):
    # 1048583 = 2 (mod 3), 3 (mod 4), 20 (mod 33), 2 (mod 49); for K_N+ a
    # prime = -1 (mod N) splits the polynomial too, yet has no w of order N
    ell = 1048583
    assert is_prime(ell)
    minus_one = next(p for p in range((2**20 // 49 + 1) * 49 - 1, 2**21, 49) if is_prime(p))
    cases = [(ring, ell) for n in (3, 4, 33, 49) for ring in (make_field(n), make_real_field(n))]
    cases.append((make_real_field(49), minus_one))
    monkeypatch.setattr(svp, "split_table", split_table.__wrapped__)
    for ring, prime in cases:
        assert ring.conductor == 3 or prime % ring.conductor != 1
        with pytest.raises(VerificationError):
            ring.roots_mod(prime)
        # the mutant: split_table takes that prime first
        with monkeypatch.context() as mp:
            mp.setattr(field, "split_primes", lambda n, _p=prime: iter([_p] * 8))
            with pytest.raises(VerificationError):
                _unit_scan(ring)


def test_a_modulus_below_the_bound_is_refused(monkeypatch):
    # witness 25 needs two primes: (Tr(a) * den(a) / d)^d is above 2^40 / 4
    a = verify_witness(25).witness
    sq_bound = (a.trace() * a.den / 20) ** 20
    assert 2**40 < 4 * sq_bound < 2**80
    m, _ = svp._root_table(a, a.trace(), (), None)
    assert m > 2**40 and m * m > 4 * sq_bound
    # a table one prime short has M^2 <= 4 * sq_bound, which the scan refuses;
    # so does the one-prime table of the unit form over K_25, with none
    monkeypatch.setattr(svp, "split_table", lambda r, k: split_table(r, k - 1))
    with pytest.raises(VerificationError, match="does not cover the norm bound"):
        verify_witness(25)
    with pytest.raises(VerificationError, match="does not cover the norm bound"):
        _unit_scan(make_field(25))


def test_odd_degree_norms_follow_the_sign_of_the_canonical_vector():
    # over K_N+ of odd degree N(-x) = -N(x); the kernel walks v with its
    # highest nonzero reduced coordinate positive and negates the
    # original-basis coordinates whose first nonzero entry is negative, so
    # such a vector's norm must change sign with it
    negated = 0
    for n in (7, 9, 11, 19, 27):
        ring = make_real_field(n)
        assert ring.degree % 2
        form = svp._prepare(gram(ring.one()))
        back = invert_exact(form.transform)
        res = enumerate_below(form, 5 * ring.degree)
        assert len(res.vectors) > 10, n
        for fv in res.vectors:
            assert fv.norm == ring.element(fv.coeffs).norm(), (n, fv.coeffs)
            v = [sum(c * row[j] for c, row in zip(fv.coeffs, back)) for j in range(ring.degree)]
            if next(c for c in reversed(v) if c) < 0:
                negated += 1
                assert fv.norm == -ring.element([-c for c in fv.coeffs]).norm()
    assert negated > 10, negated


def test_raw_rows_and_empty_scans_build_no_table(monkeypatch):
    def refuse(ring, primes):
        raise AssertionError("a root table was built")

    monkeypatch.setattr(svp, "split_table", refuse)
    res = enumerate_below([[2, 1], [1, 2]], 6)
    assert len(res.vectors) == 6 and all(fv.norm is None for fv in res.vectors)
    assert all("norm" not in fv.to_json_dict() for fv in res.vectors)
    # nothing lies strictly below Tr(1) over K_12: the scan keeps nothing
    one = make_field(12).one()
    assert enumerate_below(gram(one), one.trace(), strict=True).vectors == ()


def test_real_witness_73_is_pinned():
    # recorded before the root table replaced the per-vector norm phase; the
    # vectors have stayed the same since, the nodes fell to the value step's
    # and then by the 36 zero-coordinate frames the slice walk skips
    cert = verify_real_witness(73, force=True)
    assert cert.nodes == 883728 and len(cert.reduced_evidence) == 29856
    text = dumps_canonical(cert.to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7446e3add2e509e568cdc984de76c269c024f3831d949c58a8e3560dafc8a46d"
    )
