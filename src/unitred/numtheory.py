"""Small exact number-theory helpers (trial division scale)."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import count

from .errors import ConductorError


@lru_cache(maxsize=4096)  # primes() asks for every integer it passes
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, exponent), ...) with p ascending."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


def listed_divisor(n: int, prime_powers, floor: int):
    """The first (p, k) of prime_powers with p^k | n, else (p, 1) for the
    least prime p >= floor dividing n, else None."""
    for p, k in prime_powers:
        if n % p**k == 0:
            return (p, k)
    return next(((p, 1) for p, _ in factorize(n) if p >= floor), None)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= (p - 1) * p ** (e - 1)
    return phi


def moebius(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for _, e in f):
        return 0
    return -1 if len(f) % 2 else 1


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


def miller_rabin(n: int) -> bool:
    """Miller-Rabin to bases 2, 7 and 61: exact below 4,759,123,141
    (Jaeschke, Math. Comp. 61, 1993), a probable-prime test above."""
    if n < 3 or n % 2 == 0 or n in (7, 61):
        return n in (2, 7, 61)
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    for a in (2, 7, 61):
        xs = [pow(a, (n - 1) >> i, n) for i in range(s, 0, -1)]  # a^(odd * 2^j), j < s
        if xs[0] != 1 and n - 1 not in xs:
            return False
    return True


SPLIT_PRIME_BITS = 20  # every split prime is above 2^SPLIT_PRIME_BITS


def split_primes(n: int):
    """The primes l = 1 (mod n) above 2^SPLIT_PRIME_BITS, ascending, as miller_rabin finds them."""
    step = math.lcm(2, n)
    start = (2**SPLIT_PRIME_BITS // step + 1) * step + 1
    return (ell for ell in count(start, step) if miller_rabin(ell))


def primes():
    """Yield 2, 3, 5, 7, ... indefinitely."""
    n = 2
    while True:
        if is_prime(n):
            yield n
        n += 1


def multiplicative_order(a: int, n: int) -> int:
    """Order of a in (Z/n)*.  For n = 1 the group is trivial and the order is 1."""
    if n == 1:
        return 1
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"order of {a} mod {n} is undefined unless gcd(a, n) = 1")
    k, x = 1, a
    while x != 1:
        x = x * a % n
        k += 1
    return k


def is_canonical_conductor(n: int) -> bool:
    """Conductor labels are unique: N >= 1 and N % 4 != 2 (K_{2m} = K_m for odd m)."""
    return n >= 1 and n % 4 != 2


def require_canonical_conductor(n) -> None:
    """ConductorError unless n is a canonical conductor: an int N >= 1 with
    N % 4 != 2 (K_2m = K_m for odd m, so that field is named m)."""
    if not (isinstance(n, int) and is_canonical_conductor(n)):
        hint = f"; use {n // 2} instead" if isinstance(n, int) and n > 0 else ""
        raise ConductorError(
            f"conductor {n!r} is not canonical (need N >= 1 and N % 4 != 2){hint}"
        )
