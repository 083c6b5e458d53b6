import random
from fractions import Fraction

import pytest

from linalg_helpers import (
    fraction_det,
    fraction_solve,
    identity,
    invert_exact,
    mat_mul,
    mat_vec,
    solve_exact,
    transpose,
)


def _rand_matrix(rng, n, m=None, lo=-9, hi=9):
    m = n if m is None else m
    return [[Fraction(rng.randint(lo, hi)) for _ in range(m)] for _ in range(n)]


def test_identity_and_products():
    rng = random.Random(201)
    for _ in range(50):
        n = rng.randint(1, 5)
        a = _rand_matrix(rng, n)
        assert mat_mul(a, identity(n)) == [[Fraction(x) for x in row] for row in a]
        v = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        assert mat_vec(identity(n), v) == v


def test_transpose_involution():
    rng = random.Random(202)
    a = _rand_matrix(rng, 4, 6)
    assert transpose(transpose(a)) == a


def test_solve_square_random():
    rng = random.Random(203)
    solved = 0
    while solved < 60:
        n = rng.randint(1, 6)
        a = _rand_matrix(rng, n)
        if fraction_det(a) == 0:
            continue
        x_true = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        b = mat_vec(a, x_true)
        assert solve_exact(a, b) == x_true
        solved += 1


def test_solve_tall_full_column_rank():
    # overdetermined but consistent: the bridge between the half- and
    # full-degree bases solves exactly this shape
    rng = random.Random(204)
    for _ in range(40):
        m, n = 6, 3
        a = _rand_matrix(rng, m, n)
        cols = transpose(a)
        if fraction_det([[sum(c1[i] * c2[i] for i in range(m)) for c2 in cols] for c1 in cols]) == 0:
            continue  # column-rank deficient; skip
        x_true = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        b = mat_vec(a, x_true)
        assert solve_exact(a, b) == x_true


def test_solve_singular_raises():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(ValueError):
        solve_exact(a, [Fraction(1), Fraction(1)])


def test_solve_inconsistent_tall_raises():
    a = [[Fraction(1)], [Fraction(1)]]
    with pytest.raises(ValueError):
        solve_exact(a, [Fraction(0), Fraction(1)])


def test_invert_round_trip():
    rng = random.Random(206)
    done = 0
    while done < 40:
        n = rng.randint(1, 5)
        a = _rand_matrix(rng, n)
        if fraction_det(a) == 0:
            continue
        inv = invert_exact(a)
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert mat_mul(a, inv) == eye
        assert mat_mul(inv, a) == eye
        done += 1


def test_invert_singular_raises():
    with pytest.raises(ValueError):
        invert_exact([[Fraction(0)]])


def _outcome(solve, a, b):
    try:
        return solve(a, b)
    except ValueError as exc:
        return (type(exc), str(exc))


def _rand_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def test_solve_matches_fraction_oracle():
    # square, tall, singular, inconsistent and underdetermined systems with
    # Fraction entries: the same solution, or the same error and message
    rng = random.Random(207)
    kinds = {}
    for trial in range(400):
        kind = ("square", "tall", "singular", "inconsistent", "wide")[trial % 5]
        n = rng.randint(1, 6)
        rows = {"tall": n + rng.randint(1, 3), "inconsistent": n + 1, "wide": rng.randint(1, n)}
        m = rows.get(kind, n)
        if kind == "wide":
            n += 1
        a = [[_rand_fraction(rng) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.3:  # sparse rows exercise the zero-f rescale and row swaps
            a = [[x if rng.random() < 0.4 else Fraction(0) for x in row] for row in a]
        x = [_rand_fraction(rng) for _ in range(n)]
        b = mat_vec(a, x)
        if kind == "singular":  # one row a combination of the others
            i, j = rng.sample(range(m), 2) if m > 1 else (0, 0)
            f = _rand_fraction(rng)
            a[i] = [f * y for y in a[j]]
            b[i] = _rand_fraction(rng) if rng.random() < 0.5 else f * b[j]
        elif kind == "inconsistent":
            a[-1] = [sum(col) for col in zip(*a[:-1])]
            b[-1] = sum(b[:-1]) + rng.choice((-1, 1)) * rng.randint(1, 5)
        want = _outcome(fraction_solve, a, b)
        got = _outcome(solve_exact, a, b)
        assert got == want, (kind, a, b)
        label = want[1] if isinstance(want, tuple) else "solved"
        kinds[(kind, label)] = kinds.get((kind, label), 0) + 1
    outcomes = {label for _, label in kinds}
    assert outcomes == {"solved", "underdetermined system", "inconsistent system"}
    assert kinds[("tall", "solved")] > 0 and kinds[("wide", "underdetermined system")] > 0
