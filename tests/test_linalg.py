import random
from fractions import Fraction

from abelint.linalg import (in_span, nullspace, rank, rref,
                            row_space_basis, same_span, solve_in_span)


def F(x):
    return Fraction(x)


def rand_matrix(rng, rows, cols):
    return [[F(rng.randint(-5, 5)) for _ in range(cols)] for _ in range(rows)]


def test_rref_simple():
    m = [[F(2), F(4)], [F(1), F(2)]]
    reduced, pivots = rref(m)
    assert reduced == [[F(1), F(2)]]
    assert pivots == [0]


def test_rank_random_consistency():
    rng = random.Random(2)
    for _ in range(20):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r = rank(m)
        assert 0 <= r <= min(len(m), len(m[0]))
        # duplicating rows never changes rank
        assert rank(m + m) == r


def test_nullspace_orthogonality():
    rng = random.Random(3)
    for _ in range(20):
        cols = rng.randint(1, 6)
        m = rand_matrix(rng, rng.randint(1, 4), cols)
        ns = nullspace(m, cols)
        assert len(ns) == cols - rank(m)
        for v in ns:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0


def test_nullspace_of_empty_is_full():
    ns = nullspace([], 3)
    assert len(ns) == 3


def test_in_span_and_solve():
    basis = [[F(1), F(0), F(1)], [F(0), F(1), F(2)]]
    v = [F(3), F(-1), F(1)]
    assert in_span(basis, v)
    coeffs = solve_in_span(basis, v)
    assert coeffs == [F(3), F(-1)]
    w = [F(0), F(0), F(1)]
    assert not in_span(basis, w)
    assert solve_in_span(basis, w) is None


def test_same_span_canonical():
    a = [[F(1), F(1)], [F(0), F(2)]]
    b = [[F(2), F(4)], [F(1), F(0)]]
    assert same_span(a, b)
    assert row_space_basis(a) == row_space_basis(b)


def test_annihilator_dimensions():
    rng = random.Random(5)
    for _ in range(10):
        cols = rng.randint(2, 6)
        basis = rand_matrix(rng, rng.randint(1, cols), cols)
        ann = nullspace(basis, cols)
        assert len(ann) == cols - rank(basis)
        for phi in ann:
            for v in basis:
                assert sum(a * b for a, b in zip(phi, v)) == 0
