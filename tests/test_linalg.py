import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from abelint import linalg
from abelint.config import Config
from abelint.cycles import CycleVector
from abelint.errors import InputError
from abelint.linalg import (_PRIME, echelon, in_echelon, in_span, integer_rows,
                            kernel_echelon, nullspace, rref, to_fractions)
from abelint.monodromy import divisor_lattice, monodromy
from abelint.ratpoly import RatPoly, compose
from abelint.solver import z_delta_basis

from conftest import wide, wide_fractions


def F(x):
    return Fraction(x)


def rand_matrix(rng, rows, cols):
    return [[F(rng.randint(-5, 5)) for _ in range(cols)] for _ in range(rows)]


def test_rref_simple():
    m = [[F(2), F(4)], [F(1), F(2)]]
    reduced, pivots = rref(m)
    assert reduced == [[F(1), F(2)]]
    assert pivots == [0]


def rank(rows):
    return len(rref(rows)[1])


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
    assert ns == [[F(int(i == j)) for i in range(3)] for j in range(3)]
    assert nullspace([]) == []


def test_in_span_simple():
    basis = [[F(1), F(0), F(1)], [F(0), F(1), F(2)]]
    assert in_span(basis, [F(3), F(-1), F(1)])
    w = [F(0), F(0), F(1)]
    assert not in_span(basis, w)
    assert in_span([], [F(0), F(0)]) and not in_span([], w)


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


# ---------------------------------------------------------------------------
# fraction-free elimination against Fraction Gauss-Jordan
# ---------------------------------------------------------------------------

def reference_rref(rows):
    """Gauss-Jordan on Fractions with first-nonzero pivoting: the
    elimination that `rref` must match row for row."""
    m = [[Fraction(c) for c in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r] + [row for row in m[r:] if any(x != 0 for x in row)], pivots


def reference_nullspace(rows, ncols):
    """One vector per free column of `reference_rref`: 1 there, 0 at the
    other free columns, minus the column's rref entries at the pivots."""
    reduced, pivots = reference_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


# wide rationals, small ones, plain ints, zero
entries = st.one_of(st.just(0), st.integers(-9, 9),
                    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
                    wide_fractions, wide_fractions.map(str))


@st.composite
def matrices(draw, ncols=None):
    """Up to 6 rows of length `ncols` (0-6 when not given), among them zero
    rows and duplicate or rescaled copies of other rows."""
    if ncols is None:
        ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                         max_size=4))
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "scaled"]),
                              max_size=2)):
        if kind == "zero" or not rows:
            extra = [0] * ncols
        else:
            src = rows[draw(st.integers(0, len(rows) - 1))]
            scale = 1 if kind == "dup" else draw(wide_fractions)
            extra = [Fraction(c) * scale for c in src]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_matches_fraction_gauss_jordan(m):
    reduced, pivots = rref(m)
    assert (reduced, pivots) == reference_rref(m)
    assert all_fractions(reduced)     # serialize.frac_to_str relies on it
    ncols = len(m[0]) if m else 0
    ns = nullspace(m, ncols)
    expected = reference_nullspace(m, ncols)
    assert ns == expected
    assert all_fractions(ns)


# ---------------------------------------------------------------------------
# one-elimination kernel and membership in a reduced span
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_is_the_reduced_nullspace(data):
    m = data.draw(matrices())
    ncols = len(m[0]) if m else data.draw(st.integers(0, 6))
    got = to_fractions(*kernel_echelon(integer_rows(m), ncols))
    assert got == rref(nullspace(m, ncols))[0]
    assert all_fractions(got)
    assert got == reference_rref(reference_nullspace(m, ncols))[0]


@st.composite
def wide_integer_matrices(draw):
    """(rows, ncols): 6 to 14 integer rows of 2 to 10 columns whose entries
    are small or 40 to 110 bits wide, so most columns have several
    candidate pivot rows, often the first of them wide; in half the draws
    every row is a combination of fewer rows than columns (rank
    deficient); one zero, one duplicate and one rescaled row are mixed in."""
    ncols = draw(st.integers(2, 10))
    ints = st.one_of(st.integers(-9, 9), wide(40, 110))
    rows = draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols),
                         min_size=3, max_size=11))
    if draw(st.booleans()):
        base = rows[:draw(st.integers(1, ncols - 1))]
        weights = st.lists(st.one_of(st.integers(-3, 3), wide(40, 60)),
                           min_size=len(base), max_size=len(base))
        rows = [[sum(w * row[k] for w, row in zip(ws, base)) for k in range(ncols)]
                for ws in draw(st.lists(weights, min_size=len(rows), max_size=len(rows)))]
    for scale in (0, 1, draw(wide(1, 60))):     # zero, duplicate, rescaled
        src = rows[draw(st.integers(0, len(rows) - 1))]
        rows.insert(draw(st.integers(0, len(rows))), [scale * x for x in src])
    return rows, ncols


@settings(max_examples=60, deadline=None)
@given(wide_integer_matrices())
def test_wide_elimination_matches_fraction_gauss_jordan(matrix):
    # wide entries make echelon choose its pivot rows by size, which must
    # not change the echelon, its pivots or the kernel
    rows, ncols = matrix
    reduced, pivots = echelon(rows)
    assert (to_fractions(reduced, pivots), pivots) == reference_rref(rows)
    assert to_fractions(*kernel_echelon(rows, ncols)) == \
        reference_rref(reference_nullspace(rows, ncols))[0]


def reference_in_span(basis, v):
    """v lies in the span iff appending it leaves the rank unchanged."""
    return len(reference_rref(basis + [v])[0]) == len(reference_rref(basis)[0])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_in_echelon_matches_rank_test(data):
    ncols = data.draw(st.integers(1, 6))
    basis = data.draw(matrices(ncols))
    weights = data.draw(st.lists(entries, min_size=len(basis), max_size=len(basis)))
    member = [sum((Fraction(w) * Fraction(row[k]) for w, row in zip(weights, basis)),
                  Fraction(0)) for k in range(ncols)]
    other = [Fraction(c) for c in data.draw(st.lists(entries, min_size=ncols,
                                                     max_size=ncols))]
    reduced = echelon(integer_rows(basis))
    for v in (member, other, [Fraction(0)] * ncols):
        assert in_echelon(*reduced, integer_rows([v])[0]) == reference_in_span(basis, v)
        assert in_span(basis, v) == reference_in_span(basis, v)
    assert in_echelon(*reduced, integer_rows([member])[0])


def kernel(rows, ncols):
    return to_fractions(*kernel_echelon(integer_rows(rows), ncols))


def test_kernel_canonical_examples():
    assert kernel([], 2) == [[F(1), F(0)], [F(0), F(1)]]
    assert kernel([[1, 2, 3]], 3) == [[F(1), F(0), F("-1/3")], [F(0), F(1), F("-2/3")]]
    assert kernel([[1, 0], [0, 5]], 2) == []


# ---------------------------------------------------------------------------
# the rank test modulo the prime that proves a kernel zero
# ---------------------------------------------------------------------------

@st.composite
def tall_integer_matrices(draw):
    """(rows, ncols) with at least ncols integer rows: rows drawn directly
    (full rank in general), or combinations of fewer than ncols of them
    (rank deficient).  Entries mix small ints, 90-bit ints and multiples of
    the prime, which vanish modulo it."""
    ncols = draw(st.integers(0, 6))
    nrows = draw(st.integers(ncols, ncols + 3))
    ints = st.one_of(st.integers(-9, 9), st.integers(-2 ** 90, 2 ** 90),
                     st.sampled_from([_PRIME, -_PRIME, 3 * _PRIME, _PRIME + 1]))
    rows = draw(st.lists(st.lists(ints, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    if draw(st.booleans()):
        base = rows[:draw(st.integers(0, max(ncols - 1, 0)))]
        weights = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
        rows = [[sum(w * row[k] for w, row in zip(ws, base)) for k in range(ncols)]
                for ws in draw(st.lists(weights, min_size=nrows, max_size=nrows))]
    return rows, ncols


def exact_kernel(rows, ncols):
    """`kernel_echelon` with the rank test modulo the prime switched off."""
    with mock.patch.object(linalg, "_full_rank_mod_p", lambda rows, ncols: False):
        return kernel_echelon(rows, ncols)


@settings(max_examples=300, deadline=None)
@given(tall_integer_matrices())
def test_certified_kernel_matches_the_exact_path(matrix):
    rows, ncols = matrix
    got = kernel_echelon(rows, ncols)
    assert got == exact_kernel(rows, ncols)
    if linalg._full_rank_mod_p(rows, ncols):
        assert got == ([], [])


def test_rank_drop_modulo_the_prime_falls_back(monkeypatch):
    # full rank over Q, rank 1 modulo 2^61 - 1: the exact elimination runs
    # and still finds the zero kernel
    rows = [[1, 0], [0, 2 ** 61 - 1]]
    assert not linalg._full_rank_mod_p(rows, 2)
    calls = []
    monkeypatch.setattr(linalg, "echelon", lambda rows, echelon=linalg.echelon:
                        calls.append(rows) or echelon(rows))
    assert kernel_echelon(rows, 2) == ([], [])
    assert len(calls) == 1


def test_zero_delta_basis_is_certified_without_a_full_elimination(monkeypatch):
    # tower8 = (x^2 + x) o (x^2 - x) o (x^2 + x/2) at bound 40, whose lattice
    # is the chain 1 | 2 | 4 | 8: the cycle e_1 has every member as a
    # component and the zero space.  The only exact eliminations are the
    # three pullback spans in z, of z-degree 40 // m for m = 4, 2, 1, each
    # with fewer rows than columns; the 41-column kernel of the stacked
    # conditions is proved zero modulo the prime
    x = RatPoly.x()
    tower = compose(compose(x ** 2 + x, x ** 2 - x), x ** 2 + x / 2)
    config = Config()
    rep = monodromy(tower, config)
    lattice = divisor_lattice(rep, tower)
    shapes, certified = [], []
    echelon, full_rank = linalg.echelon, linalg._full_rank_mod_p

    def spied_echelon(rows):
        shapes.append((len(rows), len(rows[0])))
        return echelon(rows)

    def spied_full_rank(rows, ncols):
        certified.append((ncols, full_rank(rows, ncols)))
        return certified[-1][1]

    monkeypatch.setattr(linalg, "echelon", spied_echelon)
    monkeypatch.setattr(linalg, "_full_rank_mod_p", spied_full_rank)
    basis = z_delta_basis(tower, CycleVector(8, (1, 0, 0, 0, 0, 0, 0, 0)), 40,
                          config, rep, lattice)
    assert basis.dim == 0 and basis.basis == ()
    assert sorted(width for _, width in shapes) == [11, 21, 41]
    assert all(nrows < width for nrows, width in shapes)
    assert (41, True) in certified


@pytest.mark.parametrize("call", [
    lambda: rref([[1, 2], [3]]),
    lambda: nullspace([[1, 2, 3]], 2),
    lambda: nullspace([[1, 2], [3]], 2),
    lambda: rref([[1], [2, 3]]),
    lambda: nullspace([[1, 2]], 3),
    lambda: in_span([[1, 0]], [1, 0, 0]),
    lambda: in_span([[0, 0]], [0]),
    lambda: in_span([[1, 0], [0]], [1, 0]),
    lambda: in_span([[1, 0, 0], [0, 1]], [1, 0, 0]),
    lambda: nullspace([[]], 2),
])
def test_inconsistent_shapes_are_input_errors(call):
    with pytest.raises(InputError):
        call()
