import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abelint.cycles import CycleVector
from abelint.errors import InputError
from abelint.invariant import (decompose_v_delta, pairing_is_zero, psi_set,
                               u_d_dimension_table, u_d_rational_basis,
                               v_d_basis)
from abelint.monodromy import divisor_lattice, monodromy
from abelint.ratpoly import RatPoly, chebyshev, cyclotomic, divisors

X = RatPoly.x()

PAPER_V1 = CycleVector(6, (0, -1, -1, 0, 1, 1))
PAPER_V2 = CycleVector(6, (1, -1, 1, -1, 1, -1))


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

def test_pairing_examples():
    assert pairing_is_zero(PAPER_V1, 2)
    assert not pairing_is_zero(PAPER_V1, 1)
    ones = CycleVector.ones(6)
    assert not pairing_is_zero(ones, 6)
    for k in range(1, 6):
        assert pairing_is_zero(ones, k)


def test_pairing_alternating():
    # sum (-eps^k)^j vanishes unless eps^k = -1, i.e. k = 3
    for k in range(1, 7):
        assert pairing_is_zero(PAPER_V2, k) == (k != 3)


def test_pairing_conjugation_symmetry():
    rng = random.Random(4)
    for _ in range(25):
        n = rng.choice([4, 5, 6, 8, 9])
        v = CycleVector(n, tuple(Fraction(rng.randint(-4, 4)) for _ in range(n)))
        for k in range(1, n):
            assert pairing_is_zero(v, k) == pairing_is_zero(v, n - k)


# a cycle of length n = 1..16: a d-periodic part (d | n) with Fraction
# entries, whose pairings vanish unless (n/d) | k, plus sparse Fraction noise
small_fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
sparse_noise = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-1, 2)])
fraction_cycles = st.integers(1, 16).flatmap(lambda n: st.builds(
    lambda d, period, noise: CycleVector(n, tuple(period[i % d] + noise[i]
                                                  for i in range(n))),
    st.sampled_from(divisors(n)),
    st.lists(small_fractions, min_size=n, max_size=n),
    st.lists(sparse_noise, min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(fraction_cycles)
def test_pairing_on_integers_matches_fraction_division(v):
    # the integer remainder modulo Phi_n decides what Fraction division of
    # u(x) = sum_i v_i x^((i-1)k mod n) by Phi_n decides, for every k
    n = v.n
    for k in range(1, n + 1):
        u = [Fraction(0)] * n
        for i, vi in enumerate(v.v):
            u[(i * k) % n] += vi
        assert pairing_is_zero(v, k) == (RatPoly(u) % cyclotomic(n)).is_zero(), (v, k)


def test_pairing_index_range():
    with pytest.raises(InputError):
        pairing_is_zero(PAPER_V1, 0)
    with pytest.raises(InputError):
        pairing_is_zero(PAPER_V1, 7)


def test_pairing_translation_identity():
    # zero-ness of (e_{j,d}, w_k) does not depend on j
    for n, d in [(6, 2), (6, 3), (8, 4), (9, 3)]:
        basis = v_d_basis(d, n)
        for k in range(1, n + 1):
            flags = {pairing_is_zero(e, k) for e in basis}
            assert len(flags) == 1


# ---------------------------------------------------------------------------
# Fourier index sets
# ---------------------------------------------------------------------------

def test_psi_sets_t6(t6_lattice):
    assert psi_set(6, t6_lattice).psi == frozenset({1, 5})
    assert psi_set(2, t6_lattice).psi == frozenset({3})
    assert psi_set(3, t6_lattice).psi == frozenset({2, 4})
    assert psi_set(1, t6_lattice).psi == frozenset({6})


def test_psi_sets_prime(quintic_lattice):
    assert psi_set(5, quintic_lattice).psi == frozenset({1, 2, 3, 4})
    assert psi_set(1, quintic_lattice).psi == frozenset({5})


def test_psi_requires_member(t6_lattice):
    with pytest.raises(InputError):
        psi_set(4, t6_lattice)


def test_dimension_tables(t6_lattice, x6_lattice, quintic_lattice):
    assert u_d_dimension_table(t6_lattice) == {1: 1, 2: 1, 3: 2, 6: 2}
    assert u_d_dimension_table(x6_lattice) == {1: 1, 2: 1, 3: 2, 6: 2}
    assert u_d_dimension_table(quintic_lattice) == {1: 1, 5: 4}


# ---------------------------------------------------------------------------
# V_d bases and orthogonality
# ---------------------------------------------------------------------------

def test_v_d_basis_shape():
    basis = v_d_basis(2, 6)
    assert [e.v for e in basis] == [
        (1, 0, 1, 0, 1, 0),
        (0, 1, 0, 1, 0, 1),
    ]
    ones = v_d_basis(1, 6)
    assert ones[0].v == (1, 1, 1, 1, 1, 1)


def test_paper_vector_orthogonal_to_v2_v3():
    for d in (2, 3):
        for e in v_d_basis(d, 6):
            assert PAPER_V1.dot(e) == 0


def test_u_d_mutual_orthogonality(t6_lattice):
    bases = {d: u_d_rational_basis(d, t6_lattice) for d in t6_lattice.members}
    for d in t6_lattice.members:
        assert len(bases[d]) == u_d_dimension_table(t6_lattice)[d]
        for dt in t6_lattice.members:
            if d == dt:
                continue
            for a in bases[d]:
                for b in bases[dt]:
                    assert a.dot(b) == 0


def generated_lattices(config):
    """(name, lattice) for x^n, n = 2..16, and T_n, n = 2..12."""
    polys = [(f"x^{n}", X ** n) for n in range(2, 17)]
    polys += [(f"T{n}", chebyshev(n)) for n in range(2, 13)]
    return [(name, divisor_lattice(monodromy(p, config), p)) for name, p in polys]


def test_u_d_invariants_on_generated_lattices(config):
    # the U_d are built from 0/1 rows in V_d's coordinates; these checks
    # read them back in Q^n against the e_{k,d'} of `v_d_basis`
    for name, lattice in generated_lattices(config):
        n = lattice.n
        table = u_d_dimension_table(lattice)
        assert sum(table.values()) == n, name
        if name.startswith("x"):
            assert table == {d: sum(math.gcd(d, k) == 1 for k in range(1, d + 1))
                             for d in lattice.members}, name
        bases = {d: u_d_rational_basis(d, lattice) for d in lattice.members}
        for d, basis in bases.items():
            assert len(basis) == table[d], (name, d)
            for v in basis:
                assert all(v.v[i] == v.v[i % d] for i in range(n)), (name, d)
                for dt in lattice.covered_by(d):
                    assert all(v.dot(e) == 0 for e in v_d_basis(dt, n)), (name, d, dt)
        for d, dt in itertools.combinations(lattice.members, 2):
            assert all(a.dot(b) == 0 for a in bases[d] for b in bases[dt]), (name, d, dt)


# ---------------------------------------------------------------------------
# decomposition of the invariant span
# ---------------------------------------------------------------------------

def test_decompose_paper_vector_1(t6_lattice):
    dec = decompose_v_delta(PAPER_V1, t6_lattice)
    assert dec.components == frozenset({6})


def test_decompose_paper_vector_2(t6_lattice):
    # theorem indexing: only (v, w_3) is nonzero and 3 lies in Psi_2
    dec = decompose_v_delta(PAPER_V2, t6_lattice)
    assert dec.components == frozenset({2})


def test_decompose_zero_vector(t6_lattice):
    assert decompose_v_delta(CycleVector.zero(6), t6_lattice).components == frozenset()


def test_decompose_ones(t6_lattice):
    assert decompose_v_delta(CycleVector.ones(6), t6_lattice).components == frozenset({1})


def test_membership_soundness(t6_lattice):
    # v is orthogonal to U_d for every component NOT in its decomposition
    rng = random.Random(12)
    for _ in range(15):
        v = CycleVector(6, tuple(Fraction(rng.randint(-3, 3)) for _ in range(6)))
        comps = decompose_v_delta(v, t6_lattice).components
        for d in t6_lattice.members:
            if d in comps:
                continue
            for b in u_d_rational_basis(d, t6_lattice):
                assert v.dot(b) == 0
