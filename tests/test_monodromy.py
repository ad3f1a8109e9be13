from fractions import Fraction

import pytest
from mpmath import mp

from abelint.errors import InputError, TrackingError
from abelint.monodromy import (Permutation, critical_values, divisor_lattice,
                               generated_group_order, is_full_symmetric,
                               match_permutation, monodromy, track_fiber)
from abelint.ratpoly import RatPoly, chebyshev

from conftest import QUARTIC_PAPER_SPELLING, QUARTIC_SHIFTED, QUINTIC

X = RatPoly.x()


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def test_permutation_basics():
    s = Permutation((2, 3, 1))
    assert s(1) == 2 and s(3) == 1
    assert s.then(s.inverse()).is_identity()
    assert s.cycles() == [(1, 2, 3)]
    assert s.order() == 3
    with pytest.raises(InputError):
        Permutation((1, 1, 2))


def test_then_is_left_to_right():
    a = Permutation((2, 1, 3))   # (12)
    b = Permutation((1, 3, 2))   # (23)
    # apply a then b: 1 -> 2 -> 3
    assert a.then(b)(1) == 3


def test_group_order_s3():
    gens = [Permutation((2, 1, 3)), Permutation((2, 3, 1))]
    assert generated_group_order(gens) == 6


# ---------------------------------------------------------------------------
# critical values
# ---------------------------------------------------------------------------

def test_critical_values_t6(config):
    cvs = critical_values(chebyshev(6), config)
    assert len(cvs) == 2
    with mp.workprec(200):
        assert abs(cvs[0] + 1) < mp.mpf(10) ** -30
        assert abs(cvs[1] - 1) < mp.mpf(10) ** -30


def test_critical_values_quartic_spellings(config):
    with mp.workprec(200):
        cvs = critical_values(QUARTIC_SHIFTED, config)
        assert len(cvs) == 2
        assert abs(cvs[0] + 1) < mp.mpf(10) ** -30
        assert abs(cvs[1] + Fraction(3, 4)) < mp.mpf(10) ** -30
        # the other spelling computes to {-1, 0}
        cvs2 = critical_values(QUARTIC_PAPER_SPELLING, config)
        assert len(cvs2) == 2
        assert abs(cvs2[0] + 1) < mp.mpf(10) ** -30
        assert abs(cvs2[1]) < mp.mpf(10) ** -30


def test_critical_values_pure_power(config):
    cvs = critical_values(X ** 7, config)
    assert len(cvs) == 1
    assert abs(cvs[0]) < mp.mpf(10) ** -30


def test_critical_values_degree_one_rejected(config):
    with pytest.raises(InputError):
        critical_values(X, config)


# ---------------------------------------------------------------------------
# tracking
# ---------------------------------------------------------------------------

def test_track_constant_path(config):
    p = chebyshev(4)
    with mp.workprec(160):
        start = [mp.mpc(z) for z in
                 __import__("abelint.numerics", fromlist=["roots_of_shifted"])
                 .roots_of_shifted(p, mp.mpf(5), 160)]
    out = track_fiber(p, [mp.mpf(5), mp.mpf(5)], start, config)
    for a, b in zip(start, out):
        assert abs(a - b) < mp.mpf(2) ** -100


def test_square_root_monodromy(config):
    # p = x^2, loop around 0 swaps the two roots
    p = X ** 2
    with mp.workprec(160):
        start = [mp.mpc(1), mp.mpc(-1)]
        loop = [mp.exp(mp.mpc(0, 2) * mp.pi * k / 16) for k in range(17)]
    end = track_fiber(p, loop, start, config)
    sigma = match_permutation(start, end)
    assert sigma.images == (2, 1)


def test_step_collapse_names_segment_and_gap(config):
    # the straight path -1 -> 1 runs through the critical value 0 of x^2
    with pytest.raises(TrackingError) as err:
        track_fiber(X ** 2, [mp.mpf(-1), mp.mpf(1)],
                    [mp.mpc(0, 1), mp.mpc(0, -1)], config)
    msg = str(err.value)
    assert "step collapse" in msg
    assert "segment (-1.0 + 0.0j) -> (1.0 + 0.0j)" in msg
    t_reached = float(msg.split("at t = ")[1].split(":")[0])
    assert 0.49 < t_reached < 0.5
    gap = float(msg.split("last fiber gap ")[1].split(" x collision_tol")[0])
    assert gap > 10        # the last accepted fiber passed the collision test


def test_t6_local_generator_doubled_precision(config):
    # small loop around z=1: an involution; stable under doubled precision
    p = chebyshev(6)
    with mp.workprec(300):
        base = mp.mpf(0)
        from abelint.numerics import roots_of_shifted
        start = roots_of_shifted(p, base, 300)
        loop = ([base, mp.mpf("0.75")]
                + [1 + mp.mpf("0.25") * mp.exp(mp.mpc(0, 1) * (mp.pi + 2 * mp.pi * k / 16))
                   for k in range(1, 17)]
                + [mp.mpf("0.75"), base])
    sigma = match_permutation(start, track_fiber(p, loop, start, config))
    sigma2 = match_permutation(start, track_fiber(p, loop, start, config.doubled()))
    assert sigma == sigma2
    assert sigma.order() == 2
    assert not sigma.is_identity()


# ---------------------------------------------------------------------------
# monodromy groups
# ---------------------------------------------------------------------------

def test_monodromy_xn_cyclic(config):
    rep = monodromy(X ** 6, config)
    assert rep.infinity == Permutation.cycle(6)
    assert len(rep.generators) == 1
    assert rep.generators[0] == rep.infinity
    assert generated_group_order(list(rep.generators)) == 6


def test_monodromy_t6_dihedral(t6_rep):
    assert t6_rep.infinity == Permutation.cycle(6)
    assert len(t6_rep.generators) == 2
    for g in t6_rep.generators:
        assert g.order() == 2
    assert generated_group_order(list(t6_rep.generators)) == 12


def test_monodromy_quintic_s5(quintic_rep):
    assert generated_group_order(list(quintic_rep.generators)) == 120


def test_product_identity(t6_rep, quintic_rep, x6_rep):
    for rep in (t6_rep, quintic_rep, x6_rep):
        assert rep.product_in_petal_order() == rep.infinity


def test_determinism(config):
    p = chebyshev(6)
    r1 = monodromy(p, config)
    r2 = monodromy(p, config)
    assert r1.generators == r2.generators
    assert r1.petal_order == r2.petal_order
    assert all(abs(a - b) == 0 for a, b in zip(r1.base_fiber, r2.base_fiber))


def test_precision_robustness(config, t6_rep):
    rep2 = monodromy(chebyshev(6), config.doubled())
    assert rep2.generators == t6_rep.generators
    assert rep2.infinity == t6_rep.infinity


def test_precision_robustness_quintic(config, quintic_rep):
    rep2 = monodromy(QUINTIC, config.doubled())
    assert rep2.generators == quintic_rep.generators


# ---------------------------------------------------------------------------
# divisor lattice
# ---------------------------------------------------------------------------

def test_lattice_t6(t6_lattice):
    assert t6_lattice.members == (1, 2, 3, 6)
    assert set(t6_lattice.covered_by(6)) == {2, 3}
    assert t6_lattice.covered_by(2) == (1,)
    assert t6_lattice.covered_by(3) == (1,)
    for d in t6_lattice.members:
        dec = t6_lattice.witness[d]
        assert dec.left.degree == d
        assert dec.right.degree == 6 // d


def test_lattice_x6(x6_lattice):
    assert x6_lattice.members == (1, 2, 3, 6)
    for d in x6_lattice.members:
        assert x6_lattice.witness[d].right == X ** (6 // d)


def test_lattice_quintic(quintic_lattice):
    assert quintic_lattice.members == (1, 5)


def test_lattice_generic_degree_6(config):
    # indecomposable with primitive monodromy: no nontrivial blocks
    from abelint.invariant import u_d_dimension_table
    p = X ** 6 + X + 1
    rep = monodromy(p, config)
    lattice = divisor_lattice(rep, p)
    assert lattice.members == (1, 6)
    assert u_d_dimension_table(lattice) == {1: 1, 6: 5}


def test_is_full_symmetric(config, quintic_rep, t6_rep):
    assert is_full_symmetric(quintic_rep, config)
    assert not is_full_symmetric(t6_rep, config)
    rep2 = monodromy(X ** 2, config)
    assert is_full_symmetric(rep2, config)
