"""Bit identity of the raw-mpf numeric leaves, and the one root finder.

`eval_poly` and `min_pairwise_distance` run on mpmath's raw libmp values;
these properties check that they round exactly as the same computations on
mpf/mpc objects do, and one golden file pins the bits of a tracked fiber.
`fiber_roots` is checked against `mpmath.polyroots` at twice the precision.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import mpmath
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp

from abelint.config import Config
from abelint.monodromy import track_fiber
from abelint.numerics import eval_poly, fiber_roots, min_pairwise_distance
from abelint.ratpoly import RatPoly, chebyshev, squarefree_part

GOLDEN = Path(__file__).parent / "golden"
PRECS = st.sampled_from([96, 160, 288])


def wide(lo, hi):
    """Signed integers of lo to hi bits with random low bits (integers drawn
    directly from a range cluster near its ends, such as 2^k + small)."""
    return st.builds(
        lambda bits, seed, sign: sign * (random.Random(seed).getrandbits(bits)
                                         | 1 << (bits - 1)),
        st.integers(lo, hi), st.integers(0, 2 ** 32), st.sampled_from([1, -1]))


# numerators of 291-400 bits and denominators of 291-330 bits, wider than
# every tested precision (so both conversions round), or small ones
fractions = st.builds(Fraction, wide(291, 400) | st.integers(-64, 64),
                      wide(291, 330).map(abs) | st.integers(1, 64))
polys = st.lists(fractions, max_size=9).map(RatPoly)

# exact mpf values with 201-300-bit or tiny mantissas
reals = st.builds(lambda man, exp: mp.make_mpf(from_man_exp(man, exp)),
                  wide(201, 300) | st.integers(-8, 8), st.integers(-310, 4))
complexes = st.builds(lambda re, im: mp.make_mpc((re._mpf_, im._mpf_)),
                      reals, reals)


def reference_eval(p, z, prec):
    """Horner on mp objects: the evaluator that `eval_poly` must match."""
    with mp.workprec(prec):
        acc = z * 0
        for c in reversed(p.coeffs):
            acc = acc * z + mp.mpf(c.numerator) / c.denominator
        return acc


def raw(x):
    return x._mpc_ if hasattr(x, "_mpc_") else x._mpf_


@settings(max_examples=150, deadline=None)
@given(polys, reals | complexes, PRECS)
def test_eval_poly_matches_mp_object_horner(p, z, prec):
    got = eval_poly(p, z, prec)
    want = reference_eval(p, z, prec)
    assert type(got) is type(want)
    assert raw(got) == raw(want)


@settings(max_examples=40, deadline=None)
@given(polys, complexes, st.lists(PRECS, min_size=2, max_size=4))
def test_eval_poly_cached_coefficients_per_precision(p, z, precs):
    # converted coefficients are kept per precision, so switching back and
    # forth between precisions gives the same bits as a fresh polynomial
    for prec in precs:
        assert raw(eval_poly(p, z, prec)) == raw(reference_eval(p, z, prec))
    assert p == RatPoly(p.coeffs) and hash(p) == hash(RatPoly(p.coeffs))


@st.composite
def point_sets(draw):
    """Points including duplicates and pairs that differ only in the real
    or only in the imaginary part (the special cases of `mpf_hypot`)."""
    pts = [draw(complexes)]
    for _ in range(draw(st.integers(0, 7))):
        q = draw(st.sampled_from(pts))
        kind = draw(st.sampled_from(["new", "dup", "same_re", "same_im"]))
        if kind == "new":
            pts.append(draw(complexes))
        elif kind == "dup":
            pts.append(q)
        elif kind == "same_re":
            pts.append(mp.make_mpc((q._mpc_[0], draw(reals)._mpf_)))
        else:
            pts.append(mp.make_mpc((draw(reals)._mpf_, q._mpc_[1])))
    return draw(st.permutations(pts))


@settings(max_examples=150, deadline=None)
@given(point_sets(), PRECS)
def test_min_pairwise_distance_matches_min_abs(points, prec):
    with mp.workprec(prec):
        got = min_pairwise_distance(points)
        if len(points) < 2:
            assert got is None
            return
        want = min(abs(a - b) for i, a in enumerate(points)
                   for b in points[i + 1:])
    assert got._mpf_ == want._mpf_


def test_min_pairwise_distance_edge_cases():
    with mp.workprec(160):
        assert min_pairwise_distance([mp.mpc(1, 2)]) is None
        assert min_pairwise_distance([]) is None
        a = mp.mpc("0.1", "0.3")
        assert min_pairwise_distance([a, mp.mpc(2, 2), a]) == 0
        assert min_pairwise_distance(
            [mp.mpc(0, 0), mp.mpc(3, 0), mp.mpc(0, 2), mp.mpc(3, 1)]) == 1


def test_track_fiber_t6_bits():
    """One T6 track along a fixed three-point path at the default Config
    reproduces the bits of the mp-object implementation."""
    doc = json.loads((GOLDEN / "track_fiber_t6.json").read_text())

    def point(pair):
        return complex(float.fromhex(pair[0]), float.fromhex(pair[1]))

    path = [point(z) for z in doc["path"]]
    start = [point(z) for z in doc["start_fiber"]]
    end = track_fiber(chebyshev(6), path, start, Config())
    want = [tuple((s, int(m, 16), e, bc) for s, m, e, bc in x)
            for x in doc["end_fiber"]]
    assert [x._mpc_ for x in end] == want


_COEFF = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
_LEAD = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)) | \
    st.builds(Fraction, st.integers(-9, -1), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.lists(_COEFF, min_size=d, max_size=d)),
       _LEAD, _COEFF, _COEFF | st.just(Fraction(0)), st.sampled_from([0, 600, -600]),
       PRECS)
def test_fiber_roots_match_polyroots(lower, lead, re_z, im_z, s, prec):
    """The roots of p(2^s x) - z, for p of degree 1-8 with rational
    coefficients and a real or complex z, are 2^-s times the roots of
    p(x) - z from `mpmath.polyroots` at 2 x prec bits, to 2^-(prec - 32) of
    the fiber's scale."""
    p = RatPoly(lower + [lead])
    if im_z == 0:
        assume(squarefree_part(p - RatPoly([re_z])).degree == p.degree)
    q = RatPoly([c * Fraction(2) ** (s * j) for j, c in enumerate(p.coeffs)])
    with mp.workprec(prec):
        z = mp.mpc(mp.mpf(re_z.numerator) / re_z.denominator,
                   mp.mpf(im_z.numerator) / im_z.denominator)
    with mp.workprec(2 * prec):
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in reversed(p.coeffs)]
        coeffs[-1] -= z
        want = [r * mp.ldexp(1, -s) for r in
                mpmath.polyroots(coeffs, maxsteps=2000, extraprec=2 * prec)]
    got = fiber_roots(q, z, prec)
    assert got == sorted(got, key=lambda r: (r.real, r.imag))
    with mp.workprec(2 * prec):
        tol = mp.ldexp(max(abs(r) for r in want), 32 - prec)
        nearest = [min(range(len(got)), key=lambda i: abs(got[i] - r)) for r in want]
        assert sorted(nearest) == list(range(p.degree))
        assert all(abs(got[i] - r) <= tol for i, r in zip(nearest, want))
