"""Bit identity of the raw-mpf numeric leaves, and the one root finder.

`eval_poly` and `min_pairwise_distance` run on mpmath's raw libmp values;
these properties check that they round exactly as the same computations on
mpf/mpc objects do, and one golden file pins the bits of a tracked fiber.
`fiber_roots` is checked against `mpmath.polyroots` at twice the precision,
and for a real p - z to give real roots and exact conjugates; the
fixed-point Newton and sample values (`newton_fixed`, `fiber_values`) are
checked against mpmath at twice their working precision.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import mpmath
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_neg

from abelint import numerics
from abelint.config import Config
from abelint.monodromy import track_fiber
from abelint.numerics import (eval_poly, fiber_roots, fiber_values, min_pairwise_distance,
                              newton_fixed)
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
    reproduces the pinned bits of the working-precision tier."""
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
# z cancels p(0) to its rounding: p - z is formed exactly, so the root is
# 1/3 less its 96-bit rounding, not 0
@example([Fraction(1, 3)], Fraction(1), Fraction(1, 3), Fraction(0), 0, 96)
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
    got = fiber_roots(q, z, prec)
    assert got == sorted(got, key=lambda r: (r.real, r.imag))
    _assert_polyroots_roots(got, p, z, s, prec)


def _assert_polyroots_roots(got, p, z, s, prec):
    """`got` is 2^-s times the roots of p(x) - z from `mpmath.polyroots` at
    2 x prec bits, to 2^-(prec - 32) of the fiber's scale."""
    with mp.workprec(2 * prec):
        coeffs = [mp.mpf(c.numerator) / c.denominator for c in reversed(p.coeffs)]
        coeffs[-1] -= z
        want = [r * mp.ldexp(1, -s) for r in
                mpmath.polyroots(coeffs, maxsteps=2000, extraprec=2 * prec)]
        tol = mp.ldexp(max(abs(r) for r in want), 32 - prec)
        nearest = [min(range(len(got)), key=lambda i: abs(got[i] - r)) for r in want]
        assert sorted(nearest) == list(range(p.degree))
        assert all(abs(got[i] - r) <= tol for i, r in zip(nearest, want))


def _assert_conjugate_closed(fiber):
    """Every root of `fiber` is exactly real or has its exact conjugate in
    `fiber`, bit for bit."""
    unpaired = Counter()
    for re, im in (x._mpc_ for x in fiber):
        unpaired[re, im] += 1
        unpaired[re, mpf_neg(im)] -= 1
    assert not +unpaired and not -unpaired


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.lists(_COEFF, min_size=d, max_size=d)),
       _LEAD, _COEFF, st.sampled_from([0, 600, -600]), PRECS)
@example([Fraction(0), Fraction(1), Fraction(0)], Fraction(1), Fraction(0), 0, 96)
# refined on its own, the root below the axis misses the conjugate in its last bit
@example([Fraction(1), Fraction(-3, 4), Fraction(2)], Fraction(-1, 2), Fraction(-2), -600, 160)
def test_real_fibers_are_real_roots_and_exact_conjugates(lower, lead, z, s, prec):
    """For a real p(2^s x) - z, `fiber_roots` gives every real root an
    imaginary part of exactly 0 and every non-real root its exact conjugate,
    bit for bit, so that sorted by (re, im) a pair shares one real part
    (x^3 + x puts its real root 0 between -i and i)."""
    p = RatPoly(lower + [lead])
    assume(squarefree_part(p - RatPoly([z])).degree == p.degree)
    q = RatPoly([c * Fraction(2) ** (s * j) for j, c in enumerate(p.coeffs)])
    _assert_conjugate_closed(fiber_roots(q, z, prec))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5).flatmap(lambda d: st.lists(_COEFF, min_size=d, max_size=d)),
       _LEAD, _COEFF, st.sampled_from([600, -600]), st.sampled_from([96, 160]))
def test_polyroots_fallback_at_extreme_scales(lower, lead, z, s, prec):
    """Without a double start, the `mpmath.polyroots` fallback of
    `fiber_roots` sweeps on the scaled monic polynomial and hands its roots,
    made real or exactly conjugate, to the refine: roots near 2^600 converge
    and roots near 2^-600 keep a real p - z's fiber closed under exact
    conjugation, matching polyroots at 2 x prec on p - z itself."""
    p = RatPoly(lower + [lead])
    assume(squarefree_part(p - RatPoly([z])).degree == p.degree)
    q = RatPoly([c * Fraction(2) ** (s * j) for j, c in enumerate(p.coeffs)])
    with mp.workprec(prec):
        z = mp.mpf(z.numerator) / z.denominator
    with patch.object(numerics, "machine_roots", lambda monic: None):
        got = fiber_roots(q, z, prec)
    _assert_conjugate_closed(got)
    _assert_polyroots_roots(got, p, z, s, prec)


# a root is (k, re, im): (re + im i) 2^(k - 10), with 2^9 <= |re| or |im|
# < 2^10; im != 0 stands for the conjugate pair, a real quadratic factor
_ROOT = st.tuples(st.integers(2 ** 9, 2 ** 10 - 1).flatmap(
    lambda m: st.sampled_from([m, -m])), st.just(0) | st.integers(2 ** 8, 2 ** 10 - 1))


@st.composite
def spread_fibers(draw):
    """Roots of 2^-40 to 2^40, some fibers spread over two scales 2^30 apart,
    of a real p of degree 2-8, and a complex z as (re, im) small ints."""
    low = draw(st.integers(-40, 10))
    offsets = st.sampled_from([0, 30]) | st.integers(0, 30)
    roots, degree = [], 0
    for _ in range(draw(st.integers(1, 8))):
        re, im = draw(_ROOT)
        if degree + 1 + (im != 0) <= 8:
            roots.append((low + draw(offsets), re, im))
            degree += 1 + (im != 0)
    assume(degree >= 2)
    return roots, draw(st.tuples(st.integers(-8, 8), st.integers(1, 8)))


def _fiber_problem(roots, z_dir):
    """p with the given roots (and conjugates), a complex z small against
    p' times the roots' gaps, and each root of p - z at 2 x wp by Newton on
    mp objects from the nearby root of p."""
    p, zeros = RatPoly([1]), []
    for k, re, im in roots:
        a, b = Fraction(re) * Fraction(2) ** (k - 10), Fraction(im) * Fraction(2) ** (k - 10)
        if im:
            p = p * RatPoly([a * a + b * b, -2 * a, 1])
            zeros += [complex(a, b), complex(a, -b)]
        else:
            p = p * RatPoly([-a, 1])
            zeros.append(complex(a))
    gaps = [min(abs(x - y) for y in zeros if y is not x) for x in zeros]
    assume(all(g >= 2 ** -6 * abs(x) for g, x in zip(gaps, zeros)))
    dp = p.derivative()
    with mp.workprec(53):
        size = min(abs(eval_poly(dp, mp.mpc(x), 53)) * g for x, g in zip(zeros, gaps))
        z = mp.mpc(*z_dir) * mp.ldexp(1, int(mp.floor(mp.log(size, 2))) - 16)
    return p, z, zeros


def _reference_root(p, dp, z, x, prec):
    """Newton at `prec` from x until the step is 2^(8 - prec) of |x| or stops
    halving (rounding noise at `prec`, far below the tested bounds)."""
    with mp.workprec(prec):
        x, last = mp.mpc(x), mp.inf
        for _ in range(200):
            step = abs(dx := (reference_eval(p, x, prec) - z) / reference_eval(dp, x, prec))
            x -= dx
            if step <= mp.ldexp(abs(x), 8 - prec) or step >= last / 2:
                return x
            last = step
    raise AssertionError("reference Newton did not converge")


def _horner_bound(coeffs, x):
    """sum |a_j| |x|^j for Fraction or mp coefficients, lowest first."""
    return sum(abs(mp.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else c)
               * abs(x) ** j for j, c in enumerate(coeffs))


@settings(max_examples=40, deadline=None)
@given(spread_fibers(), st.lists(_COEFF, max_size=13).map(RatPoly),
       st.sampled_from([64, 128, 1024]))
@example(([(-40, 700, 0), (-10, -600, 500), (-10, 513, 0), (20, -1000, 300)], (3, 5)),
         RatPoly([Fraction(1, 3), 0, -2, Fraction(5, 4), 0, 0, 0, 0, 0, 0, 0, 0, 7]), 8192)
# a conjugate pair near 2^-28: a stop on an absolute step of 2^-72 leaves it
# one Newton step short of its own scale
@example(([(-27, 600, 500), (2, 700, 0)], (3, 5)), RatPoly([1]), 64)
def test_fixed_point_refine_and_values_match_mpmath(fiber, q, prec):
    """`newton_fixed` from machine starts lands within its docstring bound of
    the roots of p - z at 2 x wp, wp = prec + 32: 2^-(wp + 4) sum |a_i|
    |x|^i / |p'(x)| plus |p''(x) / p'(x)| tol^2, tol = 2^-(prec + 9)
    max(|x|, 2^(e - 1)) with 2^(e - 1) <= |x0| < 2^e for the start x0, to
    first order (each with a factor 2 of slack), plus the rounding to wp
    bits; and `fiber_values` gives q at those roots within 2^-(wp + 4) sum
    |q_j| |x|^j of q evaluated in mpmath at 2 x wp.  Every root is measured
    against its own scale, so one scale per fiber fails on fibers spread
    over 2^30, and a stop on an absolute step fails on small roots."""
    p, z, zeros = _fiber_problem(*fiber)
    wp, dp = prec + 32, p.derivative()
    ddp = dp.derivative()
    want = [_reference_root(p, dp, z, x, 2 * wp) for x in zeros]
    starts = [complex(x) * complex(1, 2 ** -46) for x in want]
    got = newton_fixed(p, z, starts, prec)
    assert got is not None
    with mp.workprec(2 * wp):
        shifted = [c - (z if j == 0 else 0) for j, c in
                   enumerate(mp.mpf(c.numerator) / c.denominator for c in p.coeffs)]
        for x, r, x0 in zip(got, want, starts):
            slope = abs(reference_eval(dp, r, 2 * wp))
            tol = mp.ldexp(max(abs(r), mp.ldexp(1, mp.frexp(abs(x0))[1] - 1)), -(prec + 9))
            bound = (mp.ldexp(_horner_bound(shifted, r) / slope, -(wp + 3))
                     + 2 * abs(reference_eval(ddp, r, 2 * wp)) / slope * tol ** 2
                     + mp.ldexp(abs(r), -wp))
            assert abs(x - r) <= bound
        values = fiber_values(q, [got], prec)[0]
        for x, (re, im, e) in zip(got, values):
            exact = reference_eval(q, x, 2 * wp)
            value = mp.mpc(mp.ldexp(re, e), mp.ldexp(im, e))
            assert abs(value - exact) <= mp.ldexp(_horner_bound(q.coeffs, x), -(wp + 4))
