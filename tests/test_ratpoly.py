import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from abelint.errors import InputError
from abelint.ratpoly import (NEG_INF, RatPoly, chebyshev, compose,
                             critical_value_poly, cyclotomic,
                             cyclotomic_divides, decompose_all, from_w_adic,
                             poly_gcd, squarefree_part, trace_poly, w_adic)

X = RatPoly.x()


def rand_poly(rng, max_deg, lo=-9, hi=9):
    deg = rng.randint(0, max_deg)
    coeffs = [Fraction(rng.randint(lo, hi), rng.randint(1, 4)) for _ in range(deg)]
    coeffs.append(Fraction(rng.choice([c for c in range(lo, hi + 1) if c != 0])))
    return RatPoly(coeffs)


# ---------------------------------------------------------------------------
# representation invariants
# ---------------------------------------------------------------------------

def test_trailing_zeros_trimmed():
    p = RatPoly.of(1, 2, 0, 0)
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1


def test_zero_degree_sentinel():
    z = RatPoly.zero()
    assert z.degree is NEG_INF
    assert z.degree < 0
    assert z.degree != -1


def test_divmod_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        a = rand_poly(rng, 9)
        b = rand_poly(rng, 4)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_gcd_and_squarefree():
    p = (X - 1) ** 3 * (X + 2)
    g = poly_gcd(p, p.derivative())
    assert g == (X - 1) ** 2
    sf = squarefree_part(p)
    assert sf == ((X - 1) * (X + 2)) / sf.lc * sf.lc
    assert poly_gcd(sf, sf.derivative()).degree == 0


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------

def test_compose_binomial():
    assert compose(X ** 2, X + 1) == RatPoly.of(1, 2, 1)


def test_compose_t2_t3():
    # 2(4x^3-3x)^2 - 1 expanded by hand
    assert compose(chebyshev(2), chebyshev(3)) == RatPoly.of(-1, 0, 18, 0, -48, 0, 32)


def test_compose_identity():
    rng = random.Random(5)
    for _ in range(10):
        p = rand_poly(rng, 6)
        assert compose(p, X) == p
        assert compose(X, p) == p


# ---------------------------------------------------------------------------
# chebyshev
# ---------------------------------------------------------------------------

def test_chebyshev_base_cases():
    assert chebyshev(0) == RatPoly.one()
    assert chebyshev(1) == X
    assert chebyshev(2) == RatPoly.of(-1, 0, 2)
    assert chebyshev(3) == RatPoly.of(0, -3, 0, 4)


def test_chebyshev_negative_rejected():
    with pytest.raises(InputError):
        chebyshev(-1)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("n", range(1, 7))
def test_chebyshev_semigroup(m, n):
    assert compose(chebyshev(m), chebyshev(n)) == chebyshev(m * n)


# ---------------------------------------------------------------------------
# decompose_all
# ---------------------------------------------------------------------------

def test_decompose_t6():
    t6 = chebyshev(6)
    decs = decompose_all(t6)
    rights = {d.right for d in decs}
    assert rights == {
        X,
        chebyshev(2).normalized(),      # x^2
        chebyshev(3).normalized(),      # x^3 - 3/4 x
        t6.normalized(),
    }
    for d in decs:
        assert compose(d.left, d.right) == t6
        assert d.right.lc == 1 and d.right.coeff(0) == 0


def test_decompose_indecomposable():
    p = X ** 6 + X + 1
    rights = {d.right for d in decompose_all(p)}
    assert rights == {X, p.normalized()}


def test_decompose_x4():
    rights = {d.right for d in decompose_all(X ** 4)}
    assert rights == {X, X ** 2, X ** 4}


def test_decompose_random_compositions():
    rng = random.Random(11)
    for _ in range(10):
        a = rand_poly(rng, 3)
        while a.degree < 2:
            a = rand_poly(rng, 3)
        b = rand_poly(rng, 2)
        while b.degree < 2:
            b = rand_poly(rng, 2)
        p = compose(a, b)
        degs = {d.left.degree for d in decompose_all(p)}
        assert a.degree in degs


# ---------------------------------------------------------------------------
# trace_poly
# ---------------------------------------------------------------------------

def test_trace_x_over_t3():
    assert trace_poly(X, chebyshev(3)).value.is_zero()


def test_trace_x2_over_t3():
    # monic form x^3 - (3/4)x - z/4: e1 = 0, e2 = -3/4, p2 = e1^2 - 2 e2
    t = trace_poly(X ** 2, chebyshev(3))
    assert t.value == RatPoly.constant(Fraction(3, 2))


def test_trace_of_one_is_branch_count():
    rng = random.Random(3)
    for _ in range(8):
        w = rand_poly(rng, 5)
        while w.degree < 1:
            w = rand_poly(rng, 5)
        assert trace_poly(RatPoly.one(), w).value == RatPoly.constant(w.degree)


def test_trace_constant_when_low_degree():
    rng = random.Random(13)
    for _ in range(20):
        w = rand_poly(rng, 6)
        while w.degree < 2:
            w = rand_poly(rng, 6)
        q = rand_poly(rng, w.degree - 1)
        assert trace_poly(q, w).value.degree <= 0


def test_trace_of_pullback():
    # sum_i s(w(w_i^{-1}(z))) = deg(w) * s(z)
    w = chebyshev(3).normalized()
    s = RatPoly.of(2, -1, 5)
    assert trace_poly(compose(s, w), w).value == s * 3


def test_trace_w_adic_linearity():
    # trace(q) == 0 iff the constant trace of every w-adic coefficient is 0
    rng = random.Random(17)
    for _ in range(15):
        w = rand_poly(rng, 3)
        while w.degree < 2:
            w = rand_poly(rng, 3)
        q = rand_poly(rng, 3 * w.degree)
        parts = w_adic(q, w)
        tr = trace_poly(q, w).value
        digit_traces = [trace_poly(part, w).value for part in parts]
        assert all(t.is_constant() for t in digit_traces)
        expected = RatPoly([t.coeff(0) for t in digit_traces])
        assert tr == expected
        assert tr.is_zero() == all(t.is_zero() for t in digit_traces)


# ---------------------------------------------------------------------------
# critical_value_poly
# ---------------------------------------------------------------------------

RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# (critical point, multiplicity as a root of p')
CRITICAL_POINTS = st.lists(st.tuples(RATIONALS, st.integers(1, 3)), min_size=1,
                           max_size=3, unique_by=lambda pm: pm[0])
LEADS = st.sampled_from([1, -2, Fraction(3, 5)])


def _with_critical_points(points, lead, const):
    """p with p' = lead * prod (x - r)^m over the (r, m) in points."""
    dp = RatPoly.constant(lead)
    for r, m in points:
        dp = dp * (X - r) ** m
    return dp.primitive() + const


def _monic_with_roots(values):
    out = RatPoly.one()
    for v in set(values):
        out = out * (X - v)
    return out


@settings(max_examples=60, deadline=None)
@given(CRITICAL_POINTS, LEADS, RATIONALS)
def test_critical_value_poly_of_rational_critical_points(points, lead, const):
    p = _with_critical_points(points, lead, const)
    assert critical_value_poly(p) == _monic_with_roots(p(r) for r, _ in points)


@settings(max_examples=40, deadline=None)
@given(CRITICAL_POINTS.filter(lambda pts: len(pts) <= 2), LEADS, RATIONALS,
       st.one_of(st.just(None), CRITICAL_POINTS.filter(lambda pts: len(pts) <= 2)))
# degree 49, where p' has degree 48 but only 16 distinct roots: A' and W'
# each have two triple roots
@example([(Fraction(1, 2), 3), (Fraction(-2, 3), 3)], -2, Fraction(1, 3),
         [(Fraction(1), 3), (Fraction(-1, 3), 3)])
def test_critical_value_poly_of_composites(outer, lead, const, inner):
    # p = A(W) has the critical values A(W(t)) at W'(t) = 0 and A(s) at every
    # preimage of A'(s) = 0, so values repeat; W = x^2 makes p even
    a = _with_critical_points(outer, lead, const)
    w = X ** 2 if inner is None else _with_critical_points(inner, 1, 0)
    inner = inner or [(Fraction(0), 1)]
    values = [a(s) for s, _ in outer] + [a(w(t)) for t, _ in inner]
    assert critical_value_poly(compose(a, w)) == _monic_with_roots(values)


def test_critical_value_poly_examples():
    # x^4 + 2x^2: the real critical value -1 lies over the critical points +-i
    assert critical_value_poly(X ** 4 + 2 * X ** 2) == RatPoly.of(0, 1, 1)
    assert critical_value_poly(chebyshev(6)) == RatPoly.of(-1, 0, 1)
    assert critical_value_poly(X ** 8) == X
    with pytest.raises(InputError):
        critical_value_poly(X + 1)


# ---------------------------------------------------------------------------
# w_adic
# ---------------------------------------------------------------------------

def test_w_adic_t6_in_t2():
    # T6 = 4 T2^3 - 3 T2
    parts = w_adic(chebyshev(6), chebyshev(2))
    assert parts == [RatPoly.zero(), RatPoly.constant(-3), RatPoly.zero(),
                     RatPoly.constant(4)]


def test_w_adic_base_x():
    q = RatPoly.of(5, -2, 0, 7)
    parts = w_adic(q, X)
    assert [p.coeff(0) for p in parts] == [5, -2, 0, 7]


def test_w_adic_cube():
    w = RatPoly.of(0, -3, 0, 4)
    assert w_adic(w ** 3, w) == [RatPoly.zero()] * 3 + [RatPoly.one()]


def test_w_adic_reconstruction():
    rng = random.Random(23)
    for _ in range(20):
        q = rand_poly(rng, 20)
        w = rand_poly(rng, 4)
        while w.degree < 1:
            w = rand_poly(rng, 4)
        parts = w_adic(q, w)
        assert all(p.is_zero() or p.degree < w.degree for p in parts)
        assert from_w_adic(parts, w) == q


# ---------------------------------------------------------------------------
# cyclotomic
# ---------------------------------------------------------------------------

def test_cyclotomic_small():
    assert cyclotomic(1) == RatPoly.of(-1, 1)
    assert cyclotomic(2) == RatPoly.of(1, 1)
    assert cyclotomic(6) == RatPoly.of(1, -1, 1)
    assert cyclotomic(12) == RatPoly.of(1, 0, -1, 0, 1)


def test_cyclotomic_product():
    acc = RatPoly.one()
    for d in (1, 2, 3, 6):
        acc = acc * cyclotomic(d)
    assert acc == RatPoly.monomial(6) - RatPoly.one()


def test_cyclotomic_divides_examples():
    assert cyclotomic_divides(6, RatPoly.of(1, -1, 1))
    assert not cyclotomic_divides(6, RatPoly.of(0, -1, -1, 0, 1, 1))
    assert cyclotomic_divides(6, RatPoly.zero())
    assert cyclotomic_divides(17, RatPoly.zero())


def test_decomposition_roundtrip_property():
    rng = random.Random(31)
    for poly in [chebyshev(6), X ** 6, X ** 4, rand_poly(rng, 6)]:
        if poly.degree < 2:
            continue
        for dec in decompose_all(poly):
            assert compose(dec.left, dec.right) == poly
