import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp
from mpmath.libmp import from_rational, round_nearest

from abelint.errors import ComputationError, InputError
from abelint.hyperelliptic import OvalFamily, oval_endpoints
from abelint.ratpoly import RatPoly
from abelint.realroots import RealRoots, level_roots

X = RatPoly.x()


def roots(p, prec):
    rr = RealRoots(p)
    return [rr.root(i, prec) for i in range(rr.count)]


def rounded(r: Fraction, prec: int):
    """The rational r rounded to nearest (ties to even) at prec bits."""
    return mp.make_mpf(from_rational(r.numerator, r.denominator, prec, round_nearest))


def exact(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def rounding_interval(x, prec: int) -> tuple:
    """The points halfway from x to its neighbours among prec-bit floats."""
    sign, man, exp, bc = x._mpf_
    m, e = man << (prec - bc), exp - (prec - bc)
    away = Fraction(2) ** (e - 1)
    toward = away / 2 if m == 1 << (prec - 1) else away
    lo, hi = (toward, away) if not sign else (away, toward)
    return exact(x) - lo, exact(x) + hi


def test_exact_dyadic_roots_are_kept():
    # -x^2 + x/4 at t = 0: both roots are dyadic, 0 is a bisection point
    assert roots(-X ** 2 + X / 4, 128) == [0, Fraction(1, 4)]
    assert roots(X ** 3 - 3 * X, 64)[1] == 0
    assert roots((X - Fraction(3, 8)) * (X ** 2 - 2), 96)[1] == Fraction(3, 8)


def test_multiple_roots_are_listed_with_multiplicity():
    rr = RealRoots((X + 1) ** 2 * (1 - X))
    assert [rr.root(i, 128) for i in range(rr.count)] == [-1, -1, 1]
    assert rr.sign_between(0) == 0
    assert rr.sign_between(1) > 0
    assert roots(X ** 4, 96) == [0] * 4
    with mp.workprec(64):
        root2 = mp.sqrt(2)
        assert roots((X ** 2 - 2) ** 3 * (X - 1), 64) == [-root2] * 3 + [1] + [root2] * 3


def test_degenerate_polynomials():
    with pytest.raises(InputError, match="zero polynomial"):
        RealRoots(RatPoly.zero())
    assert RealRoots(RatPoly.constant(3)).count == 0
    assert RealRoots(X ** 2 + 1).count == 0
    assert roots(3 * X - 1, 128) == [rounded(Fraction(1, 3), 128)]


@pytest.mark.parametrize("prec", [64, 160])
def test_roots_past_the_double_range(prec):
    # isolating ends past about 1.8e308 get a float seed for the root scaled
    # by a power of two, and Newton on integers steps only to 2^-16 of the
    # root's ulp: the roots are still correctly rounded
    assert roots(X - 10 ** 400, prec) == [rounded(Fraction(10 ** 400), prec)]
    assert roots(X ** 2 - 10 ** 400, prec) == [rounded(Fraction(-10 ** 200), prec),
                                              rounded(Fraction(10 ** 200), prec)]
    for c in (3 * 10 ** 800, 3 * 10 ** 100000):
        r = roots(X ** 2 - c, prec)[1]
        lo, hi = rounding_interval(r, prec)
        assert lo ** 2 < c < hi ** 2
    # a tie between 2^2000 (even) and 2^2000 (1 + 2^(1 - prec))
    tie = 2 ** 2000 * (1 + Fraction(1, 2 ** prec))
    assert exact(roots((X - tie) * (X ** 2 - 3), prec)[2]) == 2 ** 2000


def test_roots_next_to_zero():
    # an isolating interval with the end 0 gets the root's binary exponent
    # by galloping from its other end, then bisection, not one bit per pass
    t = Fraction(1, 10 ** 100000)
    start = time.perf_counter()
    found = []
    for p in (-X ** 2 + X / 2 + t, X ** 2 + X / 2 - t):
        rr = RealRoots(p)
        found.append((rr, [rr.root(i, 160) for i in range(rr.count)]))
    # an exact dyadic root next to 0 still comes back exactly
    for k in (3, 64, 3000):
        assert roots((X - Fraction(1, 2 ** k)) * (X + 3), 160)[1] == Fraction(1, 2 ** k)
        assert roots((X + Fraction(3, 2 ** k)) * (X - 3), 160)[0] == -Fraction(3, 2 ** k)
    assert time.perf_counter() - start < 2
    # each root is the only one between the points halfway to its neighbours
    for rr, got in found:
        for i, r in enumerate(got):
            lo, hi = rounding_interval(r, 160)
            assert (rr.rank(lo), rr.rank(hi)) == (i, i + 1)


@pytest.mark.parametrize("prec", [64, 96, 160])
def test_ties_round_to_even(prec):
    # each root sits halfway between two prec-bit floats
    u = Fraction(1, 2 ** prec)
    for r, want in [(1 + u, 1), (1 + 3 * u, 1 + 4 * u), (1 - u / 2, 1),
                    (-1 - u, -1), (1 - 3 * u / 2, 1 - 2 * u)]:
        got = roots((X - r) * (X ** 2 - 3), prec)
        assert exact(got[1]) == want, r


@pytest.mark.parametrize("p, count", [
    (X ** 4 + X - 1, 2), (X ** 5 - X - 1, 1), (X ** 4 - X ** 3 + 1, 0),
    (-X ** 4 + X + 1, 2), (X ** 6 + X - 2, 2), (X ** 5 + X ** 2 - 1, 1)])
def test_sturm_sequences_that_skip_a_degree(p, count):
    # each Sturm sequence here has a remainder two degrees below its divisor
    got = roots(p, 128)
    assert len(got) == count
    with mp.workprec(512):
        ref = sorted(r.real for r in mp.polyroots(
            [mp.mpf(c.numerator) / c.denominator for c in reversed(p.coeffs)],
            maxsteps=200, extraprec=512) if abs(r.imag) < mp.mpf(2) ** -256)
    with mp.workprec(128):
        assert got == [+r for r in ref]


@pytest.mark.parametrize("start, steps", [
    ("1 - u", 1), ("1 - 2u", 0), ("1 - 5u", 3), ("1 + 4u", 4), ("1 + 16u", None)])
def test_certification_steps_to_the_correctly_rounded_root(start, steps):
    # the root 1 - 3u/2 is a tie between 1 - 2u (even) and 1 - u (odd)
    prec = 96
    u = Fraction(1, 2 ** prec)
    rr = RealRoots((X - (1 - 3 * u / 2)) * (X ** 2 - 3))
    value = {"1 - u": 1 - u, "1 - 2u": 1 - 2 * u, "1 - 5u": 1 - 5 * u,
             "1 + 4u": 1 + 4 * u, "1 + 16u": 1 + 16 * u}[start]
    raw = rr._certify(rr._roots[1], rounded(value, prec)._mpf_, prec)
    if steps is None:
        assert raw is None          # more than four ulps away
    else:
        assert exact(mp.make_mpf(raw)) == 1 - 2 * u
    for root in rr._roots:
        assert rr._refine(root, prec, newton=False) == rr._refine(root, prec)


def test_an_interval_without_a_root_is_an_error_at_once():
    # x^2 + 1 has no real root in (-9, 0), so neither Newton nor bisection
    # certifies one there: the bisection-only retry raises instead of
    # retrying itself without end (it once ran into Python's recursion limit)
    from abelint.errors import ConsistencyError
    rr = RealRoots._simple([1, 0, 1], [(-9, 0, 0, 1)])
    start = time.perf_counter()
    with pytest.raises(ConsistencyError, match=r"^no root certified in the isolating "
                                               r"interval \(-9/2\^0, 0/2\^0\)$"):
        rr.root(0, 53)
    assert time.perf_counter() - start < 0.1


def test_between_decides_the_ends_exactly():
    rr = RealRoots(X ** 3 - X)
    with mp.workprec(300):
        below = mp.mpf(-1) - mp.mpf(2) ** -200
    assert rr.between(mp.mpf(-1), mp.mpf(1), 128) == [0]
    assert rr.between(below, mp.mpf(1), 128) == [-1, 0]
    assert rr.between(mp.mpf(0), mp.mpf(1), 128) == []
    rr = RealRoots(X ** 2 - 2)
    with mp.workprec(200):
        assert rr.between(mp.mpf(0), mp.mpf(2), 200) == [mp.sqrt(2)]



def test_rank_counts_the_distinct_roots_below_a_rational():
    # roots -sqrt 2, -5/7, 1/3 (double), 1/2, sqrt 2; the thirds and sevenths
    # are never bisection points, so they fall inside isolating intervals
    rr = RealRoots((X + Fraction(5, 7)) * (X - Fraction(1, 3)) ** 2
                   * (X - Fraction(1, 2)) * (X ** 2 - 2))
    tiny = Fraction(1, 10 ** 40)
    third, root2 = Fraction(1, 3), Fraction(141421356, 10 ** 8)
    cases = [(-2, 0), (Fraction(-5, 7), 1), (Fraction(-5, 7) + tiny, 2), (0, 2),
             (third - tiny, 2), (third, 2), (third + tiny, 3), (Fraction(1, 2), 3),
             (Fraction(1, 2) + tiny, 4), (root2, 4), (root2 + Fraction(1, 10 ** 8), 5),
             (3, 5)]
    assert [rr.rank(Fraction(x)) for x, _ in cases] == [k for _, k in cases]
    assert RealRoots(RatPoly.constant(3)).rank(Fraction(1)) == 0

# Each part is (factor, its real roots): a rational root with its
# multiplicity, two rational roots 2^-100 apart, or an irreducible quadratic,
# whose real roots (if any) are found by mp.findroot in the test.
RATIONALS = st.builds(Fraction, st.integers(-40, 40),
                      st.sampled_from([1, 2, 3, 7, 8, 10, 1024]))
LINEAR = st.builds(lambda r, m: ((X - r) ** m, [r] * m), RATIONALS, st.integers(1, 3))
CLOSE = st.builds(lambda r: ((X - r) * (X - r - Fraction(1, 2 ** 100)),
                             [r, r + Fraction(1, 2 ** 100)]), RATIONALS)
QUADRATIC = st.builds(lambda b, c: X ** 2 + b * X + c,
                      st.fractions(-6, 6, max_denominator=4),
                      st.fractions(-9, 9, max_denominator=5)).filter(
    lambda q: (q.coeff(1) ** 2 - 4 * q.coeff(0)) < 0
    or _is_irrational_sqrt(q.coeff(1) ** 2 - 4 * q.coeff(0)))
NEAR_REAL = st.builds(lambda a: ("near-real", a), RATIONALS)


def _is_irrational_sqrt(d: Fraction) -> bool:
    def square(n):
        return n >= 0 and round(n ** 0.5) ** 2 == n
    return not (square(d.numerator) and square(d.denominator))


PARTS = st.lists(st.one_of(LINEAR, CLOSE, QUADRATIC, NEAR_REAL), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(PARTS, st.integers(96, 256), st.sampled_from([1, -3, Fraction(5, 7)]))
def test_real_roots_are_exact_in_count_and_correctly_rounded(parts, prec, lead):
    p = RatPoly.constant(lead)
    expected = []           # (value at 4 prec bits, rational root or None, factor)
    with mp.workprec(4 * prec):
        for part in parts:
            if isinstance(part, RatPoly):
                q = part
                b, c = (mp.mpf(v.numerator) / v.denominator
                        for v in (q.coeff(1), q.coeff(0)))
                if b * b > 4 * c:
                    expected += [((-b + sign * mp.sqrt(b * b - 4 * c)) / 2, None, q)
                                 for sign in (-1, 1)]
            elif part[0] == "near-real":
                # (x - a)^2 + 2^-2prec: roots a +- 2^-prec i
                q = (X - part[1]) ** 2 + Fraction(1, 2 ** (2 * prec))
            else:
                q, rs = part
                expected += [(mp.mpf(r.numerator) / r.denominator, r, X - r) for r in rs]
            p = p * q
    expected.sort(key=lambda item: item[0])
    rr = RealRoots(p)
    assert rr.count == len(expected)
    for i, (_, r, q) in enumerate(expected):
        x = rr.root(i, prec)
        lo, hi = rounding_interval(x, prec)
        if r is not None:
            assert x == rounded(r, prec)
            assert lo <= r <= hi
            continue
        # the exact half-ulp sign test on the quadratic factor
        assert q(lo) * q(hi) < 0
        with mp.workprec(2 * prec):
            b, c = (mp.mpf(v.numerator) / v.denominator for v in (q.coeff(1), q.coeff(0)))
            ref = mp.findroot(lambda z: (z + b) * z + c, mp.mpf(x))
        with mp.workprec(prec):
            assert x == +ref


# ---------------------------------------------------------------------------
# the roots of f + t at many levels t from f's turning points
# ---------------------------------------------------------------------------

DYADIC = st.builds(lambda n, e: Fraction(n, 2 ** e), st.integers(-40, 40), st.integers(0, 5))
HUGE = Fraction(10 ** 100000)


@st.composite
def level_families(draw):
    """(f, turning): f of degree 2-6 with dyadic coefficients, either the
    primitive of a dyadic multiple of prod (x - c), each c in Z/4 and
    repeats allowed, plus a dyadic constant, so that its critical values
    are dyadic, or with dyadic coefficients drawn directly; turning holds
    exact rationals at or within 2^-160 of each real turning point."""
    if draw(st.booleans()):
        points = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=5))
        slope = RatPoly.constant(draw(DYADIC.filter(bool)))
        for c in points:
            slope = slope * (X - Fraction(c, 4))
        return slope.primitive() + RatPoly.constant(draw(DYADIC)), \
            sorted({Fraction(c, 4) for c in points})
    coeffs = draw(st.lists(DYADIC, min_size=2, max_size=6))
    f = RatPoly(coeffs + [draw(DYADIC.filter(bool))])
    slope = RealRoots(f.derivative())
    return f, [exact(slope.root(i, 160)) for i in range(slope.count)]


@st.composite
def levels(draw, f, turning):
    """A level of one of five kinds: a critical value (exact for the first
    kind of f, so a double or triple root), a level within 2^-100 of one,
    -f(0) (a root at 0), a small dyadic level, or +-10^100000 up to degree
    4 (`test_level_roots_at_a_huge_level` takes degrees 5 and 6: the
    reference's Sturm chain on 332,000-bit coefficients takes about a
    second there)."""
    kinds = (["generic", "zero"] + (["huge"] if f.degree <= 4 else [])
             + (["critical", "near"] if turning else []))
    kind = draw(st.sampled_from(kinds))
    if kind == "generic":
        return draw(DYADIC) * draw(st.sampled_from([1, 16, Fraction(1, 64)]))
    if kind == "zero":
        return -f(Fraction(0))
    if kind == "huge":
        return draw(st.sampled_from([HUGE, -HUGE]))
    t = -f(draw(st.sampled_from(turning)))
    if kind == "near":
        t += draw(st.sampled_from([-1, 1])) * Fraction(1, 2 ** draw(st.sampled_from([100, 130])))
    return t


def _same_as_real_roots(f, t, kept):
    got = level_roots(f, t.numerator, t.denominator, kept)
    want = RealRoots(f + RatPoly.constant(t))
    assert got.count == want.count
    assert [got.sign_between(i) for i in range(got.count - 1)] == \
        [want.sign_between(i) for i in range(want.count - 1)]
    for prec in (64, 256):
        assert [got.root(i, prec)._mpf_ for i in range(got.count)] == \
            [want.root(i, prec)._mpf_ for i in range(want.count)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_level_roots_are_real_roots_of_f_plus_t(data):
    # one picture serves every level of one f, each starting from the
    # turning intervals the levels before it halved
    f, turning = data.draw(level_families())
    kept = {}
    for _ in range(data.draw(st.integers(1, 4))):
        _same_as_real_roots(f, data.draw(levels(f, turning)), kept)


@pytest.mark.parametrize("f, t", [
    (-X ** 6 + 5 * X ** 4 - X + 3, HUGE), (X ** 5 - 2 * X ** 2 + Fraction(3, 8), -HUGE)])
def test_level_roots_at_a_huge_level(f, t):
    kept = {}
    _same_as_real_roots(f, Fraction(1, 8), kept)
    _same_as_real_roots(f, t, kept)


@pytest.mark.parametrize("f, t, fallback", [
    ((X ** 2 - 1) ** 2, Fraction(0), True),            # two double roots
    ((X ** 2 - 1) ** 2, Fraction(-1), True),           # a double root at 0
    (X ** 3, Fraction(0), True),                       # a triple root
    (X ** 3 - 6 * X, None, True),                      # 2^-200 off -f(sqrt 2)
    (X ** 3 - 6 * X, Fraction(1, 2 ** 100), False),    # a root at 0
    ((X ** 2 - 1) ** 2, -Fraction(1, 2 ** 20), False),
    (RatPoly.constant(3), Fraction(1), True),          # every level critical
])
def test_level_roots_fall_back_at_critical_levels(monkeypatch, f, t, fallback):
    # a turning point whose sign does not settle, or a constant f, sends
    # the level to RealRoots(f + t), the one path that builds a Sturm chain
    # per level; the picture is built first, at t = 1
    if t is None:
        with mp.workprec(256):
            t = exact(mp.mpf(4) * mp.sqrt(2)) + Fraction(1, 2 ** 200)
    kept = {}
    level_roots(f, 1, 1, kept)
    calls = []
    init = RealRoots.__init__
    monkeypatch.setattr(RealRoots, "__init__", lambda self, p: calls.append(p) or init(self, p))
    level_roots(f, t.numerator, t.denominator, kept)
    assert calls == ([f + RatPoly.constant(t)] if fallback else [])
    monkeypatch.undo()
    _same_as_real_roots(f, t, kept)
    if f.degree < 1:
        with pytest.raises(InputError, match="^cannot take roots of the zero polynomial$"):
            level_roots(f, -3, 1, kept)


def test_oval_endpoint_errors_keep_their_text():
    fam = OvalFamily(f=X ** 2 - 1, pair_index=1, t_min="0", t_max="0")
    with pytest.raises(ComputationError, match=r"^root pair 1 not available at t=0\.5$"):
        oval_endpoints(fam, "0.5", 128)
    fam = OvalFamily(f=X ** 2 - 1, pair_index=0, t_min="0", t_max="0")
    with pytest.raises(ComputationError, match=r"^f \+ t is not positive between the "
                                               r"selected roots; no real oval$"):
        oval_endpoints(fam, "0.5", 128)
