import cmath
import hashlib
import importlib
import math
import random
import time
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from mpmath import mp
from mpmath.calculus.quadrature import GaussLegendre
from mpmath.libmp import from_man_exp

from abelint import linalg
from abelint.config import COUNT_LIMIT, Config
from abelint.cycles import CycleVector, VanishingCycleCombo, continue_fiber_to_real
from abelint.errors import ComputationError, InputError
from abelint.hyperelliptic import (OneForm, OvalFamily, cauchy_J, check_exth,
                                   integral_I, integral_I_prime, loop_integral,
                                   main4_limit_check, oval_endpoints,
                                   oval_form_integral, reduce_form,
                                   vanishing_criterion)
from abelint.monodromy import divisor_lattice, monodromy
from abelint.numerics import eval_poly, roots_of_shifted
from abelint.ratpoly import RatPoly, chebyshev, poly_gcd, trace_poly
from abelint.realroots import RealRoots
from abelint.solver import tracked_fiber_samples, verify_vanishing_numeric, z_delta_basis

from conftest import QUARTIC_F

X = RatPoly.x()

CENTRAL = OvalFamily(f=QUARTIC_F, pair_index=1, t_min="-0.85", t_max="-0.15")


@pytest.fixture(scope="module")
def quartic_rep(config):
    return monodromy(QUARTIC_F, config)


@pytest.fixture(scope="module")
def quartic_lattice(quartic_rep):
    return divisor_lattice(quartic_rep, QUARTIC_F)


# ---------------------------------------------------------------------------
# form reduction
# ---------------------------------------------------------------------------

def test_reduce_xy_dx():
    omega = OneForm.of(dx={(1, 1): 1})
    red = reduce_form(omega, QUARTIC_F)
    assert red.k == X
    assert red.a_part == {}
    assert red.b_part == {}


def test_reduce_exact_form():
    omega = OneForm.of(dx={(3, 0): 1})
    red = reduce_form(omega, QUARTIC_F)
    assert red.k.is_zero()
    assert red.a_part == {(4, 0): Fraction(1, 4)}
    assert red.b_part == {}


def test_reduce_y2_dy():
    omega = OneForm.of(dy={(0, 2): 1})
    red = reduce_form(omega, QUARTIC_F)
    assert red.verify(omega, QUARTIC_F)
    assert red.k.is_zero()     # y^2 dy is exact, no y dx residue
    assert red.a_part == {(0, 3): Fraction(1, 3)}
    assert red.b_part == {}


def test_reduce_identity_random_forms():
    rng = random.Random(99)
    f = QUARTIC_F
    for _ in range(100):
        dx = {}
        dy = {}
        for _ in range(rng.randint(0, 4)):
            dx[(rng.randint(0, 6), rng.randint(0, 6))] = Fraction(
                rng.randint(-5, 5), rng.randint(1, 3))
        for _ in range(rng.randint(0, 4)):
            dy[(rng.randint(0, 6), rng.randint(0, 6))] = Fraction(
                rng.randint(-5, 5), rng.randint(1, 3))
        omega = OneForm.of(dx=dx, dy=dy)
        red = reduce_form(omega, f)
        assert red.verify(omega, f)


def test_reduce_other_fiber_polynomials():
    rng = random.Random(7)
    for f in (X ** 2 - 1, X ** 3 - 3 * X, X ** 5 + X ** 2 - 2):
        omega = OneForm.of(dx={(2, 4): Fraction(1, 2), (0, 1): 3},
                           dy={(1, 3): -2})
        red = reduce_form(omega, f)
        assert red.verify(omega, f)


@pytest.mark.parametrize("terms, message", [
    ({"dx": {(-1, 0): 1}}, r"^dx exponents must be two nonnegative integers, not \(-1, 0\)$"),
    ({"dy": {(0, -1): 1}}, r"^dy exponents must be two nonnegative integers, not \(0, -1\)$"),
    ({"dx": {(1.5, 1): 1}}, r"^dx exponents .* not \(1\.5, 1\)$"),
    ({"dy": {(True, 1): 1}}, r"^dy exponents .* not \(True, 1\)$"),
    ({"dx": {(1,): 1}}, r"^dx exponents .* not \(1,\)$"),
    ({"dx": {(1, 1): "x"}}, r"^dx coefficient of \(1, 1\) must be a rational, not 'x'$"),
    ({"dy": {(0, 2): "1/0"}}, r"^dy coefficient of \(0, 2\) must be a rational, not '1/0'$"),
    ({"dx": {(1, 1): 0.5}}, r"^dx coefficient .* not 0\.5$"),
    ({"dy": {(1, 1): None}}, r"^dy coefficient .* not None$"),
], ids=["negative-x", "negative-y", "float-exponent", "bool-exponent", "short-key",
        "word", "zero-denominator", "float", "none"])
def test_one_form_rejects_malformed_terms(terms, message):
    with pytest.raises(InputError, match=message):
        reduce_form(OneForm.of(**terms), QUARTIC_F)


def test_one_form_reads_rational_strings():
    omega = OneForm.of(dx={(1, 1): "3/4"}, dy={(0, 0): "0"})
    assert omega == OneForm.of(dx={(1, 1): Fraction(3, 4)})
    assert reduce_form(omega, QUARTIC_F).k == X * Fraction(3, 4)


# ---------------------------------------------------------------------------
# oval geometry and basic integrals
# ---------------------------------------------------------------------------

def test_oval_endpoints_symmetric(config):
    x1, x2 = oval_endpoints(CENTRAL, mp.mpf("-0.5"), config.precision_bits)
    assert x1 < 0 < x2
    assert abs(x1 + x2) < mp.mpf(2) ** -100


def test_oval_endpoints_skip_a_near_real_complex_pair():
    # f = (x^2 + 2^-140)(4 - x^2): the pair +-2^-70 i is no real root, so
    # the only real pair is (-2, 2) and pair 1 does not exist; a tolerance
    # on |Im| once read the pair as a double root 0
    eps = Fraction(1, 2 ** 140)
    f = -X ** 4 + (4 - eps) * X ** 2 + 4 * eps
    assert f == (X ** 2 + eps) * (4 - X ** 2)
    fam = OvalFamily(f=f, pair_index=0, t_min="0", t_max="0")
    assert oval_endpoints(fam, 0, 128) == (-2, 2)
    fam = OvalFamily(f=f, pair_index=1, t_min="0", t_max="0")
    with pytest.raises(ComputationError, match=r"^root pair 1 not available at t=0\.0$"):
        oval_endpoints(fam, 0, 128)
    with pytest.raises(ComputationError, match=r"^root pair 1 not available at t=0\.0$"):
        integral_I(fam, RatPoly.one(), 0, Config(precision_bits=128))


def test_oval_quadrature_that_does_not_settle_is_an_error(monkeypatch):
    # f = (x^2 + 2^-140)(4 - x^2) at t = 0: the complex pair +-2^-70 i sits
    # just off the oval (-2, 2), so sqrt g has a kink of width 2^-70 at x = 0
    # and the trapezoid levels still differ at 2^16 intervals; the cap holds.
    # The failed quadrature keeps none of the 14 angle levels it computed at
    # its binary point, which a settled one at the same point filled to 64
    import abelint.hyperelliptic as hyp
    monkeypatch.setattr(hyp, "_ANGLES", {})
    config = Config(precision_bits=128)
    integral_I(CENTRAL, X ** 2 + 1, "-0.5", config)
    before = {point: list(levels) for point, levels in hyp._ANGLES.items()}
    assert [len(levels) for levels in before.values()] == [4]
    eps = Fraction(1, 2 ** 140)
    fam = OvalFamily(f=(X ** 2 + eps) * (4 - X ** 2), pair_index=0, t_min="0", t_max="0")
    with pytest.raises(ComputationError,
                       match=r"^oval quadrature at t = 0\.0 needs more than 2\^16 nodes$"):
        integral_I(fam, RatPoly.one(), 0, config)
    assert hyp._ANGLES.keys() == before.keys()
    assert all(len(hyp._ANGLES[point]) == len(levels)
               and all(a is b for a, b in zip(hyp._ANGLES[point], levels))
               for point, levels in before.items())


def test_tiny_oval_next_to_a_double_root_far_from_the_origin():
    # f = (x - x1)(x2 - x)(x - r)^2 with x1, x2 = m -+ h, m = 18/7, h = 2^-31
    # and r = m - 3h: g = (x - r)^2 is about h^2 on the oval, 2^-67 of its
    # coefficients in x, so it is taken in the oval's own coordinate; with
    # x - r = h (3 - cos phi), I = 3 pi h^3 and I' = pi / (2 sqrt 2 h); the
    # endpoints, rounded at prec + 32 bits near 2.57, fix only about prec
    # bits of h
    m, h = Fraction(18, 7), Fraction(1, 2 ** 31)
    f = (X - m + h) * (m + h - X) * (X - m + 3 * h) ** 2
    fam = OvalFamily(f=f, pair_index=2, t_min="0", t_max="0")
    for prec in (64, 128):
        config = Config(precision_bits=prec)
        period, slope = (quadrature(fam, RatPoly.one(), 0, config)
                         for quadrature in (integral_I, integral_I_prime))
        with mp.workprec(prec + 64):
            h_mp = mp.mpf(2) ** -31
            for value, exact in ((period, 3 * mp.pi * h_mp ** 3),
                                 (slope, mp.pi / (2 * mp.sqrt(2) * h_mp))):
                assert abs(value / exact - 1) < mp.mpf(2) ** -(prec - 8), prec


@pytest.mark.parametrize("f, pair", [(X ** 2 - 1, 0), ((X + 1) ** 2 * (1 - X), 0)])
def test_oval_endpoints_need_f_plus_t_positive_between(f, pair):
    # f + t < 0 between the roots, or the pair is one double root
    fam = OvalFamily(f=f, pair_index=pair, t_min="0", t_max="0")
    with pytest.raises(ComputationError, match="^f \\+ t is not positive between"):
        oval_endpoints(fam, 0, 128)


def test_integral_odd_k_vanishes(config):
    for k in (X, X ** 3):
        for t in ("-0.3", "-0.6"):
            val = integral_I(CENTRAL, k, mp.mpf(t), config)
            assert abs(val) < mp.mpf(10) ** -25


def test_integral_area_positive(config):
    val = integral_I(CENTRAL, RatPoly.one(), mp.mpf("-0.5"), config)
    assert val > mp.mpf("1e-3")


def test_integral_matches_tanh_sinh_oracle(config):
    # second scheme, sharing no code with the trapezoid: mpmath's tanh-sinh
    # quadrature of 2 k sqrt(f + t) over [x1, x2], where rounding next to
    # an endpoint may leave f + t slightly negative and the root imaginary
    t = mp.mpf("-0.4")
    x1, x2 = oval_endpoints(CENTRAL, t, config.precision_bits)
    with mp.workprec(192):
        direct = integral_I(CENTRAL, RatPoly.one(), t, config)
        oracle = 2 * mp.re(mp.quad(lambda x: mp.sqrt((x ** 2 / 2 - 1) ** 2 + t), [x1, x2]))
        assert abs(direct - oracle) < mp.mpf(10) ** -30


def test_derivative_ladder(config):
    # finite-difference dI/dt matches the k/y quadrature
    t = mp.mpf("-0.5")
    h = mp.mpf(10) ** -7
    k = RatPoly.one()
    with mp.workprec(200):
        fd = (integral_I(CENTRAL, k, t + h, config)
              - integral_I(CENTRAL, k, t - h, config)) / (2 * h)
        direct = integral_I_prime(CENTRAL, k, t, config)
        assert abs(fd - direct) < mp.mpf(10) ** -8


def test_dropped_pieces_integrate_to_zero(config):
    # dA and B d(y^2 - f) contribute nothing over the closed oval
    omega = OneForm.of(dx={(2, 4): Fraction(1, 2), (1, 1): 2, (3, 0): 1},
                       dy={(1, 3): -2, (0, 0): 1})
    red = reduce_form(omega, QUARTIC_F)
    t = mp.mpf("-0.45")
    val_omega = oval_form_integral(CENTRAL, omega, t, config)
    val_kydx = integral_I(CENTRAL, red.k, t, config)
    assert abs(val_omega - val_kydx) < mp.mpf(10) ** -20
    # isolate dA alone by expanding a reduced form with k = 0, B = 0
    from abelint.hyperelliptic import ReducedForm
    da_form = ReducedForm(RatPoly.zero(), red.a_part, {}).expansion(QUARTIC_F)
    bd_form = ReducedForm(RatPoly.zero(), {}, red.b_part).expansion(QUARTIC_F)
    assert abs(oval_form_integral(CENTRAL, da_form, t, config)) < mp.mpf(10) ** -20
    assert abs(oval_form_integral(CENTRAL, bd_form, t, config)) < mp.mpf(10) ** -20


# ---------------------------------------------------------------------------
# Cauchy integral and the derivative identities
# ---------------------------------------------------------------------------

def test_i_prime_node_on_oval_endpoint():
    # f + 1/2 = (x + 1/2)(1 - x): the trapezoid's end nodes sit on the oval's
    # endpoints, where y = 0 but the deflated integrand k/sqrt(g) = k is
    # finite.  I' = integral of (m - h cos phi)^2 + 1 over [0, pi] = 43 pi/32
    fam = OvalFamily(f=-X ** 2 + X / 2, pair_index=0, t_min="0.25", t_max="1")
    for prec in (96, 128, 160, 192, 256):
        val = integral_I_prime(fam, X ** 2 + 1, Fraction(1, 2),
                               Config(precision_bits=prec))
        with mp.workprec(prec + 128):
            assert abs(val - 43 * mp.pi / 32) < mp.mpf(2) ** -(prec - 4), prec


def test_i_prime_endpoint_with_vanishing_slope():
    # f + t = (x + 1)^2 (1 - x): the oval between -1 and 1 ends at a double
    # root, where 1/y is not integrable; g = x + 1 vanishes at the end node
    fam = OvalFamily(f=(X + 1) ** 2 * (1 - X), pair_index=1, t_min="0", t_max="0")
    for quadrature in (integral_I, integral_I_prime):
        with pytest.raises(ComputationError,
                           match="double root at an endpoint at t = 0.0"):
            quadrature(fam, X ** 2 + 1, 0, Config())


def test_i_prime_builds_the_derivative_once(monkeypatch):
    # the deflated integrand k/sqrt(g) has no limit to take at an endpoint,
    # so I' builds no f' at all (the limit at each node that rounded onto an
    # endpoint once built about 320 of them)
    calls = []
    derivative = RatPoly.derivative

    def counting(p):
        calls.append(p)
        return derivative(p)
    monkeypatch.setattr(RatPoly, "derivative", counting)
    fam = OvalFamily(f=-X ** 2 + X / 2, pair_index=0, t_min="0.25", t_max="1")
    integral_I_prime(fam, X ** 2 + 1, Fraction(1, 2), Config(precision_bits=128))
    assert calls == []


@pytest.mark.parametrize("case, evaluations", [
    ("I'/endpoint/128", 17),    # levels 8 and 16 agree: the integrand is k
    ("I/central/128", 65),      # levels 32 and 64 agree
    ("I/central/192", 65),      # level 64 settles on the Bernstein rule
    ("J/central/128", 65),
])
def test_oval_nodes_are_evaluated_once_per_level(monkeypatch, case, evaluations):
    # level n of the trapezoid on [0, pi] has n + 1 nodes: the two ends and
    # the 7 interior nodes of level 8 come first, and each later level adds
    # only its odd nodes, so the fixed-point kernel sums once over each node
    # of the last level, each at its own angle (cos and sin ints, distinct
    # on [0, pi])
    import abelint.hyperelliptic as hyp
    kind, family, prec = case.split("/")
    k = X ** 2 + 1
    angles = []
    kernel = hyp._oval_sum

    def counting(oval, level):
        angles.extend(level)
        return kernel(oval, level)
    monkeypatch.setattr(hyp, "_oval_sum", counting)
    cfg = Config(precision_bits=int(prec))
    if family == "endpoint":
        fam = OvalFamily(f=-X ** 2 + X / 2, pair_index=0, t_min="0.25", t_max="1")
        integral_I_prime(fam, k, Fraction(1, 2), cfg)
    elif kind == "I":
        integral_I(CENTRAL, k, "-0.5", cfg)
    else:
        cauchy_J(CENTRAL, k, "-0.5", complex(-1, 0.5), cfg)
    assert len(angles) == len(set(angles)) == evaluations


def _raw_digest(value) -> str:
    """The first 16 hex digits of the SHA-256 of an mpf's or mpc's raw
    tuples (sign, mantissa, exponent, bit count), as ints."""
    parts = value._mpc_ if isinstance(value, mp.mpc) else (value._mpf_,)
    return hashlib.sha256(repr(tuple(tuple(map(int, part)) for part in parts))
                          .encode()).hexdigest()[:16]


@pytest.mark.parametrize("prec, digests", [
    (64, ("23a2f052d995503e", "24648d936d1c13f4", "e94c8280395de628")),
    (1024, ("595dd9e8dfcf9984", "8103a01158d0b0a9", "a06e0f3512887f12")),
    (2048, ("885222281e610441", "a253717d326c9e49", "bebbddc4f039bc74")),
])
def test_oval_periods_keep_their_bits_under_the_bernstein_rule(prec, digests):
    # I, I' and J on the central quartic oval, every bit as the tolerance rule
    # alone gave them; the Bernstein rule stops I' and J one level earlier at
    # each of these precisions, and I at 1024 and 2048 bits
    cfg = Config(precision_bits=prec)
    values = (integral_I(CENTRAL, X ** 2 + 1, "-0.5", cfg),
              integral_I_prime(CENTRAL, X ** 3 - X + 2, "-0.3", cfg),
              cauchy_J(CENTRAL, X ** 2 + 1, "-0.5", complex(-1, 0.5), cfg))
    assert tuple(map(_raw_digest, values)) == digests


def test_an_exact_zero_period_with_large_nodes_settles():
    # odd k on an even f, pair 2 at t = 0: I = 0, and the nodes reach 2^64,
    # so their rounding noise keeps |T_n - T_n/2| far above 2^-(prec + 8)
    # at every level; the other roots of f sit near xi = +-2^26, R is about
    # 2^27, and the Bernstein rule settles at once, on the noise alone.
    # 2^63 is about the integral of |k| y dx
    fam = OvalFamily(f=32 * (1 - X ** 2) * (2 ** 70 - X ** 2) * (2 ** 52 - X ** 2),
                     pair_index=2, t_min="0", t_max="0")
    start = time.perf_counter()
    val = integral_I(fam, X, 0, Config(precision_bits=64))
    assert time.perf_counter() - start < 0.1
    assert abs(val) <= mp.mpf(2) ** (63 - 72)


_DYADIC = st.builds(lambda a, e: Fraction(a, 2 ** e), st.integers(-16, 16), st.integers(0, 3))


@st.composite
def bernstein_ovals(draw):
    """f of degree 2-4 with dyadic coefficients, the primitive of 12 a
    prod(x - c) over distinct dyadic critical points c, so its critical
    values are dyadic too; a level t off one critical value f(c) by 2^-20,
    2^-24, 1/8 or 1/2, on the side where f + t at c has the sign of -f''(c)
    for the near ones (a tiny oval at a maximum, two ovals a hair apart at a
    minimum) and on either side for the others; a root pair with f + t > 0
    between, a dyadic k, a z off the oval's range of f + t (scaled by f(m) +
    t at its midpoint m) and a precision."""
    points = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=3, unique=True))
    slope = RatPoly.constant(12 * draw(_DYADIC.filter(bool)))
    for c in points:
        slope = slope * (X - Fraction(c, 4))
    f = slope.primitive() + RatPoly.constant(draw(_DYADIC))
    c = Fraction(draw(st.sampled_from(points)), 4)
    e = draw(st.sampled_from([1, 3, 20, 24]))
    side = (-1 if slope.derivative()(c) > 0 else 1) if e >= 20 else draw(st.sampled_from([-1, 1]))
    t = -f(c) + Fraction(side, 2 ** e)
    roots = RealRoots(f + RatPoly.constant(t))
    pairs = [i for i in range(roots.count - 1) if roots.sign_between(i) > 0]
    assume(pairs)
    family = OvalFamily(f=f, pair_index=draw(st.sampled_from(pairs)), t_min=t, t_max=t)
    with mp.workprec(64):
        x1, x2 = oval_endpoints(family, t, 64)
        top = float(eval_poly(f, (x1 + x2) / 2, 64) + mp.mpf(t.numerator) / t.denominator)
    k = RatPoly([draw(_DYADIC) for _ in range(draw(st.integers(1, 4)))])
    z = top * complex(draw(st.sampled_from([-2, -0.5])), draw(st.sampled_from([0.75, 1.25])))
    return family, t, k, z, draw(st.sampled_from([64, 128, 192]))


@settings(max_examples=40, deadline=None)
@given(bernstein_ovals())
def test_the_bernstein_rule_agrees_with_the_tolerance_rule(case):
    # the same period with the rule on and with it off (log2 R = 0), within
    # 2^-(prec + 24) (1 + |T|); where the tolerance rule alone does not
    # settle by 2^16 intervals, the Bernstein rule may still answer
    import abelint.hyperelliptic as hyp
    family, t, k, z, prec = case
    config = Config(precision_bits=prec)
    for run in (lambda: integral_I(family, k, t, config),
                lambda: integral_I_prime(family, k, t, config),
                lambda: cauchy_J(family, k, t, z, config)):
        values = []
        for off in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                if off:
                    patch.setattr(hyp, "_bernstein_log2", lambda polys: 0.0)
                try:
                    values.append(run())
                except ComputationError as error:
                    values.append(error)
        on, off = values
        if isinstance(off, ComputationError):
            assert isinstance(on, mp.mpf | mp.mpc) or str(on) == str(off)
            continue
        with mp.workprec(prec + 64):
            assert abs(on - off) <= mp.mpf(2) ** -(prec + 24) * (1 + abs(off))


def test_angle_table_is_cos_sin_pi_int_for_int():
    # every j pi/n with n <= 2^11 at three binary points, interleaved, read
    # through `_cos_sin_at`: deep levels first (not held yet, so computed on
    # their own, until level 8 starts the table), then shallow to deep (each
    # level appended whole), then deep first again, from the table alone
    import abelint.hyperelliptic as hyp
    points = (117, 190, 700)
    tables = {point: [] for point in points}
    deep_first = [(j, 1 << e) for e in range(11, -1, -1) for j in range((1 << e), -1, -1)]
    direct = {(j, n, point): hyp._cos_sin_pi(j, n, point)
              for j, n in deep_first for point in points}
    for order in (deep_first, deep_first[::-1], deep_first):
        for j, n in order:
            for point in points:
                assert hyp._cos_sin_at(tables[point], j, n, point) == direct[j, n, point]
    for levels in tables.values():
        assert [len(level) for level in levels] == [9] + [1 << i for i in range(3, 11)]


def test_a_repeated_oval_quadrature_computes_no_angle(monkeypatch):
    # the second quadrature at the same precision and degrees (F = 190), which
    # reaches no deeper level, reads every node angle from the first one's
    # table: levels 8 to 64, 65 angles, each computed once
    import abelint.hyperelliptic as hyp
    monkeypatch.setattr(hyp, "_ANGLES", {})
    calls, basecase = [], hyp.cos_sin_basecase

    def counting(*args):
        calls.append(args)
        return basecase(*args)
    monkeypatch.setattr(hyp, "cos_sin_basecase", counting)
    config = Config(precision_bits=128)
    first = integral_I(CENTRAL, X ** 2 + 1, "-0.5", config)
    assert len(calls) == 65
    assert {point: [len(level) for level in levels]
            for point, levels in hyp._ANGLES.items()} == {190: [9, 8, 16, 32]}
    calls.clear()
    assert integral_I(CENTRAL, X ** 2 + 1, "-0.5", config)._mpf_ == first._mpf_
    integral_I(CENTRAL, 2 * X ** 2 + X, "-0.6", config)
    assert calls == []


def test_fixed_point_cos_sin_within_2_to_5_units():
    # the bound `_fixed_oval` states for its cos and sin ints: every angle of
    # n = 2^11 at three binary points, against mpmath at twice the point
    import abelint.hyperelliptic as hyp
    n = 1 << 11
    for point in (117, 190, 700):
        with mp.workprec(2 * point):
            unit, worst = mp.ldexp(1, point), 0
            for j in range(n + 1):
                cos, sin = hyp._cos_sin_pi(j, n, point)
                angle = mp.mpf(j) / n
                worst = max(worst, abs(cos - mp.cospi(angle) * unit),
                            abs(sin - mp.sinpi(angle) * unit))
            assert worst <= 32


def test_nested_trapezoid_levels_and_node_limit():
    # each level after the first adds only its odd nodes, each evaluated
    # once, read from the angle table with phi = 0 and pi first, whether
    # the kernel sums ints (an arc) or pairs of ints (the closed ellipse,
    # where phi = 0 and pi are one node of theta = 2 phi); a value that
    # never settles ends in an error after the level of 2^16 intervals
    import abelint.hyperelliptic as hyp
    point = 24
    nodes = [(0, 1), (1, 1)] + [(j, 8) for j in range(1, 8)] + [
        (j, 16 << i) for i in range(13) for j in range(1, 16 << i, 2)]
    expected = [hyp._cos_sin_pi(j, n, point) for j, n in nodes]
    for closed in (False, True):
        seen = []

        def kernel(fixed, angles):
            seen.extend(angles)
            value = len(angles) ** 2 << point      # the level values grow without end
            return (value, -value) if closed else value
        fixed = (point, [])     # the binary point and its angle levels
        with mp.workprec(64), pytest.raises(
                ComputationError, match=r"^loop at t = 1 needs more than 2\^16 nodes$"):
            hyp._phi_trapezoid(kernel, fixed, 64, 1, 16, "loop at t = 1", point)
        assert seen == expected
        assert point not in hyp._ANGLES     # an unsettled quadrature keeps no level


def test_oval_endpoints_that_do_not_divide_f_plus_t(monkeypatch):
    # the deflation remainder checks the endpoints: one moved by 2^-40 is
    # off by far more than 2^-(prec/2) of f + t's coefficients
    import abelint.hyperelliptic as hyp
    endpoints = hyp.oval_endpoints

    def shifted(family, t, prec):
        x1, x2 = endpoints(family, t, prec)
        return x1 + mp.mpf(2) ** -40, x2
    monkeypatch.setattr(hyp, "oval_endpoints", shifted)
    with pytest.raises(ComputationError,
                       match="the oval endpoints do not divide f \\+ t at t = -0.5"):
        integral_I(CENTRAL, X, "-0.5", Config())


def test_integral_I_is_real_at_every_precision():
    # y = h sin(phi) sqrt(g) with g > 0 at every node takes no square root of
    # a negative number, so I is an mpf (rounding next to an endpoint once
    # made f + t negative there and I complex at 192 bits)
    fam = OvalFamily(f=QUARTIC_F, pair_index=1, t_min="-0.99", t_max="-0.01")
    for prec in (64, 128, 160, 192):
        for t in ("-0.99", "-0.7", "-0.5", "-0.3", "-0.01"):
            val = integral_I(fam, X ** 2 + 1, t, Config(precision_bits=prec))
            assert type(val) is mp.mpf, (prec, t)


QUADRATICS = st.tuples(
    st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(3)]),
    st.fractions(-3, 3, max_denominator=8), st.fractions(-3, 3, max_denominator=8),
    st.fractions(Fraction(1, 64), 4, max_denominator=64),
    st.lists(st.fractions(-4, 4, max_denominator=8), min_size=1, max_size=4),
    st.sampled_from([64, 96, 128, 192, 256]))


@settings(max_examples=60, deadline=None)
@given(QUADRATICS)
# g is constant, so R is infinite, but k = x^40 makes the integrand a cosine
# sum of degree 42, which no level below 32 integrates exactly: the
# Bernstein rule must wait past the degree
@example((Fraction(1), Fraction(0), Fraction(0), Fraction(1), [Fraction(0)] * 40 + [Fraction(1)],
          128))
def test_integral_I_on_quadratics_matches_the_beta_closed_form(case):
    # f + t = alpha (x - x1)(x2 - x) for f = -alpha x^2 + beta x + gamma and
    # t = delta - gamma - beta^2/(4 alpha); with k(x1 + L s) = sum e_j s^j,
    # I = 2 sqrt(alpha) L^2 sum e_j B(j + 3/2, 3/2), and the same sum of
    # |e_j| B(j + 3/2, 3/2) is the scale of the error
    alpha, beta, gamma, delta, k_coeffs, prec = case
    t = delta - gamma - beta * beta / (4 * alpha)
    fam = OvalFamily(f=RatPoly([gamma, beta, -alpha]), pair_index=0,
                     t_min=str(t), t_max=str(t))
    val = integral_I(fam, RatPoly(k_coeffs), t, Config(precision_bits=prec))
    with mp.workprec(prec + 128):
        alpha, beta, delta = (mp.mpf(c.numerator) / c.denominator
                              for c in (alpha, beta, delta))
        half = mp.sqrt(delta / alpha)
        x1, span = beta / (2 * alpha) - half, 2 * half
        e = [mp.mpf(0)] * len(k_coeffs)
        for i, c in enumerate(k_coeffs):
            for j in range(i + 1):
                e[j] += (mp.mpf(c.numerator) / c.denominator * mp.binomial(i, j)
                         * x1 ** (i - j) * span ** j)
        weight = 2 * mp.sqrt(alpha) * span ** 2
        betas = [weight * mp.beta(j + mp.mpf(3) / 2, mp.mpf(3) / 2) for j in range(len(e))]
        ref = sum(a * b for a, b in zip(e, betas))
        scale = sum(abs(a) * b for a, b in zip(e, betas))
        assert abs(val - ref) <= mp.mpf(2) ** -(prec - 4) * scale


@st.composite
def real_ovals(draw):
    """f of degree 2-4 with f + t = sign c prod(x - r) over distinct rational
    roots r, a rational t, and the first root pair with f + t > 0 between."""
    degree = draw(st.integers(2, 4))
    roots = sorted(Fraction(r, 2) for r in draw(
        st.lists(st.integers(-4, 4), min_size=degree, max_size=degree, unique=True)))
    sign = -1 if degree == 2 else draw(st.sampled_from([1, -1]))
    plus_t = RatPoly.constant(sign * draw(st.sampled_from([Fraction(1, 2), 1, 3])))
    for r in roots:
        plus_t = plus_t * (X - r)
    # f + t has sign (-1)^(degree - 1 - gap) sign on the gap'th root pair
    pair = next(gap for gap in range(degree - 1) if (-1) ** (degree - 1 - gap) * sign > 0)
    t = draw(st.fractions(-2, 2, max_denominator=8))
    return plus_t - t, pair, t


@settings(max_examples=8, deadline=None)
@given(real_ovals())
def test_exact_forms_have_zero_oval_period(config, case):
    # (j x^(j-1) (f + t) + (3/2) x^j f') y dx = d(x^j y^3) on y^2 = f + t,
    # so its oval period vanishes (the Petrov-module relation)
    f, pair, t = case
    family = OvalFamily(f=f, pair_index=pair, t_min=t, t_max=t)
    for j in range(4):
        summands = [j * X ** max(j - 1, 0) * (f + t), Fraction(3, 2) * X ** j * f.derivative()]
        period = integral_I(family, summands[0] + summands[1], t, config)
        scale = 1 + sum(abs(integral_I(family, k, t, config)) for k in summands)
        assert abs(period) <= mp.mpf(2) ** -(config.precision_bits + 8) * scale


@st.composite
def fixed_point_ovals(draw):
    """f of degree 2-6 with f + t = c (x - x1)(x2 - x) g(x), g > 0 on the
    oval [m - h, m + h], h = 2^-e with e up to 40 and c up to 2^40, a z off
    the range of f + t on the oval (scaled by f(m) + t) and a precision.
    The other roots lie at least 2h beyond the oval, so the trapezoid
    converges fast.  Even draws take m = 0, an even g and an odd k, whose
    periods are 0."""
    even = draw(st.booleans())
    h = Fraction(1, 2 ** draw(st.integers(0, 40)))
    m = Fraction(0) if even else draw(st.fractions(-8, 8, max_denominator=7))
    offset = lambda: h * (2 + Fraction(draw(st.integers(0, 64)), 8)) * 2 ** draw(
        st.integers(0, 40))
    plus_t = Fraction(2) ** draw(st.integers(-20, 40)) * (X - m + h) * (m + h - X)
    pair = 0
    for kind in draw(st.lists(st.sampled_from(["left", "right", "pair"]), max_size=2)):
        if kind == "pair" or (even and draw(st.booleans())):
            plus_t *= (X - m - (0 if even else offset() - offset())) ** 2 + offset() ** 2
        elif even:
            r = offset()
            plus_t, pair = plus_t * (r * r - X * X), pair + 1
        elif kind == "left":
            plus_t, pair = plus_t * (X - m + offset()), pair + 1
        else:
            plus_t *= m + offset() - X
    t = Fraction(draw(st.integers(-8, 8)), 4)
    k = [Fraction(draw(st.integers(-2 ** 40, 2 ** 40).filter(bool)), draw(st.integers(1, 9)))
         for _ in range(draw(st.integers(2, 4)))]
    k = RatPoly([c if i % 2 else 0 for i, c in enumerate(k)] if even else k)
    z = float(plus_t(m)) * complex(draw(st.sampled_from([-2, -0.5])),
                                   draw(st.sampled_from([0.75, 1.25])))
    return plus_t - t, pair, t, k, z, even, draw(st.sampled_from([64, 128, 192]))


def _traced_quadrature(run):
    """run() (or the ComputationError it raises), with `_fixed_oval`'s
    arguments, the last level's n and the kernel's trapezoid sum at that
    level, read exactly from its ints."""
    import abelint.hyperelliptic as hyp
    ovals, sums = [], {}
    fixed_oval, table_level = hyp._fixed_oval, hyp._table_level

    def fixed(*args):
        ovals.append((args, fixed_oval(*args)))
        return ovals[-1][1]

    def traced(kernel, oval, n, total):
        sums[n] = table_level(kernel, oval, n, total)
        return sums[n]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hyp, "_fixed_oval", fixed)
        patch.setattr(hyp, "_table_level", traced)
        try:
            value = run()
        except ComputationError as error:
            value = error
    [(args, (_, point))] = ovals
    read = lambda v: from_man_exp(v, -point - 1)      # half of the doubled sum
    n = max(sums)
    total = sums[n] if isinstance(sums[n], tuple) else (sums[n], 0)
    return value, args, n, mp.make_mpc(tuple(map(read, total)))


def _reference_trapezoid(args, n):
    """The trapezoid sum of `_fixed_oval`'s args at the level n (without the
    factor pi/n), in mpf at twice their wp, and the error bound
    `_fixed_oval` states for it."""
    h, g, k, mode, z, wp, _ = args
    with mp.workprec(2 * wp):
        h = mp.mpf(h[0]) / h[1]
        g, k = ([mp.mpf(c) / den for c in reversed(nums)] for nums, den in (g, k))
        g_hat, k_hat = sum(map(abs, g)), sum(map(abs, k))
        y_bound = k_hat * h ** 2 * mp.sqrt(g_hat)
        total, bound = mp.mpf(0), mp.mpf(0)
        for i in range(n + 1):
            xi, hs = -mp.cospi(mp.mpf(i) / n), h * mp.sinpi(mp.mpf(i) / n)
            gx = mp.polyval(g, xi)
            kx = mp.polyval(k, xi) if k else mp.mpf(0)
            if mode == "dx_over_y":
                value, size = kx / mp.sqrt(gx), k_hat / mp.sqrt(gx) * (3 + 2 * g_hat / gx)
            else:
                value, size = kx * hs ** 2 * mp.sqrt(gx), y_bound * (6 + mp.sqrt(g_hat / gx))
            if mode == "cauchy":
                den = hs ** 2 * gx - z
                value /= den
                size = (size + y_bound * 3 * (h ** 2 * g_hat + abs(z)) / abs(den)) / abs(den)
            weight = mp.mpf(1) / 2 if i in (0, n) else 1
            total += weight * value
            bound += weight * size
        return total, bound * mp.mpf(2) ** -wp


@settings(max_examples=40, deadline=None)
@given(fixed_point_ovals())
# odd k on an even f whose nodes reach 2^64: I is 0, which the tolerance
# rule, absolute near 0, cannot confirm; the Bernstein rule settles it
@example((32 * (1 - X ** 2) * (2 ** 70 - X ** 2) * (2 ** 52 - X ** 2), 2, Fraction(0), X,
          2.0 ** 127 * complex(-2, 0.75), True, 64))
def test_fixed_point_periods_within_the_kernel_bound(case):
    # every real-oval period against the same trapezoid level in mpf at twice
    # the working precision: the kernel's level sum within the sum of its
    # stated node bounds, and the period also within its rounding at
    # prec + 32 bits; odd k on an even f gives 0 within the bound.  The level
    # test is absolute near 0, so a period far below its nodes' size may
    # never settle; that is allowed only where the kernel's stated noise, at
    # the first level, already reaches the level tolerance
    f, pair, t, k, z, even, prec = case
    family = OvalFamily(f=f, pair_index=pair, t_min=t, t_max=t)
    config = Config(precision_bits=prec)
    for run in (lambda: integral_I(family, k, t, config),
                lambda: integral_I_prime(family, k, t, config),
                lambda: cauchy_J(family, k, t, z, config)):
        value, args, n, total = _traced_quadrature(run)
        mode, wp = args[3], args[5]
        if isinstance(value, ComputationError):
            assert str(value).endswith("needs more than 2^16 nodes")
            ref, bound = _reference_trapezoid(args, 16)
            with mp.workprec(2 * wp):
                scale = mp.pi / 16 * (1 if mode == "dx_over_y" else 2)
                assert 2 * scale * bound >= mp.mpf(2) ** -(prec + 8) * (1 + abs(scale * ref))
            continue
        ref, bound = _reference_trapezoid(args, n)
        with mp.workprec(2 * wp):
            assert abs(total - ref) <= bound
            scale = mp.pi / n * (1 if mode == "dx_over_y" else 2)
            assert abs(value - scale * ref) <= (mp.mpf(2) ** -(prec + 31) * abs(scale * ref)
                                                + scale * bound)
            if even:
                assert abs(total) <= bound


def test_j_at_zero_is_twice_i_prime(config):
    with mp.workprec(200):
        t = mp.mpf("-0.5")
        for k in (RatPoly.one(), X ** 2):
            j0 = cauchy_J(CENTRAL, k, t, mp.mpf(0), config)
            ip = integral_I_prime(CENTRAL, k, t, config)
            assert abs(j0 - 2 * ip) < mp.mpf(10) ** -20


def test_prop41_first_orders(config):
    # binom(-1/2, k) d^k/dz^k J_t(0) = 2 I^{(k+1)}(t) for k = 1, 2.
    # The z-derivatives need a contour with y != 0, so J is realized on the
    # dogbone loop around the two middle branch points, which agrees with
    # the real-oval value wherever both are defined.
    t = mp.mpf("-0.5")
    k_poly = RatPoly.one()
    with mp.workprec(220):
        x1, x2 = oval_endpoints(CENTRAL, t, config.precision_bits)
        span = x2 - x1
        # tight ellipse around the oval segment: y stays away from zero and
        # the poles of the Cauchy kernel stay inside for small |z|
        a, b = span / 2 + span / 8, span / 8
        j = lambda z: loop_integral(QUARTIC_F, k_poly, t, 0, a,
                                    mode="cauchy", z=z, semi_minor=b,
                                    config=config)
        ip = lambda s: integral_I_prime(CENTRAL, k_poly, s, config)
        j0 = j(mp.mpf(0))
        sign = 1 if abs(j0 - 2 * ip(t)) < abs(j0 + 2 * ip(t)) else -1
        assert abs(sign * j0 - 2 * ip(t)) < mp.mpf(10) ** -20
        hz = mp.mpf(10) ** -6
        dj = (j(hz) - j(-hz)) / (2 * hz)
        d2j = (j(hz) - 2 * j0 + j(-hz)) / hz ** 2
        ht = mp.mpf(10) ** -6
        i2 = (ip(t + ht) - ip(t - ht)) / (2 * ht)
        i3 = (ip(t + ht) - 2 * ip(t) + ip(t - ht)) / ht ** 2
        assert abs(Fraction(-1, 2) * sign * dj - 2 * i2) < mp.mpf(10) ** -8
        # binom(-1/2, 2) = 3/8
        assert abs(Fraction(3, 8) * sign * d2j - 2 * i3) < mp.mpf(10) ** -6


def test_ik1_second_derivative_loop(config):
    # I''(t) = (1/2)(-1/2) contour integral of k/y^3 on the big-loop family
    k = X
    with mp.workprec(220):
        t = mp.mpf("-0.5")
        radius = mp.mpf(4)
        ht = mp.mpf(10) ** -6
        ipr = lambda s: loop_integral(QUARTIC_F, k, s, 0, radius,
                                      mode="dx_over_2y", config=config)
        i2_fd = (ipr(t + ht) - ipr(t - ht)) / (2 * ht)
        i2_loop = Fraction(-1, 4) * loop_integral(QUARTIC_F, k, t, 0, radius,
                                                  mode="dx_over_y3", config=config)
        assert abs(i2_fd - i2_loop) < mp.mpf(10) ** -8


def test_cauchy_pole_rejection(config):
    t = mp.mpf("-0.5")
    with pytest.raises(ComputationError):
        cauchy_J(CENTRAL, RatPoly.one(), t, mp.mpf("0.3"), config)


def test_cauchy_pole_between_grid_points_and_the_true_maximum(config):
    # on this oval f + t peaks at 0.2223479 at a turning point; z = 0.22233
    # lies above f + t at every one of 65 evenly spaced oval points (the
    # grid's largest value is 0.2223124), yet below the true maximum, so
    # f + t = z twice on the oval
    family = OvalFamily(X ** 2 - X ** 4 / 4 + X / 5, 0, Fraction(-1), Fraction(0))
    with pytest.raises(ComputationError, match="^pole sits on the integration contour$"):
        cauchy_J(family, RatPoly.one(), Fraction(-1, 2), mp.mpf("0.22233"), config)


def test_cauchy_pole_guard_rounds_turning_points_only_near_the_axis(monkeypatch, config):
    # the guard fires only for z within its margin 2^-(prec/4) (1 + |z|) of
    # the real axis, so an off-axis z rounds no turning point of the oval;
    # an on-axis z in range still raises
    calls = []
    between = RealRoots.between

    def counting(self, lo, hi, prec):
        calls.append((lo, hi))
        return between(self, lo, hi, prec)
    monkeypatch.setattr(RealRoots, "between", counting)
    family = OvalFamily(X ** 2 - X ** 4 / 4 + X / 5, 0, Fraction(-1), Fraction(0))
    cauchy_J(family, RatPoly.one(), Fraction(-1, 2), complex(0.2, 0.5), config)
    assert calls == []
    with pytest.raises(ComputationError, match="^pole sits on the integration contour$"):
        cauchy_J(family, RatPoly.one(), Fraction(-1, 2), mp.mpf("0.22233"), config)
    assert len(calls) == 1


def test_loop_around_one_branch_point_does_not_close(config):
    # the circle encloses only the branch point sqrt(2 + sqrt(2)) of f - 1/2
    with pytest.raises(ComputationError, match="does not close"):
        loop_integral(QUARTIC_F, X, "-0.5", "1.85", "0.3", config=config)


def _loop_nodes(monkeypatch, radius, prec, mode):
    """How many times loop_integral evaluates f in mp, and how many angles
    the ellipse kernel takes, on the circle of `radius` around 0, for f =
    QUARTIC_F at t = -1/2 and k = 1."""
    import abelint.hyperelliptic as hyp
    calls, angles = [], []
    evaluate, ellipse_sum = hyp.eval_poly, hyp._ellipse_sum

    def counting(p, z, wp):
        if p is QUARTIC_F:
            calls.append(z)
        return evaluate(p, z, wp)

    def spy(ellipse, level):
        angles.extend(level)
        return ellipse_sum(ellipse, level)
    monkeypatch.setattr(hyp, "eval_poly", counting)
    monkeypatch.setattr(hyp, "_ellipse_sum", spy)
    loop_integral(QUARTIC_F, RatPoly.one(), "-0.5", 0, radius, mode=mode,
                  config=Config(precision_bits=prec))
    return len(calls), len(angles)


@pytest.mark.parametrize("radius, prec, nodes", [
    # four branch points inside, far from the circle: y is analytic outside
    # them, so the levels of 8 and 16 intervals already agree
    ("4", 128, 17),
    # no branch point inside (0.765 lies 0.003 outside, within the contour's
    # margin, so the loop stays on the ellipse), and y is even on the
    # circle: the levels of 8 and 16 intervals both sum to about 0
    ("0.762", 128, 17),
], ids=["four-inside", "none-inside"])
def test_loop_integral_evaluates_each_node_once(monkeypatch, radius, prec, nodes):
    # the trapezoid levels are nested, so the kernel takes each angle of
    # the last level once, phi = 0 and pi included (the one node theta =
    # 0), and f is evaluated in mp only at the start node x0, where the
    # lift is fixed before any quadrature
    assert _loop_nodes(monkeypatch, radius, prec, "y_dx") == (1, nodes)


@pytest.mark.parametrize("radius, prec, nodes", [
    ("0.85", 128, 2049),    # 1024 and 2048 intervals agree
    ("0.775", 64, 16385),   # 0.01 from the branch points: 8192 and 16384 agree
], ids=["circle-0.85", "circle-0.775"])
def test_dx_over_y3_loop_evaluates_each_node_once(monkeypatch, radius, prec, nodes):
    # k/y^3 is not integrable on the segment, so these circles around the
    # two branch points +-0.765 stay on the ellipse, where each level halves
    # the node spacing until two levels agree to 2^-(prec + 8)
    assert _loop_nodes(monkeypatch, radius, prec, "dx_over_y3") == (1, nodes)


@pytest.mark.parametrize("radius, prec", [("0.85", 128), ("0.775", 64)])
@pytest.mark.parametrize("mode", ["y_dx", "dx_over_2y"])
def test_two_point_loop_runs_on_the_segment(monkeypatch, radius, prec, mode):
    # the same circles in these modes collapse onto [-0.765, 0.765]: f is
    # evaluated once, at the node x0 = radius that fixes the lift's sign,
    # and the ellipse kernel never runs
    assert _loop_nodes(monkeypatch, radius, prec, mode) == (1, 0)


@pytest.mark.parametrize("kwargs, message", [
    (dict(mode="cauchy"), r"^loop mode cauchy needs z$"),
    (dict(mode="dx_over_y"), r"^loop mode must be one of y_dx, dx_over_2y, dx_over_y3, "
                             r"cauchy, got 'dx_over_y'$"),
    (dict(radius=0), r"^loop radius and semi_minor must be positive$"),
    (dict(radius="-1"), r"^loop radius and semi_minor must be positive$"),
    (dict(semi_minor="0"), r"^loop radius and semi_minor must be positive$"),
], ids=["cauchy-without-z", "unknown-mode", "radius-0", "radius-negative", "semi-minor-0"])
def test_loop_integral_input_contract(kwargs, message):
    # rejected before any quadrature: the enclosure test divides by both
    # semi-axes, and the Cauchy kernel needs its z
    radius = kwargs.pop("radius", 4)
    with pytest.raises(InputError, match=message):
        loop_integral(QUARTIC_F, X, "-0.5", 0, radius, **kwargs)


def test_loop_pole_at_the_start_node(config):
    # node 0 is x = 1, a root of x^2 - 1, so k/(2y) divides by zero there
    with pytest.raises(ZeroDivisionError):
        loop_integral(X ** 2 - 1, X, 0, 0, 1, mode="dx_over_2y", config=config)


# f low coefficient first, Re t, Im t, the pair (index i and i + d of the
# roots), the ellipse's stretch over the pair, the mode and k
QUARTERS = st.integers(-8, 8).map(lambda n: Fraction(n, 4))
TWO_POINT_LOOPS = st.tuples(
    st.lists(QUARTERS, min_size=3, max_size=5), QUARTERS,
    st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(-3, 8)]),
    st.integers(0, 3), st.integers(1, 3),
    st.sampled_from([Fraction(9, 8), Fraction(5, 4), Fraction(3, 2)]),
    st.sampled_from(["y_dx", "dx_over_2y"]),
    st.lists(QUARTERS, min_size=1, max_size=3))


@settings(max_examples=40, deadline=None)
@given(TWO_POINT_LOOPS)
# QUARTIC_F + 1/4: the conjugate pair sqrt(2 -+ i), so h is imaginary
@example(([Fraction(5, 4), 0, -1, 0, Fraction(1, 4)], Fraction(0), Fraction(0), 1, 1,
          Fraction(5, 4), "dx_over_2y", [1, 1]))
@example(([Fraction(5, 4), 0, -1, 0, Fraction(1, 4)], Fraction(0), Fraction(0), 1, 1,
          Fraction(5, 4), "y_dx", [0, 1]))
def test_segment_loop_matches_the_ellipse(case):
    # an axis-parallel ellipse around two roots of f + t, every other root
    # far outside: the segment path and the ellipse's trapezoid integrate
    # the same lift, sign included
    import abelint.hyperelliptic as hyp
    coeffs, re_t, im_t, i, d, stretch, mode, k_coeffs = case
    assume(coeffs[-1] != 0)
    f, k, prec = RatPoly(coeffs), RatPoly(k_coeffs), 64
    deg = f.degree
    assume(d % deg != 0)
    with mp.workprec(prec + 32):
        t = mp.mpc(mp.mpf(re_t.numerator) / re_t.denominator,
                   mp.mpf(im_t.numerator) / im_t.denominator)
        exact = [mp.mpf(c.numerator) / c.denominator for c in reversed(coeffs)]
        roots = mp.polyroots(exact[:-1] + [exact[-1] + t], maxsteps=200, extraprec=prec)
        r1, r2 = roots[i % deg], roots[(i + d) % deg]
        center, half = mp.mpc(r1 + r2) / 2, abs(r2 - r1) / 2
        assume(half > mp.mpf(2) ** -8)
        # the pair sits on the ellipse shrunk by at least 1/stretch
        a = stretch * max(mp.sqrt(2) * abs(mp.re(r2 - r1)) / 2, half / 2)
        b = stretch * max(mp.sqrt(2) * abs(mp.im(r2 - r1)) / 2, half / 2)
        for r in roots:
            if r is not r1 and r is not r2:
                assume((mp.re(r - center) / a) ** 2 + (mp.im(r - center) / b) ** 2 > 1.5)
        a, b = mp.mpf(a), mp.mpf(b)
        inside = [r1, r2]
        outside = [r for r in roots if r is not r1 and r is not r2]
        with mp.workprec(prec + 52):
            x0 = center + a
            w0 = eval_poly(f, x0, prec + 52) + t
            segment = hyp._segment_loop(f, k, inside, outside, x0, mp.sqrt(w0), mode, prec,
                                        "loop")
            ellipse = hyp._ellipse_loop(f, k, t, center, a, b, mode, None, inside,
                                        outside, w0, prec, "loop")
        assert abs(segment - ellipse) <= mp.mpf(2) ** -(prec // 2) * (1 + abs(segment))


# f = lc (x - p1)(x - p2) times 0 to 3 factors with roots far out, or
# beside the segment (3/4 +- 2i/5, -1/2 +- i/2), where the factor 1 + xi e_r
# can have a negative real part; a complex t, the mode, k and the precision
EIGHTHS = st.integers(-12, 12).map(lambda n: Fraction(n, 8))
OTHER_FACTORS = st.sampled_from([X - 3, X + Fraction(7, 2), X - 4, X ** 2 + 9,
                                 X ** 2 - 2 * X + 10, X ** 2 + 4 * X + 13,
                                 (X - Fraction(3, 4)) ** 2 + Fraction(4, 25),
                                 (X + Fraction(1, 2)) ** 2 + Fraction(1, 4)])
SEGMENT_LOOPS = st.tuples(
    st.sampled_from([Fraction(-3), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(3)]),
    EIGHTHS, EIGHTHS, st.lists(OTHER_FACTORS, max_size=3).filter(
        lambda fs: sum(p.degree for p in fs) <= 3),
    st.integers(-8, 8), st.integers(-8, 8), st.sampled_from(["y_dx", "dx_over_2y"]),
    st.lists(EIGHTHS, min_size=1, max_size=3), st.sampled_from([64, 128]))


@settings(max_examples=30, deadline=None)
@given(SEGMENT_LOOPS)
# the root 3/4 + 2i/5 beside [-1, 1]: Re(1 + xi e_r) < 0 next to xi = 1
@example((Fraction(1), Fraction(-1), Fraction(1), [(X - Fraction(3, 4)) ** 2 + Fraction(4, 25)],
          0, 0, "dx_over_2y", [Fraction(1), Fraction(1, 2)], 64))
# a triple root at 3 and t = 0, where the root sweep does not converge
@example((Fraction(-3), Fraction(0), Fraction(1, 4), [X - 3] * 3, 0, 0, "y_dx", [Fraction(0)],
          64))
def test_segment_kernel_matches_mpmath_at_twice_the_precision(case):
    # the fixed-point segment kernel and its trapezoid against mpmath's
    # quadrature of the same phi-integral (`_segment_loop`'s docstring) at
    # twice the working precision, from the same roots: within 2^-(prec + 24)
    # of the integral of |integrand|, or of 1 where that is smaller, as the
    # level test is absolute near 0.  Every other root keeps a quarter of
    # the half-width h from the segment, so the levels converge fast
    import abelint.hyperelliptic as hyp
    lc, p1, p2, factors, re_t, im_t, mode, k_coeffs, prec = case
    assume(abs(p2 - p1) >= Fraction(1, 4))
    f, k = lc * (X - p1) * (X - p2), RatPoly(k_coeffs)
    for factor in factors:
        f = f * factor
    wp = prec + 52
    with mp.workprec(wp):
        t = mp.mpc(re_t, im_t) / 256
        roots = roots_of_shifted(f, -t, wp)
        inside = [min(roots, key=lambda r: abs(r - mp.mpf(p.numerator) / p.denominator))
                  for p in (p1, p2)]
        assume(inside[0] is not inside[1])
        outside = [r for r in roots if all(r is not x for x in inside)]
        x1, x2 = sorted(inside, key=lambda r: (mp.re(r), mp.im(r)))
        m, h = (x1 + x2) / 2, (x2 - x1) / 2
        # the distance from r to the segment, through s = Re((r - m)/h) clamped to [-1, 1]
        assume(all(abs(r - m - h * max(-1, min(1, mp.re((r - m) / h)))) >= abs(h) / 4
                   for r in outside))
        x0 = m + 3 * abs(h) / 2
        s0 = mp.sqrt(eval_poly(f, x0, wp) + t)
        value = hyp._segment_loop(f, k, [x1, x2], outside, x0, s0, mode, prec, "loop")
    with mp.workprec(2 * wp):
        c = mp.sqrt(-mp.mpf(f.lc.numerator) / f.lc.denominator)
        for r in outside:
            c *= mp.sqrt(m - r)
        root_g0 = c
        for r in outside:
            root_g0 *= mp.sqrt((x0 - r) / (m - r))
        u = x0 - m
        lift = 1j * u * mp.sqrt(1 - (h / u) ** 2) * root_g0
        sigma = 1 if abs(lift - s0) <= abs(lift + s0) else -1

        def node(phi):
            x = m - h * mp.cos(phi)
            root_g = c
            for r in outside:
                root_g *= mp.sqrt((x - r) / (m - r))
            kx = eval_poly(k, x, mp.prec)
            return kx * (h * mp.sin(phi)) ** 2 * root_g if mode == "y_dx" else kx / root_g
        weight = 2 * sigma if mode == "y_dx" else sigma
        ref = weight * mp.quad(node, [0, mp.pi])
        size = 2 * mp.quad(lambda phi: abs(node(phi)), [0, mp.pi])
        assert abs(value - ref) <= mp.mpf(2) ** -(prec + 24) * max(1, size)


# an axis-parallel ellipse around an even number of roots of f + t (deg f
# 2 to 5), some of them within the contour's margin, every mode, a complex
# t and z; the precision
ELLIPSE_LOOPS = st.tuples(
    st.lists(QUARTERS, min_size=3, max_size=6), EIGHTHS, EIGHTHS, EIGHTHS, EIGHTHS,
    st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2), Fraction(2)]),
    st.sampled_from([Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2), Fraction(2)]),
    st.sampled_from(["y_dx", "dx_over_2y", "dx_over_y3", "cauchy"]),
    st.lists(QUARTERS, min_size=1, max_size=3),
    st.sampled_from([complex(-1, 0.5), complex(0.25, 0.125), complex(2, -1.5)]),
    st.sampled_from([64, 128]))


_GAUSS_LEGENDRE = {}


def _gauss_legendre(f, lo, hi, degree):
    """mpmath's Gauss-Legendre rule of 3 * 2^(degree - 1) nodes for the
    integral of f over [lo, hi], its nodes cached per working precision."""
    key = (degree, mp.prec)
    if key not in _GAUSS_LEGENDRE:
        _GAUSS_LEGENDRE[key] = GaussLegendre(mp).calc_nodes(degree, mp.prec)
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    return half * mp.fsum(w * f(mid + half * x) for x, w in _GAUSS_LEGENDRE[key])


def _adaptive_gauss_legendre(f, points, tol):
    """The integral of f over [points[0], points[-1]]: on each piece between
    consecutive points, the 96-node rule once it agrees with the 48-node
    rule within tol times the piece's share of the whole interval, the
    piece bisected until it does."""
    span, total = points[-1] - points[0], 0
    pieces = list(zip(points, points[1:]))
    while pieces:
        lo, hi = pieces.pop()
        assert hi - lo > span * 2 ** -40, "the reference quadrature does not settle"
        coarse, fine = _gauss_legendre(f, lo, hi, 5), _gauss_legendre(f, lo, hi, 6)
        if abs(fine - coarse) <= tol * (hi - lo) / span:
            total += fine
        else:
            pieces += [(lo, (lo + hi) / 2), ((lo + hi) / 2, hi)]
    return total


def _ellipse_reference(f, k, t, center, a, b, mode, z, roots, x0, prec):
    """`_ellipse_loop`'s integral over theta in [0, 2 pi] by adaptive
    Gauss-Legendre at the working precision, to within 2^-(prec + 52) of
    the integral of |integrand| (or of 1 where that is smaller), and that
    integral as a midpoint sum at 53 bits: y = +-sqrt(f + t) with the sign
    of the closed-form lift (`loop_integral`'s docstring) at the same
    roots, in doubles, and the interval split into pieces that shrink
    geometrically towards the theta nearest each root and pole within a
    quarter of the contour's size."""
    c, a_f, b_f = complex(center), float(a), float(b)
    q = [((r - c).real / a_f) ** 2 + ((r - c).imag / b_f) ** 2 for r in map(complex, roots)]
    j = sum(v < 1 for v in q) // 2

    def lift(x):
        val = (x - c) ** j
        for r, v in zip(map(complex, roots), q):
            val *= cmath.sqrt(1 - (r - c) / (x - c)) if v < 1 else cmath.sqrt((x - r) / (c - r))
        return val
    scale = complex(mp.sqrt(eval_poly(f, x0, mp.prec) + t)) / lift(complex(x0))

    def node(theta):
        cos, sin = mp.cos_sin(theta)
        x = center + a * cos + 1j * b * sin
        w = eval_poly(f, x, mp.prec) + t
        y = mp.sqrt(w)
        guide = scale * lift(complex(x))
        y = -y if y.real * guide.real + y.imag * guide.imag < 0 else y
        kx = eval_poly(k, x, mp.prec) * (-a * sin + 1j * b * cos)
        return {"y_dx": kx * y, "dx_over_2y": kx / (2 * y), "dx_over_y3": kx / (y * w),
                "cauchy": kx * y / (w - z)}[mode]
    points = set()
    poles = roots_of_shifted(f, z - t, mp.prec) if mode == "cauchy" else []
    for s in map(complex, list(roots) + poles):
        dist, theta = min((abs(c + a_f * math.cos(g) + 1j * b_f * math.sin(g) - s), g)
                          for g in (math.pi * i / 512 for i in range(1024)))
        step = dist / max(a_f, b_f)
        while step < 0.25:
            points |= {(theta - step) % (2 * math.pi), (theta + step) % (2 * math.pi)}
            step *= 2
    points = [mp.mpf(0)] + sorted(map(mp.mpf, points - {0.0})) + [2 * mp.pi]
    with mp.workprec(53):
        grid = sorted(points + [mp.pi * i / 16 for i in range(1, 32)])
        size = sum(abs(node((lo + hi) / 2)) * (hi - lo) for lo, hi in zip(grid, grid[1:]))
    value = _adaptive_gauss_legendre(node, points, mp.mpf(2) ** -(prec + 52) * max(1, size))
    return value, size


@settings(max_examples=8, deadline=None)
@given(ELLIPSE_LOOPS)
# y = sqrt(x^2 - 1) around both roots, whose principal root jumps twice
@example(([Fraction(-1), 0, Fraction(1)], 0, 0, 0, 0, Fraction(3, 2), Fraction(1, 2), "y_dx",
          [Fraction(1)], complex(-1, 0.5), 64))
# the branch points +-0.765 of QUARTIC_F - 1/2 lie 0.0065 of the radius
# inside the circle, within the contour's margin
@example(([Fraction(1), 0, Fraction(-1), 0, Fraction(1, 4)], 0, 0, Fraction(-1, 2), 0,
          Fraction(77, 100), Fraction(77, 100), "dx_over_2y", [Fraction(1), 0, Fraction(1)],
          complex(-1, 0.5), 64))
def test_ellipse_kernel_matches_mpmath_at_twice_the_precision(case):
    # the fixed-point ellipse kernel and its trapezoid against mpmath's
    # Gauss-Legendre rule on the same theta-integral at twice the working
    # precision, from the same roots: within 2^-(prec + 24) of the
    # integral of |integrand|, or of 1 where that is smaller.  A root
    # within the contour's margin slows the levels, so it is drawn only
    # at 64 bits
    import abelint.hyperelliptic as hyp
    coeffs, cr, ci, tr, ti, a, b, mode, k_coeffs, z, prec = case
    assume(coeffs[-1] != 0)
    f, k, wp = RatPoly(coeffs), RatPoly(k_coeffs), prec + 52
    with mp.workprec(wp):
        t, center, a, b = (mp.mpc(*(mp.mpf(v.numerator) / v.denominator for v in pair))
                           for pair in ((tr, ti), (cr, ci), (a, 0), (b, 0)))
        a, b = a.real, b.real
        roots = roots_of_shifted(f, -t, wp)
        norm = [mp.sqrt((mp.re(r - center) / a) ** 2 + (mp.im(r - center) / b) ** 2)
                for r in roots]
        inside = [r for r, q in zip(roots, norm) if q < 1]
        assume(len(inside) % 2 == 0)
        assume(min(abs(q - 1) for q in norm) >= (2 ** -7.5 if prec == 64 else 2 ** -4))
        z = mp.mpc(z)
        if mode == "cauchy":
            assume(all(abs(mp.sqrt((mp.re(p - center) / a) ** 2
                                   + (mp.im(p - center) / b) ** 2) - 1) >= 2 ** -4
                       for p in roots_of_shifted(f, z - t, wp)))
        x0 = center + a
        w0 = eval_poly(f, x0, wp) + t
        value = hyp._ellipse_loop(f, k, t, center, a, b, mode, z._mpc_, inside,
                                  [r for r in roots if all(r is not x for x in inside)],
                                  w0, prec, "loop")
    with mp.workprec(2 * wp):
        ref, size = _ellipse_reference(f, k, t, center, a, b, mode, z, roots, x0,
                                       prec)
        assert abs(value - ref) <= mp.mpf(2) ** -(prec + 24) * max(1, size)

@pytest.mark.parametrize("prec", [128, 192])
@pytest.mark.parametrize("family, k, t, center, radius", [
    (OvalFamily(f=1 - X ** 2 / 2, pair_index=0, t_min="0", t_max="1"), X ** 2 + 1, "0.5",
     0, "2.5"),
    (OvalFamily(f=X / 2 - X ** 2, pair_index=0, t_min="0.25", t_max="1"), X ** 3 - 2, "0.75",
     "0.25", "1.25"),
    (CENTRAL, X ** 2 + 1, "-0.5", 0, "0.85"),
    (CENTRAL, X ** 3 - X / 3, "-0.3", 0, "1.3"),
], ids=["quadratic-even", "quadratic", "quartic-central", "quartic-central-odd"])
def test_segment_loop_is_plus_or_minus_the_oval_period(monkeypatch, family, k, t, center,
                                                      radius, prec):
    # a circle around the oval's two branch points, every other root of f + t
    # outside it, collapses onto the oval's segment, where k y dx integrates
    # to +-I(t): the segment kernel against the oval kernel
    import abelint.hyperelliptic as hyp
    segments = []
    segment_loop = hyp._segment_loop

    def counting(*args):
        segments.append(args)
        return segment_loop(*args)
    monkeypatch.setattr(hyp, "_segment_loop", counting)
    config = Config(precision_bits=prec)
    period = integral_I(family, k, t, config)
    loop = loop_integral(family.f, k, t, center, radius, config=config)
    assert len(segments) == 1
    with mp.workprec(prec + 32):
        assert min(abs(loop - period), abs(loop + period)) <= (
            mp.mpf(2) ** -(prec + 24) * (1 + abs(period)))


def test_loop_around_a_fiber_with_a_triple_root():
    # f + t = -3x (x - 1/4)(x - 3)^3 at t = 0, whose root sweep does not
    # converge: the roots come from its exact squarefree factors, 3 three
    # times, and the loop around 0 and 1/4 runs on the segment, matching
    # the ellipse's trapezoid
    import abelint.hyperelliptic as hyp
    f, k, prec = -3 * X * (X - Fraction(1, 4)) * (X - 3) ** 3, X + 1, 64
    wp = prec + 52
    roots = roots_of_shifted(f, 0, wp)
    assert roots == [0, 0.25, 3, 3, 3]
    assert all(x.imag == 0 for x in roots)
    segments = []
    segment_loop = hyp._segment_loop
    config = Config(precision_bits=prec)
    with patch.object(hyp, "_segment_loop",
                      lambda *args: segments.append(args) or segment_loop(*args)):
        loop = loop_integral(f, k, 0, "0.125", "0.25", semi_minor="0.125", config=config)
    assert len(segments) == 1
    with mp.workprec(wp):
        center, a, b = mp.mpc(1) / 8, mp.mpf(1) / 4, mp.mpf(1) / 8
        w0 = eval_poly(f, center + a, wp)
        ellipse = hyp._ellipse_loop(f, k, mp.mpc(0), center, a, b, "y_dx", None, roots[:2],
                                    roots[2:], w0, prec, "loop")
        assert abs(loop) > mp.mpf(2) ** -8
        assert abs(loop - ellipse) <= mp.mpf(2) ** -(prec // 2) * (1 + abs(loop))


def _series_times(p, q):
    """The product of two power series truncated to the length of p."""
    return [sum(p[i] * q[n - i] for i in range(n + 1)) for n in range(len(p))]


def _series_power(u, alpha):
    """(1 + u)^alpha as a power series truncated to the length of u, for
    u[0] = 0: the binomial series."""
    out, power = [Fraction(0)] * len(u), [Fraction(1)] + [Fraction(0)] * (len(u) - 1)
    binom = 1
    for n in range(len(u)):
        out = [o + binom * c for o, c in zip(out, power)]
        power, binom = _series_times(power, u), binom * Fraction(alpha - n) / (n + 1)
    return out


def _residue_at_infinity(coeffs, lam, k, mode, z):
    """The x^-1 coefficient of the loop integrand's Laurent series at x =
    infinity, for f + t = lam^2 x^2m (1 + u) with coefficients `coeffs`, low
    first, and y = lam x^m (1 + u)^(1/2): the integrand is x^e k(x) S(w),
    S a power series in w = 1/x."""
    m = (len(coeffs) - 1) // 2
    order = len(k) + m

    def deviation(shift):       # (f + t - shift)/(lam^2 x^2m) - 1 in w
        lower = [coeffs[0] - shift] + coeffs[1:-1]
        return [Fraction(0)] + [lower[2 * m - d] / lam ** 2 if d <= 2 * m else Fraction(0)
                                for d in range(1, order + 1)]
    u = deviation(0)
    e, series = {
        "y_dx": (m, [lam * c for c in _series_power(u, Fraction(1, 2))]),
        "dx_over_2y": (-m, [c / (2 * lam) for c in _series_power(u, Fraction(-1, 2))]),
        "dx_over_y3": (-3 * m, [c / lam ** 3 for c in _series_power(u, Fraction(-3, 2))]),
        # k y/(y^2 - z) = k y/(lam^2 x^2m (1 + v)), v the deviation of f + t - z
        "cauchy": (-m, [c / lam for c in _series_times(_series_power(u, Fraction(1, 2)),
                                                        _series_power(deviation(z), -1))]),
    }[mode]
    # k_i x^(i + e) is k_i w^-(i + e); the x^-1 coefficient pairs it with S's w^(1 + i + e)
    return sum(c * series[1 + i + e] for i, c in enumerate(k) if 0 <= 1 + i + e <= order)


DYADICS = st.integers(-8, 8).map(lambda n: Fraction(n, 4))
EXACT_LOOPS = st.tuples(
    st.sampled_from([1, 2]), st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
    st.lists(DYADICS, min_size=4, max_size=4), DYADICS,
    st.lists(DYADICS, min_size=1, max_size=3), DYADICS,
    st.sampled_from(["y_dx", "dx_over_2y", "dx_over_y3", "cauchy"]),
    st.sampled_from([Fraction(1), Fraction(5, 4), Fraction(2)]))


@settings(max_examples=30, deadline=None)
@given(EXACT_LOOPS)
def test_loops_match_the_exact_residue_at_infinity(case):
    # f of degree 2m with square leading coefficient lam^2; an ellipse
    # around every root of f + t (and of f + t - z, the Cauchy poles) gives
    # 2 pi i times the x^-1 coefficient at infinity, and one around none of
    # them gives 0.  On the contour |u| < 1/2, and at x0 = radius > 0 the
    # principal root is lam x0^m (1 + u)^(1/2), so the series' branch is the
    # lift.  Degree 2 takes the segment path in "y_dx" and "dx_over_2y".
    m, lam, lower, t, k, z, mode, stretch = case
    coeffs = lower[:2 * m] + [lam ** 2]
    f, big_f = RatPoly(coeffs), RatPoly(coeffs) + t
    assume(poly_gcd(big_f, big_f.derivative()).degree == 0)
    bound = max(abs(c) / lam ** 2 for c in (coeffs[1:-1] + [coeffs[0] + t, coeffs[0] + t - z]))
    radius, prec = math.ceil(2 * (1 + bound)), 64
    config = Config(precision_bits=prec)
    exact = _residue_at_infinity([coeffs[0] + t] + coeffs[1:], lam, k, mode, z)
    with mp.workprec(prec + 32):
        mp_t, mp_z = (mp.mpf(v.numerator) / v.denominator for v in (t, z))
        kk = RatPoly(k)

        def size(center, a, b):
            # 2 pi max(a, b) times the largest |integrand| on 32 contour points
            top = 0
            for j in range(32):
                x = center + a * mp.cos(mp.pi * j / 16) + 1j * b * mp.sin(mp.pi * j / 16)
                w = abs(eval_poly(f, x, mp.prec) + mp_t)
                top = max(top, abs(eval_poly(kk, x, mp.prec)) * {
                    "y_dx": w ** 0.5, "dx_over_2y": w ** -0.5 / 2, "dx_over_y3": w ** -1.5,
                    "cauchy": w ** 0.5 / abs(eval_poly(f, x, mp.prec) + mp_t - mp_z)}[mode])
            return 2 * mp.pi * max(a, b) * top

        around_all = 2j * mp.pi * mp.mpf(exact.numerator) / exact.denominator
        for center, a, want in ((0, radius, around_all), (3 * radius, mp.mpf(radius) / 2, 0)):
            b = a * mp.mpf(stretch.numerator) / stretch.denominator
            val = loop_integral(f, kk, mp_t, center, a, mode=mode, z=mp_z, semi_minor=b,
                                config=config)
            assert abs(val - want) <= mp.mpf(2) ** -(prec + 8) * (1 + size(center, a, b))


# ---------------------------------------------------------------------------
# the remark fixture: big loop around all four roots
# ---------------------------------------------------------------------------

def test_remark_zero_dimensional_constant():
    assert trace_poly(X ** 2, QUARTIC_F).value == RatPoly.constant(8)


def test_remark_criterion_constant(config, quartic_rep, quartic_lattice):
    report = vanishing_criterion(QUARTIC_F, X, CycleVector.ones(4),
                                 config, quartic_rep, quartic_lattice)
    assert report.constant
    assert report.constant_value == 4      # sum of x_i^2 / 2


def test_remark_I_linear_in_t(config):
    with mp.workprec(180):
        ts = [mp.mpf("-0.9") + mp.mpf("0.06") * j for j in range(12)]
        vals = [loop_integral(QUARTIC_F, X, t, 0, 4, mode="y_dx", config=config)
                for t in ts]
        # least-squares line fit; residuals must be tiny and slope constant
        n = len(ts)
        sx = sum(ts); sy = sum(vals)
        sxx = sum(t * t for t in ts); sxy = sum(t * v for t, v in zip(ts, vals))
        slope = (n * sxy - sx * sy) / (n * sxx - sx ** 2)
        intercept = (sy - slope * sx) / n
        for t, v in zip(ts, vals):
            assert abs(v - (intercept + slope * t)) < mp.mpf(10) ** -8
        # I'(t) is the nonzero constant 2 pi i (up to orientation)
        iprime = loop_integral(QUARTIC_F, X, mp.mpf("-0.5"), 0, 4,
                               mode="dx_over_2y", config=config)
        assert abs(abs(iprime) - 2 * mp.pi) < mp.mpf(10) ** -8
        assert abs(slope - iprime) < mp.mpf(10) ** -8


# ---------------------------------------------------------------------------
# symmetric pair criterion
# ---------------------------------------------------------------------------

def _symmetric_pair_labels(config, quartic_rep):
    with mp.workprec(160):
        fiber = continue_fiber_to_real(QUARTIC_F, quartic_rep, mp.mpf("0.25"),
                                       config)
        outer = max(range(4), key=lambda i: mp.re(fiber[i]))
        partner = min(range(4),
                      key=lambda i: abs(fiber[i] + fiber[outer]))
        return outer + 1, partner + 1


def test_symmetric_pair_even_k(config, quartic_rep, quartic_lattice):
    i, j = _symmetric_pair_labels(config, quartic_rep)
    v = [0, 0, 0, 0]
    v[i - 1], v[j - 1] = 1, -1
    report = vanishing_criterion(QUARTIC_F, X, CycleVector(4, v),
                                 config, quartic_rep, quartic_lattice)
    assert report.constant
    assert report.constant_value == 0


def test_symmetric_pair_odd_k_fails(config, quartic_rep, quartic_lattice):
    i, j = _symmetric_pair_labels(config, quartic_rep)
    v = [0, 0, 0, 0]
    v[i - 1], v[j - 1] = 1, -1
    report = vanishing_criterion(QUARTIC_F, RatPoly.one(), CycleVector(4, v),
                                 config, quartic_rep, quartic_lattice)
    assert not report.constant
    assert report.residual > mp.mpf(2) ** -12


@pytest.mark.parametrize("name", ["t6", "x6"])
def test_vanishing_criterion_on_z_delta_combinations(name, request, config):
    # K = B + c with B a seeded rational combination of the Z_delta basis of
    # v and c = -B(0), so that K is the primitive of k = B': its integral
    # over v is c * sum(v).  Adding a monomial outside Z_delta + C makes it
    # depend on z.  The cycles are d-periodic (integer combinations of the
    # e_{k,d}), so Z_delta is not empty.
    p = chebyshev(6) if name == "t6" else X ** 6
    rep = request.getfixturevalue(f"{name}_rep")
    lattice = request.getfixturevalue(f"{name}_lattice")
    rng, bound = random.Random(31), 8
    for d in (1, 2, 3):
        weights = [rng.randint(1, 3) * rng.choice((1, -1)) for _ in range(d)]
        v = CycleVector(6, [weights[i % d] for i in range(6)])
        basis = z_delta_basis(p, v, bound, config, rep, lattice)
        assert basis.dim > 0 and sum(v.v) != 0
        big_b = sum((Fraction(rng.randint(-9, 9), rng.randint(1, 9)) * q
                     for q in basis.basis), RatPoly.zero())
        c = -big_b.coeff(0)
        report = vanishing_criterion(p, big_b.derivative(), v, config, rep, lattice)
        assert report.constant, (name, v)
        assert report.constant_value == c * sum(v.v)
        with_one = [[q.coeff(j) for j in range(bound + 1)] for q in basis.basis]
        with_one.append([1] + [0] * bound)
        m = next(m for m in range(1, bound + 1)
                 if not linalg.in_span(with_one, [int(j == m) for j in range(bound + 1)]))
        report = vanishing_criterion(p, (big_b + X ** m).derivative(), v, config,
                                     rep, lattice)
        assert not report.constant, (name, v, m)
        assert report.residual > mp.mpf(2) ** -12


# ---------------------------------------------------------------------------
# the pullback witness search
# ---------------------------------------------------------------------------

def test_exth_witness_for_odd_k(config):
    witness = check_exth(CENTRAL, X, config)
    assert witness is not None
    assert witness.r == X ** 2
    assert witness.exact
    for t in CENTRAL.t_samples(16, 160):
        assert abs(integral_I(CENTRAL, X, t, config)) < mp.mpf(10) ** -10


def test_exth_no_witness_for_constant_k(config):
    witness = check_exth(CENTRAL, RatPoly.one(), config)
    assert witness is None
    for t in CENTRAL.t_samples(4, 160):
        assert abs(integral_I(CENTRAL, RatPoly.one(), t, config)) > mp.mpf("1e-3")


def test_exth_empty_candidates():
    family = OvalFamily(f=X ** 3 - 3 * X, pair_index=0, t_min="-1.9", t_max="-0.1")
    assert check_exth(family, RatPoly.one(), Config()) is None


def test_certified_exth_witness_draws_no_sample(monkeypatch, config):
    # x^2 on the even quartic with odd k is proved over the whole range of
    # levels: no endpoint is rounded and no sample drawn
    import abelint.hyperelliptic as hyp
    calls = []
    endpoints = hyp.oval_endpoints
    monkeypatch.setattr(hyp, "oval_endpoints",
                        lambda *args: calls.append(args) or endpoints(*args))
    family = OvalFamily(f=QUARTIC_F, pair_index=1, t_min="-0.85", t_max="-0.15")
    witness = check_exth(family, X, config)
    assert witness.r == X ** 2 and witness.exact
    assert witness.max_deviation == 0 and witness.samples == 24
    assert calls == []


def test_exth_degree_filter_skips_decomposition(monkeypatch, config):
    # a right factor of degree >= 2 divides deg f and deg K: gcd(4, deg K)
    # = 1 for K = x and K = x^3/3 is None with no decomposition, while K =
    # x^2/2 decomposes f once
    import abelint.hyperelliptic as hyp
    calls = []
    decompose = hyp.decompose_all
    monkeypatch.setattr(hyp, "decompose_all", lambda f: calls.append(f) or decompose(f))
    for k in (RatPoly.one(), X ** 2):
        assert check_exth(CENTRAL, k, config) is None
    assert calls == []
    assert check_exth(CENTRAL, X, config).r == X ** 2
    assert calls == [QUARTIC_F]


def test_exth_zero_k_keeps_every_right_factor(config, monkeypatch):
    # k = 0 gives the constant K = 0, which lies in C[r] for every right
    # factor r of f, so the degree filter passes it on: the largest, f
    # itself made monic, comes first, and f(x1) = f(x2) = -t at every
    # level proves it without a sample
    import abelint.hyperelliptic as hyp

    def no_sample(*args):
        raise AssertionError("a sample was drawn")
    monkeypatch.setattr(hyp, "oval_endpoints", no_sample)
    witness = check_exth(CENTRAL, RatPoly.zero(), config)
    assert witness.r == QUARTIC_F.normalized() == X ** 4 - 4 * X ** 2
    assert witness.exact and witness.max_deviation == 0 and witness.samples == 24


def _critical_levels(f):
    """The levels t at which f + t has a real multiple root, in increasing
    order, at 30 digits."""
    with mp.workdps(30):
        slope = [mp.mpf(c.numerator) / c.denominator for c in reversed(f.derivative().coeffs)]
        return sorted({mp.nstr(-eval_poly(f, c.real, 100), 20)
                       for c in mp.polyroots(slope, maxsteps=200, extraprec=100)
                       if abs(c.imag) < mp.mpf(10) ** -20}, key=mp.mpf)


def _dyadic(x) -> Fraction:
    return Fraction(round(mp.mpf(x) * 2 ** 20), 2 ** 20)


def _oval_around_zero(f, t) -> bool:
    """Whether f + t, f even, has a middle pair of real roots around an oval."""
    return f(Fraction(0)) + t > 0 and RealRoots(f + RatPoly.constant(t)).count >= 2


# an even f = lc prod (x^2 - s) of degree 4 or 6, an odd k, and a range of
# levels: inside one interval between critical levels (the outer two cut at
# one unit past the last critical level) whose ovals have a middle pair, or
# from there across one of its ends into the neighbouring interval
EVEN_FAMILIES = st.tuples(
    st.sampled_from([1, -1, Fraction(1, 2), -2]),
    st.lists(st.sampled_from([Fraction(-1), Fraction(1, 4), Fraction(1), Fraction(9, 4),
                              Fraction(4), Fraction(-9, 4)]), min_size=2, max_size=3,
             unique=True),
    st.lists(st.integers(-3, 3), max_size=2), st.sampled_from([1, -2, 3]),
    st.integers(0, 5), st.integers(1, 7), st.integers(1, 7), st.sampled_from([0, -1, 1]),
    st.sampled_from([64, 128]))


@settings(max_examples=40, deadline=None)
@given(EVEN_FAMILIES)
# the middle pair of -(x^2 - 1)(x^2 - 4) between the levels 4 and 5
@example((-1, [Fraction(1), Fraction(4)], [], 1, 0, 1, 7, 0, 64))
# the middle pair of (x^2 + 1)(x^2 - 1/4)(x^2 - 1) from below the level
# where the outer roots meet to above it, where they are gone: the count at
# the lower end is right, and the range is not regular
@example((1, [Fraction(-1), Fraction(1, 4), Fraction(1)], [], 1, 0, 1, 1, 1, 64))
def test_exth_certificate_agrees_with_the_sampled_path(case):
    # check_exth with its range certificate and with sampling alone give the
    # same r, max_deviation and samples, or the same None or error; the
    # certificate holds, and the witness is exact, exactly when the sampled
    # levels lie inside one regular interval with a middle pair
    import abelint.hyperelliptic as hyp
    lc, squares, lower, top, pick, lo, hi, straddle, prec = case
    f = RatPoly.constant(lc)
    for s in squares:
        f = f * (X ** 2 - s)
    odd = lower + [top]
    k = RatPoly([0 if j % 2 == 0 else odd[j // 2] for j in range(2 * len(odd))])
    levels = [mp.mpf(v) for v in _critical_levels(f)]
    ends = [levels[0] - 1] + levels + [levels[-1] + 1]
    # intervals between ends with a middle pair; a straddle of -1 or 1 runs
    # the range across the interval's lower or upper end
    gaps = [g for g in range(len(ends) - 1)
            if _oval_around_zero(f, _dyadic((ends[g] + ends[g + 1]) / 2))
            and 1 <= g + (straddle > 0) <= len(ends) - 2]
    assume(gaps)
    gap = gaps[pick % len(gaps)]
    if straddle:
        j = gap + (straddle > 0)
        t_min = ends[j] - (ends[j] - ends[j - 1]) * lo / 8
        t_max = ends[j] + (ends[j + 1] - ends[j]) * hi / 8
    else:
        t_min, t_max = sorted(ends[gap] + (ends[gap + 1] - ends[gap]) * j / 8
                              for j in (lo, hi))
    t_min, t_max = _dyadic(t_min), _dyadic(t_max)
    count = RealRoots(f + RatPoly.constant(t_min)).count
    config, samples = Config(precision_bits=prec), 6

    def outcome():
        family = OvalFamily(f=f, pair_index=max(0, count // 2 - 1), t_min=t_min,
                            t_max=t_max)
        try:
            return check_exth(family, k, config, samples=samples)
        except ComputationError as exc:
            return str(exc)
    proved = outcome()
    with patch.object(hyp, "_symmetric_range_certificate", lambda *args: False):
        sampled = outcome()
    if proved is None or isinstance(proved, str):
        assert proved == sampled
        return
    assert sampled is not None and not isinstance(sampled, str)
    assert (proved.r, repr(proved.max_deviation), proved.samples) == \
        (sampled.r, repr(sampled.max_deviation), sampled.samples)
    assert not sampled.exact
    # the sampled levels inside one regular interval, with the middle pair
    # of the roots bounding an oval, are proved; across a critical level not
    ts = OvalFamily(f=f, pair_index=0, t_min=t_min, t_max=t_max).t_samples(samples, prec + 32)
    crossed = any(ts[0] <= c <= ts[-1] for c in levels)
    assert proved.exact == (proved.r == X ** 2 and not crossed)


def test_one_exact_picture_serves_every_level(monkeypatch, tmp_path, capsys):
    # check_exth's 24 samples and hyper-integrate's 8 levels on one family
    # build one Sturm chain, of f', and none per level; a family is built
    # with none, and its picture changes no ==, hash or repr
    import json
    from abelint import cli, realroots, serialize as ser
    calls = []
    sturm = realroots._sturm
    monkeypatch.setattr(realroots, "_sturm", lambda c: calls.append(c) or sturm(c))
    data = {"f": ser.poly_to_json(QUARTIC_F), "pair_index": 1, "t_min": "-0.85",
            "t_max": "-0.15"}
    family, fresh = ser.oval_family_from_json(data), ser.oval_family_from_json(data)
    assert calls == [] and family.exact == {}
    witness = check_exth(family, X, Config())
    assert witness.r == X ** 2 and witness.exact and witness.samples == 24
    assert calls == [[0, -2, 0, 1]]              # F' = 4x^3 - 8x, made primitive
    config = Config(precision_bits=128)
    for t in family.t_samples(8, 160):
        integral_I(family, X ** 2 + 1, t, config)
        integral_I_prime(family, X ** 2 + 1, t, config)
    assert len(calls) == 1
    assert family.exact and not fresh.exact
    assert family == fresh and hash(family) == hash(fresh) and repr(family) == repr(fresh)
    assert "exact" not in repr(family)
    assert ser.oval_family_from_json(data) == family
    calls.clear()
    path = tmp_path / "levels.json"
    path.write_text(json.dumps({"family": data, "k": ["1"]}))
    assert cli.main(["hyper-integrate", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)["values"]) == 8
    assert calls == [[0, -2, 0, 1]]


@pytest.mark.parametrize("samples", [0, -1])
def test_exth_rejects_fewer_than_one_sample(monkeypatch, samples):
    # no sample means no endpoints to certify; the error comes before any
    # root finding
    import abelint.hyperelliptic as hyp

    def no_roots(*args):
        raise AssertionError("root finding ran")
    monkeypatch.setattr(hyp, "level_roots", no_roots)
    family = OvalFamily(f=(X ** 2 - 2) ** 2, pair_index=1, t_min="-3", t_max="-1")
    with pytest.raises(InputError, match=r"^samples must be at least 1, got -?\d+$"):
        check_exth(family, X, Config(), samples=samples)


def test_sample_counts_above_the_limit_are_input_errors(monkeypatch, config):
    # every API sample count stops at COUNT_LIMIT, as Config.samples and
    # the JSON counts do, before any sample point is drawn
    import abelint.solver as solver

    def no_points(*args):
        raise AssertionError("a sample point was drawn")
    monkeypatch.setattr(OvalFamily, "t_samples", no_points)
    monkeypatch.setattr(solver, "_sample_points", no_points)
    samples = COUNT_LIMIT + 1
    message = rf"^samples must be at most {COUNT_LIMIT}, not {samples}$"
    family = OvalFamily(f=(X ** 2 - 2) ** 2, pair_index=1, t_min="-3", t_max="-1")
    with pytest.raises(InputError, match=message):
        check_exth(family, X, Config(), samples=samples)
    p, v = X ** 2, CycleVector(2, (1, -1))
    with pytest.raises(InputError, match=message):
        verify_vanishing_numeric(p, v, X, samples=samples, config=config)
    rep = monodromy(p, config)
    with pytest.raises(InputError, match=message):
        tracked_fiber_samples(p, rep, config, samples)


# ---------------------------------------------------------------------------
# the confluence limit (main4)
# ---------------------------------------------------------------------------

def test_main4_morse_confluence(config):
    combo = VanishingCycleCombo(2, {(1, 2): Fraction(1)})
    with mp.workprec(200):
        report = main4_limit_check(QUARTIC_F, X, combo,
                                   [mp.mpf("-0.01"), mp.mpf("-0.02")],
                                   mp.sqrt(2), config)
    assert report.max_relative_deviation < mp.mpf(10) ** -6


def test_main4_takes_fractions(config):
    # the critical point and the z samples are converted at the working
    # precision, so a Fraction gives the report of the same mp value
    f = (X - Fraction(3, 8)) ** 2 * (X ** 2 + 1)
    k = X ** 2 - 5 * X / 8 + Fraction(1, 8)
    combo = VanishingCycleCombo(2, {(1, 2): Fraction(1)})
    want = main4_limit_check(f, k, combo, [mp.mpf(-1) / 64], mp.mpf(3) / 8, config)
    got = main4_limit_check(f, k, combo, [Fraction(-1, 64)], Fraction(3, 8), config)
    assert got == want


def test_main4_even_confluence_pullback(config):
    # even f with a Morse point at x = 0 and K in C[x^2]: the symmetric
    # confluent roots give an identically zero formula side, and the
    # numeric limit agrees
    f_even = X ** 2 * (X ** 2 / 4 + 1)
    k = X ** 3 + 2 * X             # K = x^4/4 + x^2
    combo = VanishingCycleCombo(2, {(1, 2): Fraction(1)})
    with mp.workprec(200):
        report = main4_limit_check(f_even, k, combo, [mp.mpf("-0.01")],
                                   mp.mpf(0), config)
    for row in report.per_sample:
        assert abs(row["formula"]) < mp.mpf(10) ** -40
        assert abs(row["limit"]) < mp.mpf(10) ** -8


def test_main4_zero_combo_trivial(config):
    combo = VanishingCycleCombo(2, {})
    with mp.workprec(200):
        report = main4_limit_check(QUARTIC_F, X ** 3 + 2 * X, combo,
                                   [mp.mpf("-0.01")], mp.sqrt(2), config)
    for row in report.per_sample:
        assert abs(row["limit"]) == 0
        assert abs(row["formula"]) == 0


MORSE = VanishingCycleCombo(2, {(1, 2): Fraction(1)})


def test_main4_meets_its_test_on_a_rational_double_root(config):
    # f = (x - 3/8)^2 ((x - 19/8)^2 + 3/4), expanded
    f = RatPoly([Fraction(c) for c in ["3681/4096", "-699/128", "323/32", "-11/2", "1"]])
    k = X ** 2 - 5 * X / 8 + Fraction(1, 8)
    report = main4_limit_check(f, k, MORSE, [Fraction(-1, 64)], Fraction(3, 8), config)
    assert report.max_relative_deviation <= mp.mpf(2) ** -(config.precision_bits // 3)


def _double_root_quartic(rng):
    """f = +-(x - c)^2 ((x - a)^2 + b) with the critical point c, a small k
    and a small z of either sign."""
    def frac():
        return Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4, 8]))
    c, a = frac(), frac()
    b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 16), rng.choice([1, 4, 16]))
    f = rng.choice([-1, 1]) * (X - c) ** 2 * ((X - a) ** 2 + b)
    k = RatPoly([frac() for _ in range(rng.randint(1, 4))])
    return f, k, c, Fraction(rng.choice([-1, 1]), rng.choice([64, 128, 256]))


def test_fiber_roots_converge_on_an_exact_double_root():
    # draw 2 of _double_root_quartic: Durand-Kerner gains about one bit per
    # step on the double root -7, so at 180 bits it needs more than 200 steps
    f = -(X + 7) ** 2 * ((X + Fraction(3, 2)) ** 2 - Fraction(5, 2))
    assert f == _double_root_quartic(random.Random(2))[0]
    roots = roots_of_shifted(f, 0, 180)
    with mp.workprec(180):
        s = mp.sqrt(mp.mpf(5) / 2)
        assert all(abs(r + 7) < mp.mpf(2) ** -90 for r in roots[:2])
        assert abs(roots[2] + mp.mpf(3) / 2 + s) < mp.mpf(2) ** -170
        assert abs(roots[3] + mp.mpf(3) / 2 - s) < mp.mpf(2) ** -170


def test_main4_double_root_quartics_meet_or_raise(config):
    # a sample that misses 2^-(prec/3) must raise, never come back silently;
    # draws 3 and 6 have a root too near the cluster
    met = 0
    for seed in range(8):
        f, k, c, z = _double_root_quartic(random.Random(seed))
        try:
            report = main4_limit_check(f, k, MORSE, [z], c, config)
        except ComputationError:
            continue
        assert report.max_relative_deviation <= mp.mpf(2) ** -(config.precision_bits // 3)
        met += 1
    assert met >= 6


def test_main4_one_contour_and_one_fiber_per_sample(config, monkeypatch):
    import abelint.hyperelliptic as hyp
    mono = importlib.import_module("abelint.monodromy")   # the package exports monodromy()
    loops, fibers, refines = [], [], []
    loop_integral, roots_of_shifted, refine, end = (hyp.loop_integral, hyp.roots_of_shifted,
                                                    mono._refine, mono.newton_fixed)

    def spy_loop(f, k, t, *args, **kwargs):
        loops.append((t, kwargs["z"]))
        return loop_integral(f, k, t, *args, **kwargs)

    def spy_roots(p, z, prec):
        fibers.append(z)
        return roots_of_shifted(p, z, prec)

    def spy_refine(tier, z, fiber, what):
        refines.append(what)
        return refine(tier, z, fiber, what)

    def spy_end(p, z, starts, prec):
        refines.append("end fiber")
        return end(p, z, starts, prec)
    monkeypatch.setattr(hyp, "loop_integral", spy_loop)
    monkeypatch.setattr(hyp, "roots_of_shifted", spy_roots)
    monkeypatch.setattr(mono, "_refine", spy_refine)
    monkeypatch.setattr(mono, "newton_fixed", spy_end)
    zs = [Fraction(-1, 64), Fraction(-1, 32)]
    main4_limit_check(QUARTIC_F, X, MORSE, zs, mp.sqrt(2), config)
    assert [(t, z) for t, z in loops] == [(0, z) for z in zs]
    # the loop's own root finding is at t = 0; each z gets exactly one fiber
    assert [z for z in fibers if z != 0] == zs
    assert "end fiber" not in refines


def test_main4_miss_raises_naming_z(config, monkeypatch):
    import abelint.hyperelliptic as hyp
    loop_integral = hyp.loop_integral

    def off(*args, **kwargs):
        return loop_integral(*args, **kwargs) * (1 + mp.mpf(2) ** -20)
    monkeypatch.setattr(hyp, "loop_integral", off)
    with pytest.raises(ComputationError, match=r"z = \(-0\.015625 \+ 0\.0j\).*"
                                               r"relative deviation 9\.5\de-7"):
        main4_limit_check(QUARTIC_F, X, MORSE, [Fraction(-1, 64)], mp.sqrt(2), config)


def test_main4_multiplicity_orders_match(config):
    # k with k(sqrt(2)) = 0: both I' at t=0 and J_0 at z=0 vanish to first
    # order; with k = x neither vanishes (order 0)
    with mp.workprec(220):
        for k, expected_order in [(X, 0), (X ** 2 - 2, 1)]:
            zs = [mp.mpf(-1) / 4 ** j for j in range(3, 6)]
            j_vals = []
            for z in zs:
                order = local_order_data(k, z, config)
                j_vals.append(order)
            # fit the slope of log|J_0(z)| against log|z|
            slopes = []
            for a in range(len(zs) - 1):
                num = mp.log(abs(j_vals[a + 1])) - mp.log(abs(j_vals[a]))
                den = mp.log(abs(zs[a + 1])) - mp.log(abs(zs[a]))
                slopes.append(num / den)
            for s in slopes:
                assert abs(s - expected_order) < mp.mpf("0.05")

            t_vals = []
            ts = [mp.mpf(-1) / 4 ** j for j in range(3, 6)]
            for t in ts:
                spread = abs(mp.sqrt(2 * (1 + mp.sqrt(mp.mpc(-t)))) - mp.sqrt(2))
                val = loop_integral(QUARTIC_F, k, t, mp.sqrt(2), 6 * spread,
                                    mode="dx_over_2y", config=config)
                t_vals.append(val)
            slopes_t = []
            for a in range(len(ts) - 1):
                num = mp.log(abs(t_vals[a + 1])) - mp.log(abs(t_vals[a]))
                den = mp.log(abs(ts[a + 1])) - mp.log(abs(ts[a]))
                slopes_t.append(num / den)
            for s in slopes_t:
                assert abs(s - expected_order) < mp.mpf("0.05")


def local_order_data(k, z, config):
    """J_0(z) from the closed zero-dimensional formula at the confluence."""
    from abelint.numerics import roots_of_shifted
    df = QUARTIC_F.derivative()
    from abelint.numerics import eval_poly
    fiber = roots_of_shifted(QUARTIC_F, z, mp.prec)
    cluster = sorted(range(4), key=lambda i: abs(fiber[i] - mp.sqrt(2)))[:2]
    x_a, x_b = fiber[cluster[0]], fiber[cluster[1]]
    deriv = (eval_poly(k, x_a, mp.prec) / eval_poly(df, x_a, mp.prec)
             - eval_poly(k, x_b, mp.prec) / eval_poly(df, x_b, mp.prec))
    return 2 * mp.pi * mp.sqrt(-z) * deriv
