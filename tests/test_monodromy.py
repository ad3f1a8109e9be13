from fractions import Fraction

import importlib
import math
import random
import time
from dataclasses import replace
from types import SimpleNamespace
from unittest.mock import patch

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from abelint import numerics
from abelint.config import Config
import abelint.cycles as cycles
from abelint.cycles import (IntervalSystem, continue_fiber_to_real,
                            real_interval_to_coefficients)
from abelint.errors import (ComputationError, ConsistencyError, InputError,
                            TrackingError)
from abelint.monodromy import (Permutation, _infinity_loop, _machine_tier,
                               _petal_paths, _sweep_rotation, continue_fiber,
                               critical_values, polygon,
                               divisor_lattice, generated_group_order,
                               is_full_symmetric, match_permutation, monodromy,
                               track_fiber)
from abelint.numerics import (eval_poly, min_pairwise_distance, nstr_det,
                              roots_of, roots_of_shifted)
from abelint.ratpoly import RatPoly, chebyshev, compose, divisors, squarefree_part
from abelint.serialize import monodromy_from_json, monodromy_to_json

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


def closure_order(generators):
    """Reference order: breadth-first closure over all group elements."""
    seen = {Permutation.identity(generators[0].n)}
    frontier = seen
    while frontier:
        frontier = {g.then(h) for g in frontier for h in generators} - seen
        seen |= frontier
    return len(seen)


def cycles_perm(n, *cycles):
    """The permutation of 1..n with the given disjoint cycles."""
    images = list(range(1, n + 1))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a - 1] = b
    return Permutation(tuple(images))


# generators of the Mathieu groups, as cycles
M11 = [[tuple(range(1, 12))], [(3, 7, 11, 8), (4, 10, 5, 6)]]
M12 = M11 + [[(1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10)]]


@pytest.mark.parametrize("n", range(2, 21))
def test_group_order_symmetric(n):
    assert generated_group_order([cycles_perm(n, (1, 2)),
                                  Permutation.cycle(n)]) == math.factorial(n)


@pytest.mark.parametrize("n", range(3, 11))
def test_group_order_alternating(n):
    gens = [cycles_perm(n, (1, 2, k)) for k in range(3, n + 1)]
    assert generated_group_order(gens) == math.factorial(n) // 2


@pytest.mark.parametrize("n", range(3, 13))
def test_group_order_dihedral_and_cyclic(n):
    reflection = Permutation(tuple((1 - i) % n + 1 for i in range(n)))
    assert generated_group_order([Permutation.cycle(n), reflection]) == 2 * n
    assert generated_group_order([Permutation.cycle(n)]) == n


def test_group_order_mathieu():
    assert generated_group_order([cycles_perm(11, *g) for g in M11]) == 7920
    assert generated_group_order([cycles_perm(12, *g) for g in M12]) == 95040


def test_group_order_of_no_generators():
    assert generated_group_order([]) == 1


def _rep(generators):
    """The two fields of a MonodromyRep that is_full_symmetric reads."""
    return SimpleNamespace(n=generators[0].n, generators=tuple(generators))


def test_imprimitive_group_is_not_symmetric():
    # the 10-cycle and (1 3 5) keep the odd and the even points as blocks
    rep = _rep([Permutation.cycle(10), cycles_perm(10, (1, 3, 5))])
    assert not is_full_symmetric(rep)


@pytest.mark.parametrize("images", [
    [(3, 4, 12, 11, 10, 2, 7, 8, 1, 9, 6, 5), (10, 3, 11, 6, 1, 12, 5, 2, 9, 7, 4, 8)],
    [(4, 3, 11, 5, 2, 6, 9, 8, 1, 10, 7), (7, 2, 11, 1, 4, 3, 5, 10, 9, 6, 8)],
])
def test_large_symmetric_pairs_decided_exactly(images):
    start = time.perf_counter()
    assert is_full_symmetric(_rep([Permutation(g) for g in images]))
    assert time.perf_counter() - start < 1.0


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.permutations(range(1, n + 1)), min_size=1, max_size=3)))
def test_group_order_matches_closure(images):
    gens = [Permutation(tuple(g)) for g in images]
    assert generated_group_order(gens) == closure_order(gens)


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


def test_real_critical_value_over_non_real_critical_points(config):
    # x^4 + 2x^2 has the critical points 0 and +-i, and -1 = p(+-i) is real
    cvs = critical_values(X ** 4 + 2 * X ** 2, config)
    assert cvs == [-1, 0] and all(mp.im(c) == 0 for c in cvs)


def _pair_near_the_axis(k):
    # a real critical value near 0 and the pair about -1 +- 2^-k i
    return X ** 4 + 2 * X ** 2 + Fraction(1, 2 ** k) * X


def test_non_real_pair_near_the_axis(config):
    low, high, real = critical_values(_pair_near_the_axis(60), config)
    assert mp.im(real) == 0 and mp.im(low) < 0 < mp.im(high)


def test_non_real_pair_lost_in_rounding_is_an_error(config):
    # R's coefficients at precision_bits + 32 no longer see the 2^-200
    # that keeps the pair off the axis
    with pytest.raises(ComputationError,
                       match="^a non-real critical value is too near the real axis"):
        critical_values(_pair_near_the_axis(100), config)


def test_non_real_critical_values_are_p_at_the_critical_points(config):
    prec = 2 * config.precision_bits + 64
    checked = 0
    for seed in range(12):
        rng = random.Random(seed)
        degree = rng.randint(3, 8)
        p = RatPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(degree)] + [Fraction(rng.choice([1, -1, 2]))])
        with mp.workprec(prec):
            exact = [eval_poly(p, c, prec)
                     for c in roots_of(squarefree_part(p.derivative()), prec)]
            for c in critical_values(p, config):
                if mp.im(c) != 0:
                    error = min(abs(c - v) for v in exact)
                    assert error <= abs(c) * mp.mpf(2) ** -(config.precision_bits + 16)
                    checked += 1
    assert checked >= 12


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
# the two tracking tiers
# ---------------------------------------------------------------------------

# 64 bits and the largest step (track_step 1) keep the mp tier's side of the comparison
# short; both tiers run the same Config
TIER_CONFIG = Config(precision_bits=64, track_step=1.0)


def _closed(loop):
    """An (approach, circle) loop as one closed path: approach, circle,
    approach reversed."""
    approach, circle = loop
    return approach + circle[1:] + approach[::-1][1:]


def _loops(cvs):
    """Base point, the loop around infinity and the petal loops, at the
    working precision."""
    c0, loop_inf = _infinity_loop(cvs)
    return c0, loop_inf, _petal_paths(c0, cvs)[0]


def _loops_of(p, config):
    cvs = critical_values(p, config)
    with mp.workprec(config.precision_bits + 32):
        c0, loop_inf, petals = _loops(cvs)
        return ([_closed(loop) for loop in [loop_inf] + petals],
                roots_of_shifted(p, c0, mp.prec))


@pytest.mark.parametrize("degree, seed", [(3, 0), (5, 2), (8, 11)])
def test_machine_tier_matches_mp_tier(degree, seed):
    rng = random.Random(seed)
    p = RatPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(degree)] + [Fraction(1)])
    loops, fiber0 = _loops_of(p, TIER_CONFIG)
    for path in loops:
        mp_end = track_fiber(p, path, fiber0, TIER_CONFIG)
        machine_end = continue_fiber(p, path, fiber0, TIER_CONFIG)
        assert (match_permutation(fiber0, machine_end)
                == match_permutation(fiber0, mp_end))
        with mp.workprec(TIER_CONFIG.precision_bits + 32):
            for a, b in zip(machine_end, mp_end):
                assert abs(a - b) <= mp.mpf(2) ** -TIER_CONFIG.precision_bits


def _stress_cubic(e):
    return X ** 3 - 3 * e * e * X


def test_collapse_message_is_the_mp_tiers(config):
    # the real axis runs through both critical values +-2e^3 = +-2^-35
    p = _stress_cubic(Fraction(1, 2 ** 12))
    with mp.workprec(config.precision_bits + 32):
        start = roots_of_shifted(p, mp.mpf(-1), mp.prec)
    path = [mp.mpf(-1), mp.mpf(1)]
    with pytest.raises(TrackingError) as mp_err:
        track_fiber(p, path, start, config)
    with pytest.raises(TrackingError) as machine_err:
        continue_fiber(p, path, start, config)
    assert "step collapse" in str(mp_err.value)
    assert str(machine_err.value) == str(mp_err.value)


def test_closer_critical_values_fail_on_their_petal(config):
    with pytest.raises(TrackingError) as err:
        monodromy(_stress_cubic(Fraction(1, 2 ** 37)), config).generators
    assert str(err.value).startswith("petal loop 0 (critical value")


def test_monodromy_failure_names_the_loop():
    # at 256 bits the critical values +-2e^3 = +-2^-110 separate, but the
    # standoff circle around them is too small for collision_tol
    with pytest.raises(TrackingError) as err:
        monodromy(_stress_cubic(Fraction(1, 2 ** 37)),
                  Config(precision_bits=256)).generators
    msg = str(err.value)
    assert msg.startswith("petal loop 0 (critical value (-7.7037198e-34 + 0.0j)): "
                          "step collapse on the segment")


@pytest.mark.parametrize("k", [12, 18, 21, 23, 30])
def test_small_petals_reach_their_critical_values(config, k):
    # the climb to the standoff circle is split geometrically; the critical
    # values +-2^(1-3k) are two roots of one exact polynomial, never merged
    reference = monodromy(_stress_cubic(Fraction(1)), config).generators
    rep = monodromy(_stress_cubic(Fraction(1, 2 ** k)), config)
    assert rep.generators == reference
    assert generated_group_order(list(rep.generators)) == 6


def test_escalation_near_a_critical_value(config, monkeypatch):
    # x^3 - 3x has the critical value 2 over x = -1; the path closes in on
    # it geometrically and circles it at radius 2^-44, where the two roots
    # near -1 are about 2^-22 apart: below the machine tier's gap floor
    # the package binds the name abelint.monodromy to the function
    mono = importlib.import_module("abelint.monodromy")
    p = X ** 3 - 3 * X
    tiers = []
    segment = mono._track_segment

    def spy(z0, z1, fiber, config, tier):
        tiers.append(tier.num)
        return segment(z0, z1, fiber, config, tier)

    with mp.workprec(config.precision_bits + 32):
        approach = [mp.mpf(3)] + [2 + mp.mpf(2) ** -k for k in range(1, 45)]
        circle = [2 + mp.mpf(2) ** -44 * mp.exp(mp.mpc(0, 2) * mp.pi * k / 16)
                  for k in range(1, 17)]
        path = approach + circle + approach[::-1][1:]
        start = roots_of_shifted(p, mp.mpf(3), mp.prec)
    mp_end = track_fiber(p, path, start, config)
    monkeypatch.setattr(mono, "_track_segment", spy)
    machine_end = continue_fiber(p, path, start, config)
    assert float in tiers and mp.mpf in tiers      # some segments escalated
    sigma = match_permutation(start, machine_end)
    assert sigma == match_permutation(start, mp_end)
    assert len(sigma.cycles()) == 1 and len(sigma.cycles()[0]) == 2
    with mp.workprec(config.precision_bits + 32):
        for a, b in zip(machine_end, mp_end):
            assert abs(a - b) <= mp.mpf(2) ** -config.precision_bits


def test_tiny_coefficient_runs_on_the_mp_tier(config):
    p = RatPoly([Fraction(-1), Fraction(1, 10 ** 400), 0, Fraction(1)])
    with mp.workprec(config.precision_bits + 32):
        start = roots_of_shifted(p, mp.mpf(2), mp.prec)
        loop = [2 * mp.exp(mp.mpc(0, 2) * mp.pi * k / 16) for k in range(17)]
        assert _machine_tier(p, p.derivative(), loop) is None
    sigma = match_permutation(start, continue_fiber(p, loop, start, config))
    assert sigma == match_permutation(start, track_fiber(p, loop, start, config))
    assert sigma.order() == 3


def test_machine_tier_runs_at_1024_bits(monkeypatch):
    # every loop node on an axis is exact (`polygon`), so the loops at 1024
    # bits still track on machine floats, and a path point with a part below
    # the normal double range runs on the mp tier
    mono = importlib.import_module("abelint.monodromy")
    calls, newton = [], mono._machine_newton

    def spy(*args):
        calls.append(args)
        return newton(*args)

    monkeypatch.setattr(mono, "_machine_newton", spy)
    for p in (X ** 2, chebyshev(6)):
        expected = monodromy(p, Config()).generators
        calls.clear()
        assert monodromy(p, Config(precision_bits=1024)).generators == expected
        assert calls, p
    with mp.workprec(1056):
        tiny = mp.mpf(2) ** -1060
        assert _machine_tier(X ** 2, 2 * X, [mp.mpc(1, tiny), mp.mpc(tiny, -1)]) is None
        assert _machine_tier(X ** 2, 2 * X, [mp.mpc(1, 0), mp.mpc(tiny, tiny)]) is None


def test_infinity_loop_steps_by_the_fibers_reach(config, monkeypatch):
    # far from every critical value the fiber's reach covers a whole side of
    # the circle around infinity, so a segment takes one or two Newton calls,
    # where a fixed first step of a quarter segment took at least four
    mono = importlib.import_module("abelint.monodromy")
    segments, newton, segment = [], mono._machine_newton, mono._track_segment

    def newton_spy(*args):
        segments[-1][1] += 1
        return newton(*args)

    def segment_spy(z0, z1, fiber, config, tier):
        segments.append([tier.num, 0])
        return segment(z0, z1, fiber, config, tier)

    monkeypatch.setattr(mono, "_machine_newton", newton_spy)
    monkeypatch.setattr(mono, "_track_segment", segment_spy)
    assert monodromy(chebyshev(6), config).infinity == Permutation.cycle(6)
    assert len(segments) == 17
    assert all(num is float and 1 <= calls <= 2 for num, calls in segments), segments


@pytest.mark.parametrize("reach", [0.0, math.inf, math.nan])
def test_a_reach_of_zero_or_not_finite_fails_at_once(reach):
    # a stub tier: the step control collapses before any Newton call, never
    # looping on a zero or undefined step
    mono = importlib.import_module("abelint.monodromy")
    newtons = []

    class Collapsed(Exception):
        pass

    def collapse(*args):
        raise Collapsed(args)

    tier = mono._Tier(float, lambda z, fiber: newtons.append(z) or fiber,
                      lambda fiber: 1.0, lambda fiber: reach, collapse)
    with pytest.raises(Collapsed) as err:
        mono._track_segment(0j, 1 + 0j, [1j, -1j], Config(), tier)
    assert err.value.args[0][2] == 0          # collapsed at t = 0
    assert not newtons


@pytest.mark.parametrize("bits", [128, 4096])
def test_polygon_turns_are_53_bit_units(bits, monkeypatch):
    # whatever the working precision, the unit turns come from exponentials
    # at 53 bits, and a complex radius gives the loop of `local_cyclic_order`,
    # which closes on its own first node, exactly z
    precs = []
    for name in ("exp", "expjpi"):
        monkeypatch.setattr(mp, name, lambda *args, _f=getattr(mp, name):
                            precs.append(mp.prec) or _f(*args))
    with mp.workprec(bits + 32):
        z = mp.mpc(-1, 1) / 3
        loop = polygon(0, z, 0, 32)
        assert loop[0] == loop[-1] == z and len(loop) == 33
        ring = polygon(mp.mpf(1) / 3, mp.mpf(1) / 7, -0.5)
    assert precs == [53] * 48
    assert len(ring) == 17 and ring[-1] == ring[0]


def test_loops_and_arcs_at_4096_bits(monkeypatch):
    # every loop closes on its own first node, starts at the base point and
    # reaches the circle's foot; each node on an axis through the centre is
    # exact, so every path point fits in doubles and the machine tier takes
    # the loops and the real walk's arcs
    p, config = chebyshev(6), Config(precision_bits=4096)
    cvs = critical_values(p, config)
    with mp.workprec(4128):
        c0, loop_inf = _infinity_loop(cvs)
        for (approach, circle), center in zip([loop_inf] + _petal_paths(c0, cvs)[0],
                                              [0] + cvs):
            assert circle[-1] == circle[0] == approach[-1] and approach[0] == c0
            for node in circle[:16:4]:
                assert 0 in (mp.re(node - center), mp.im(node - center))
            assert _machine_tier(p, p.derivative(), approach + circle) is not None
    paths, walk = [], cycles.walk_fiber

    def spy(p, path, start_fiber, config):
        paths.append(path)
        return walk(p, path, start_fiber, config)

    monkeypatch.setattr(cycles, "walk_fiber", spy)
    continue_fiber_to_real(p, monodromy(p, config), Fraction(-1, 2), config)
    (path,) = paths
    assert len(path) == 2 + 9                   # one arc, over the critical value 1
    assert [mp.im(z) == 0 for z in path] == [True, True] + [False] * 7 + [True, True]
    assert _machine_tier(p, p.derivative(), path) is not None


# ---------------------------------------------------------------------------
# loops read at the circle's foot
# ---------------------------------------------------------------------------

def _seeded(degree, seed):
    rng = random.Random(seed)
    return RatPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                    for _ in range(degree)] + [Fraction(rng.choice([1, -1, 2]))])


FOOT_CASES = ([(f"seeded degree {d}", _seeded(d, 100 + d)) for d in range(2, 9)]
              + [(f"cubic e = 2^-{k}", _stress_cubic(Fraction(1, 2 ** k)))
                 for k in (12, 21, 30)]
              + [("T6", chebyshev(6)), ("x^8", X ** 8)])


@pytest.mark.parametrize("name, p", FOOT_CASES, ids=[c[0] for c in FOOT_CASES])
def test_foot_permutations_match_closed_loops(name, p, config):
    # reference: the base fiber continued around each closed loop (approach,
    # circle, approach reversed) and matched against itself
    rep = monodromy(p, config)
    cvs = critical_values(p, config)
    with mp.workprec(config.precision_bits + 32):
        c0, loop_inf, petals = _loops(cvs)
        fiber0 = roots_of_shifted(p, c0, mp.prec)
        # base_fiber is refined from its own start: match each root of
        # fiber0 to the nearest one, within match_permutation's gap / 4
        gap = min_pairwise_distance(fiber0)
        label = []
        for x in fiber0:
            dist, j = min((abs(x - y), j) for j, y in enumerate(rep.base_fiber))
            assert dist <= gap / 4
            label.append(j + 1)
    for loop, expected in zip([loop_inf] + petals, (rep.infinity,) + rep.generators):
        sigma = match_permutation(fiber0, continue_fiber(p, _closed(loop), fiber0,
                                                         config))
        images = [0] * rep.n
        for old in range(1, rep.n + 1):
            images[label[old - 1] - 1] = label[sigma(old) - 1]
        assert Permutation(tuple(images)) == expected


def test_one_start_refine_and_no_repeated_segment(config, monkeypatch):
    # the package binds the name abelint.monodromy to the function
    mono = importlib.import_module("abelint.monodromy")
    p = chebyshev(6)
    with mp.workprec(config.precision_bits + 32):
        _, loop_inf, petals = _loops(critical_values(p, config))
    segments = sum(len(part) - 1 for loop in [loop_inf] + petals for part in loop)
    refines, tiers = [], []
    refine, end, base, segment = (mono._refine, mono.newton_fixed, mono.fiber_roots,
                                  mono._track_segment)

    def refine_spy(tier, z, fiber, what):
        refines.append(what)
        return refine(tier, z, fiber, what)

    def end_spy(p, z, starts, prec):
        refines.append("end fiber")
        return end(p, z, starts, prec)

    def base_spy(p, z, prec):
        refines.append("base fiber")
        return base(p, z, prec)

    def segment_spy(z0, z1, fiber, config, tier):
        tiers.append(tier.num)
        return segment(z0, z1, fiber, config, tier)

    monkeypatch.setattr(mono, "_refine", refine_spy)
    monkeypatch.setattr(mono, "newton_fixed", end_spy)
    monkeypatch.setattr(mono, "fiber_roots", base_spy)
    monkeypatch.setattr(mono, "_track_segment", segment_spy)
    monodromy(p, config).generators
    # the base fiber comes refined from fiber_roots, and no fiber is refined again
    assert refines == ["base fiber"]
    # every segment once, on the machine tier: no return leg, no re-tracking
    assert tiers == [float] * segments


def test_monodromy_tracks_the_infinity_loop_alone(config, tracked_loops):
    # ==, hash and repr read no generator: the benchmark tracer hashes the
    # arguments of divisor_lattice
    rep, again = monodromy(chebyshev(6), config), monodromy(chebyshev(6), config)
    assert rep == again and hash(rep) == hash(again)
    assert "generators" not in repr(rep) and "petal_order" not in repr(rep)
    assert tracked_loops == ["the infinity loop"] * 2
    assert rep.petal_order == (1, 0)
    assert len(rep.generators) == 2 and rep.product_in_petal_order() == rep.infinity
    assert tracked_loops[2:] == [f"petal loop {i} (critical value ({c}.0 + 0.0j))"
                                 for i, c in enumerate((-1, 1))]


def test_a_rep_read_back_from_json_tracks_nothing(t6, t6_rep, tracked_loops):
    record = monodromy_to_json(t6_rep)
    tracked_loops.clear()
    back = monodromy_from_json(record)
    assert (back.generators, back.petal_order) == (t6_rep.generators, t6_rep.petal_order)
    assert monodromy_to_json(back) == record
    assert is_full_symmetric(back) is False
    assert tracked_loops == []


# ---------------------------------------------------------------------------
# the base fiber from a double-precision start
# ---------------------------------------------------------------------------

def _polyroots_calls(monkeypatch) -> list:
    """The arguments of every `mpmath.polyroots` call."""
    calls, polyroots = [], mpmath.polyroots

    def spy(*args, **kwargs):
        calls.append(args)
        return polyroots(*args, **kwargs)

    monkeypatch.setattr(mpmath, "polyroots", spy)
    return calls


# -2x^3/3 + x^2/4 + 15x/32 - 3/8, critical points -3/8 and 5/8: a cubic of
# the moment-cli benchmark's kind
MOMENT_CUBIC = RatPoly([Fraction(-3, 8), Fraction(15, 32), Fraction(1, 4),
                        Fraction(-2, 3)])


@pytest.mark.parametrize("p", [chebyshev(6), MOMENT_CUBIC], ids=["T6", "cubic"])
def test_base_fiber_needs_no_polyroots(p, config, monkeypatch):
    calls = _polyroots_calls(monkeypatch)
    monodromy(p, config)
    assert calls == []


# critical value polynomials on which Durand-Kerner in doubles stalls above
# 2^-50 of the scale, at 1.2e-12 and 4.4e-7 of the fiber gap
STALLING = [["8", "-4/3", "-2", "7/4", "7/2", "2"],
            ["-4/3", "0", "1/4", "6", "-3", "1", "3"]]


@pytest.mark.parametrize("coeffs", STALLING, ids=["degree 5", "degree 6"])
def test_a_stalled_double_start_is_refined(coeffs, config, monkeypatch):
    p = RatPoly([Fraction(c) for c in coeffs])
    calls = _polyroots_calls(monkeypatch)
    printed = [nstr_det(c, config.precision_bits) for c in critical_values(p, config)]
    assert calls == []
    with patch.object(numerics, "machine_roots", lambda monic: None):
        assert [nstr_det(c, config.precision_bits)
                for c in critical_values(p, config)] == printed
    assert len(calls) == 1


T6_BASE_FIBER = [
    ["1.05972087140574623221541284480335545", "0.0"],
    ["0.529860435702873116107706422401677726", "0.303737129718636155393209960773051347"],
    ["-0.529860435702873116107706422401677726", "0.303737129718636155393209960773051347"],
    ["-1.05972087140574623221541284480335545", "0.0"],
    ["-0.529860435702873116107706422401677726", "-0.303737129718636155393209960773051347"],
    ["0.529860435702873116107706422401677726", "-0.303737129718636155393209960773051347"]]
T8_BASE_FIBER = [
    ["1.03344867131829979936974567350899997", "0.0"],
    ["0.73075856349739728875505740886843644", "0.184412792736240576648385374295886908"],
    ["0.0", "0.260799072562690012296430487552530671"],
    ["-0.73075856349739728875505740886843644", "0.184412792736240576648385374295886908"],
    ["-1.03344867131829979936974567350899997", "0.0"],
    ["-0.73075856349739728875505740886843644", "-0.184412792736240576648385374295886908"],
    ["0.0", "-0.260799072562690012296430487552530671"],
    ["0.73075856349739728875505740886843644", "-0.184412792736240576648385374295886908"]]


@pytest.mark.parametrize("degree, want", [(6, T6_BASE_FIBER), (8, T8_BASE_FIBER)],
                         ids=["T6", "T8"])
def test_printed_base_fiber(degree, want, config):
    # the roots on the axes print exact zeros: the start snaps parts below
    # 2^-40 of its scale onto the axes, and the refine keeps them there
    rep = monodromy(chebyshev(degree), config)
    assert monodromy_to_json(rep)["base_fiber"] == want


def test_base_fiber_past_the_double_range_matches_the_fallback(config, monkeypatch):
    # 2^-1100 is not a normal double, but the scaled monic coefficients are:
    # the start comes from doubles and matches the polyroots fallback's rep
    p = RatPoly([0, Fraction(1, 2 ** 1100), 1])
    calls = _polyroots_calls(monkeypatch)
    rep = monodromy_to_json(monodromy(p, config))
    assert calls == []
    with patch.object(numerics, "machine_roots", lambda monic: None):
        assert monodromy_to_json(monodromy(p, config)) == rep
    assert len(calls) == 1
    root = "1.41421356237309504880168872420969808"
    assert rep == {
        "degree": 2, "precision_bits": 128, "base_point": ["2.0", "0.0"],
        "critical_values": [["-1.35503198883961705541418095255300543e-663", "0.0"]],
        "generators": [[2, 1]], "infinity": [2, 1],
        "base_fiber": [[root, "0.0"], ["-" + root, "0.0"]], "petal_order": [0]}


def _monodromy_record(p, config):
    try:
        return monodromy_to_json(monodromy(p, config))
    except ComputationError as exc:
        return f"{type(exc).__name__}: {exc}"


_SMALL = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
_LEAD = st.sampled_from([Fraction(c) for c in ("1", "-1", "2", "-2", "1/2", "-3")])


@settings(max_examples=40, deadline=None)
@given(lower=st.integers(1, 7).flatmap(
           lambda d: st.lists(_SMALL, min_size=d + 1, max_size=d + 1)),
       lead=_LEAD)
def test_double_start_matches_the_polyroots_start(lower, lead, config):
    # the same rep, to the printed base_fiber, as from mpmath.polyroots
    p = RatPoly(lower + [lead])
    default = _monodromy_record(p, config)
    with patch.object(numerics, "machine_roots", lambda monic: None):
        assert _monodromy_record(p, config) == default


def _mp_sweep(cvs, c0):
    """The full mp scan that `_sweep_rotation` must reproduce: the first of
    the best margins over its 48 candidate rotations."""
    points = list(cvs) + [mp.mpc(c0)]
    best = None
    for j in range(48):
        phi = mp.pi * j / mp.mpf(149)
        u = mp.exp(mp.mpc(0, -1) * phi)
        projs = sorted(mp.re(p * u) for p in points)
        gap = min(b - a for a, b in zip(projs, projs[1:]))
        if best is None or gap > best[1]:
            best = (phi, gap)
    return best


_COORDS = st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                   min_size=1, max_size=6)
# a copy of point i moved by (dx, dy) 2^-k: from k = 20, which the double
# scores resolve, to k = 80, where they cannot tell the copy from its point
_NEAR = st.lists(st.tuples(st.integers(0, 5), st.integers(20, 80),
                           st.integers(-1, 1), st.integers(-1, 1)), max_size=3)


@settings(max_examples=60, deadline=None)
@given(_COORDS, _NEAR, st.sampled_from([0, 1100]))
@example([(1, 0), (1, 0)], [], 0)                     # an exact tie: every gap 0
@example([(1, 0), (-2, 3)], [(0, 70, 1, 0)], 0)       # a tie in doubles only
@example([(1, 0), (-2, 3)], [(1, 45, 0, 1)], 0)
@example([(3, 1), (-2, 3), (0, -5)], [], 1100)       # past the double range
def test_sweep_rotation_matches_the_mp_scan(coords, near, scale):
    with mp.workprec(160):
        cvs = [mp.mpc(a, b) / 4 * mp.mpf(2) ** scale for a, b in coords]
        for i, k, dx, dy in near:
            cvs.append(cvs[i % len(coords)] + mp.mpc(dx, dy) * mp.mpf(2) ** (scale - k))
        c0 = mp.mpf(2 * (1 + max(abs(c) for c in cvs)))
        phi, gap = _mp_sweep(cvs, c0)
        if gap <= 0:
            with pytest.raises(ComputationError):
                _sweep_rotation(cvs, c0)
        else:
            got_phi, got_gap = _sweep_rotation(cvs, c0)
            assert (got_phi._mpf_, got_gap._mpf_) == (phi._mpf_, gap._mpf_)


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


def _permutations_and_cycles(p, a, b, bits):
    """The generators, petal order and infinity permutation of p at `bits`,
    with the level cycles of the interval [a, b] (each as its criticality
    and vector), or the error the walk raises."""
    config = Config(precision_bits=bits)
    rep = monodromy(p, config)
    try:
        levels = [(lc.is_critical, lc.cycle) for lc in real_interval_to_coefficients(
            p, IntervalSystem.of((a, b, 1)), rep, config)]
    except ComputationError as exc:
        levels = f"{type(exc).__name__}: {exc}"
    return rep.generators, rep.petal_order, rep.infinity, levels


_DYADIC = st.builds(Fraction, st.integers(-16, 16), st.just(8))


def _cubic_case(e):
    """x^3 - 3e^2 x on [-e, e/2]."""
    return _stress_cubic(e), -e, e / 2


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.builds(lambda lower, lead: RatPoly(lower + [lead]),
                           st.integers(2, 6).flatmap(
                               lambda d: st.lists(_SMALL, min_size=d, max_size=d)),
                           _LEAD),
                 _DYADIC, _DYADIC).filter(lambda case: case[1] != case[2]))
@example(_cubic_case(Fraction(1)))
@example(_cubic_case(Fraction(1, 2 ** 4)))
@example(_cubic_case(Fraction(1, 2 ** 10)))
def test_precision_changes_no_permutation(case):
    """Every permutation `monodromy` reads and the level cycles of one
    interval are the same at 128 and at 1024 bits."""
    p, a, b = case
    assert _permutations_and_cycles(p, a, b, 1024) == _permutations_and_cycles(p, a, b, 128)


@settings(max_examples=15, deadline=None)
@given(st.builds(lambda lower, lead: RatPoly(lower + [lead]),
                 st.integers(2, 7).flatmap(
                     lambda d: st.lists(_SMALL, min_size=d, max_size=d)),
                 _LEAD))
def test_reach_steps_keep_every_loop_permutation(p):
    """Each closed loop of p gives the same permutation on the two-tier
    tracker as on the working-precision tier at doubled precision and half
    the step."""
    config = Config(precision_bits=64)
    loops, fiber0 = _loops_of(p, config)
    for path in loops:
        assert (match_permutation(fiber0, continue_fiber(p, path, fiber0, config))
                == match_permutation(fiber0, track_fiber(p, path, fiber0,
                                                         config.doubled())))


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


def _preserves_mod_blocks(gen: Permutation, d: int) -> bool:
    """Whether gen maps each residue class mod d onto one residue class."""
    return all(len({(gen(i) - 1) % d for i in range(k, gen.n + 1, d)}) == 1
               for k in range(1, d + 1))


def _seeded_composite(seed):
    rng = random.Random(seed)
    da, dw = rng.choice([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)])
    a = RatPoly([Fraction(rng.randint(-5, 5)) for _ in range(da)]
                + [Fraction(rng.choice([1, -1, 2]))])
    w = RatPoly([Fraction(0)] + [Fraction(rng.randint(-5, 5), rng.randint(1, 2))
                                 for _ in range(dw - 1)] + [Fraction(1)])
    return compose(a, w)


RITT_CASES = FOOT_CASES + [(f"composite {s}", _seeded_composite(s)) for s in range(4)]


@pytest.mark.parametrize("name, p", RITT_CASES, ids=[c[0] for c in RITT_CASES])
def test_lattice_members_are_the_generator_block_systems(name, p, config):
    """Ritt's first theorem on the computed group: the residue classes mod d
    are blocks of every generator exactly when d is a lattice member."""
    rep = monodromy(p, config)
    members = divisor_lattice(rep, p).members
    for d in divisors(rep.n):
        kept = all(_preserves_mod_blocks(g, d) for g in rep.generators)
        assert kept == (d in members), d


@pytest.mark.parametrize("p", [chebyshev(6), X ** 8], ids=["T6", "x^8"])
def test_lattice_rejects_a_misnumbered_base_fiber(p, config):
    """The branch labels that solve and classify use are those of the base
    fiber: swapping roots 1 and 2 puts each into the other's class mod 2."""
    rep = monodromy(p, config)
    fiber = list(rep.base_fiber)
    fiber[0], fiber[1] = fiber[1], fiber[0]
    with pytest.raises(ConsistencyError,
                       match="base fiber does not split into the blocks of d=2"):
        divisor_lattice(replace(rep, base_fiber=tuple(fiber)), p)


def test_lattice_of_a_rep_read_back_from_json(t6, t6_rep, t6_lattice):
    back = monodromy_from_json(monodromy_to_json(t6_rep))
    assert divisor_lattice(back, t6) == t6_lattice


def test_is_full_symmetric(config, quintic_rep, t6_rep):
    assert is_full_symmetric(quintic_rep)
    assert not is_full_symmetric(t6_rep)
    rep2 = monodromy(X ** 2, config)
    assert is_full_symmetric(rep2)
