import importlib
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

import abelint.cycles as cycles
import abelint.numerics as numerics
from abelint.cycles import (CycleVector, IntervalSystem, VanishingCycleCombo,
                            build_constellation, constellation_svg,
                            continue_fiber_to_real, nontrivial_cycle_exists,
                            real_interval_to_coefficients,
                            vanishing_combo_to_cycle)
from abelint.errors import InputError
from abelint.monodromy import monodromy
from abelint.numerics import eval_poly, to_mpf
from abelint.ratpoly import RatPoly, compose, critical_value_poly
from abelint.realroots import RealRoots
from abelint.serialize import monodromy_from_json, monodromy_to_json

mono = importlib.import_module("abelint.monodromy")

X = RatPoly.x()


# ---------------------------------------------------------------------------
# cycle vectors
# ---------------------------------------------------------------------------

def test_cycle_vector_reduced_flag():
    v = CycleVector(3, (1, -1, 0))
    assert v.reduced
    w = CycleVector(3, (1, 1, 1))
    assert not w.reduced
    with pytest.raises(InputError):
        CycleVector(3, (1, 0, 0), reduced=True)


def test_cycle_vector_proportionality():
    a = CycleVector(6, (0, -1, -1, 0, 1, 1))
    b = CycleVector(6, (0, 2, 2, 0, -2, -2))
    c = CycleVector(6, (1, 0, -1, -1, 0, 1))
    assert a.proportional_to(b)
    assert not a.proportional_to(c)
    assert a.proportional_to(CycleVector.zero(6))


def test_nontrivial_cycle_exists():
    assert not nontrivial_cycle_exists([CycleVector.zero(4)])
    assert nontrivial_cycle_exists([CycleVector.zero(4),
                                    CycleVector(4, (1, -1, 0, 0))])


# ---------------------------------------------------------------------------
# vanishing-cycle combinations
# ---------------------------------------------------------------------------

def test_single_vanishing_cycle():
    combo = VanishingCycleCombo(2, {(1, 2): Fraction(1)})
    v = vanishing_combo_to_cycle(combo, [1, 2])
    assert v.v == (1, -1)
    assert v.reduced


def test_vanishing_cycle_relations():
    # gamma_12 + gamma_23 = gamma_13, for arbitrary placements
    rng = random.Random(8)
    for _ in range(20):
        n_local = rng.randint(3, 6)
        order = list(range(1, n_local + 1))
        rng.shuffle(order)
        c12 = vanishing_combo_to_cycle(
            VanishingCycleCombo(n_local, {(1, 2): Fraction(1)}), order, n_local)
        c23 = vanishing_combo_to_cycle(
            VanishingCycleCombo(n_local, {(2, 3): Fraction(1)}), order, n_local)
        c13 = vanishing_combo_to_cycle(
            VanishingCycleCombo(n_local, {(1, 3): Fraction(1)}), order, n_local)
        assert c12 + c23 == c13


def test_vanishing_cycle_full_loop_is_zero():
    # gamma_{1,2} + gamma_{2,3} + ... + gamma_{n-1,n} - gamma_{1,n} = 0
    n = 5
    coeffs = {(i, i + 1): Fraction(1) for i in range(1, n)}
    coeffs[(1, n)] = Fraction(-1)
    combo = VanishingCycleCombo(n, coeffs)
    v = vanishing_combo_to_cycle(combo, list(range(1, n + 1)))
    assert v.is_zero()


def test_vanishing_cycle_index_range():
    with pytest.raises(InputError):
        VanishingCycleCombo(3, {(1, 4): Fraction(1)})


# ---------------------------------------------------------------------------
# interval walks (the two worked moment problems)
# ---------------------------------------------------------------------------

def sqrt3_over_2():
    with mp.workprec(200):
        return mp.sqrt(3) / 2


def test_t6_single_interval_vector(t6, t6_rep, config):
    s = sqrt3_over_2()
    system = IntervalSystem.of((-s, s, 1))
    out = real_interval_to_coefficients(t6, system, t6_rep, config)
    assert len(out) == 2                      # one vector per critical value
    assert all(lc.is_critical for lc in out)
    target = CycleVector(6, (0, -1, -1, 0, 1, 1))
    for lc in out:
        assert not lc.cycle.is_zero()
        assert lc.cycle.proportional_to(target)
    # the two per-critical-value vectors are proportional to each other
    assert out[0].cycle.proportional_to(out[1].cycle)


def test_a_rep_read_back_from_json_builds_its_picture_once(t6, t6_rep, config,
                                                          monkeypatch):
    # the field is not serialised: a rep from JSON builds P's exact picture
    # on its first walk, keeps it, and walks to the same cycles
    rep = monodromy_from_json(monodromy_to_json(t6_rep))
    assert not rep.exact
    system = IntervalSystem.of((-1, Fraction(-1, 2), 1), (Fraction(1, 2), 1, 1))
    want = real_interval_to_coefficients(t6, system, t6_rep, config)
    calls = []
    build = mono.critical_value_poly
    monkeypatch.setattr(mono, "critical_value_poly", lambda p: calls.append(p) or build(p))
    for _ in range(2):
        assert real_interval_to_coefficients(t6, system, rep, config) == want
    assert calls == [t6] and list(rep.exact) == [t6]


def test_t6_three_weighted_intervals_alternating(t6, t6_rep, config):
    system = IntervalSystem.of(
        (-1, Fraction(-1, 2), 1),
        (Fraction(-1, 2), Fraction(1, 2), -1),
        (Fraction(1, 2), 1, 1),
    )
    out = real_interval_to_coefficients(t6, system, t6_rep, config)
    assert len(out) == 2
    target = CycleVector(6, (1, -1, 1, -1, 1, -1))
    for lc in out:
        assert lc.cycle.proportional_to(target)
        assert not lc.cycle.is_zero()


def test_empty_system_gives_zero_vectors(t6, t6_rep, config):
    out = real_interval_to_coefficients(t6, IntervalSystem(()), t6_rep, config)
    assert len(out) == 2
    assert all(lc.cycle.is_zero() for lc in out)
    assert not nontrivial_cycle_exists(out)


def test_orientation_reversal_negates(t6, t6_rep, config):
    s = sqrt3_over_2()
    fwd = real_interval_to_coefficients(
        t6, IntervalSystem.of((-s, s, 1)), t6_rep, config)
    bwd = real_interval_to_coefficients(
        t6, IntervalSystem.of((s, -s, 1)), t6_rep, config)
    for f, b in zip(fwd, bwd):
        assert f.cycle + b.cycle == CycleVector.zero(6)


def test_walk_vectors_reduced(t6, t6_rep, config):
    # closed image walks produce reduced vectors at every level
    s = sqrt3_over_2()
    out = real_interval_to_coefficients(
        t6, IntervalSystem.of((-s, s, Fraction(2, 3))), t6_rep, config)
    for lc in out:
        assert lc.cycle.reduced


def test_endpoint_off_critical_level(config):
    # x^2 on [1, 2]: endpoints map to regular values 1 and 4, so two extra
    # cut levels appear carrying non-reduced single-branch conditions
    p = X ** 2
    rep = monodromy(p, config)
    out = real_interval_to_coefficients(
        p, IntervalSystem.of((1, 2, 1)), rep, config)
    crit = [lc for lc in out if lc.is_critical]
    extra = [lc for lc in out if not lc.is_critical]
    assert len(crit) == 1 and crit[0].cycle.is_zero()
    assert len(extra) == 2
    assert all(not lc.cycle.is_zero() for lc in extra)
    for lc in extra:
        assert sum(lc.cycle.v) != 0     # partial passes: not reduced


def test_probe_on_a_critical_level(config):
    # x^3 - 3x on [-1.5, 3]: the middle 2 of the piece [1, 3] maps exactly
    # onto the critical value 2 (the image of the turning point -1)
    p = X ** 3 - 3 * X
    out = real_interval_to_coefficients(
        p, IntervalSystem.of(("-1.5", "3", 1)), monodromy(p, config), config)
    assert [(lc.level, lc.is_critical, lc.cycle.v) for lc in out] == [
        (-2, True, (-1, 0, 1)), (mp.mpf("1.125"), False, (0, -1, 0)),
        (2, True, (0, 1, -1)), (18, False, (1, 0, 0))]


def _counting_fibers(monkeypatch):
    """The levels of every fiber the walk continues, recorded in order."""
    levels = []

    def counting(p, rep, z, config):
        levels.append(z)
        return continue_fiber_to_real(p, rep, z, config)
    monkeypatch.setattr(cycles, "continue_fiber_to_real", counting)
    return levels


def test_one_fiber_per_gap(t6, t6_rep, config, monkeypatch):
    # every piece of the three intervals maps into (-1, 1), the one gap
    # between T6's critical values -1 and 1
    levels = _counting_fibers(monkeypatch)
    real_interval_to_coefficients(t6, IntervalSystem.of(
        (-1, Fraction(-1, 2), 1), (Fraction(-1, 2), Fraction(1, 2), -1),
        (Fraction(1, 2), 1, 1)), t6_rep, config)
    assert len(levels) == 1 and -1 < levels[0] < 1


@st.composite
def walk_inputs(draw):
    """A cubic or quartic with distinct real dyadic turning points, and a
    dyadic interval."""
    turning = draw(st.lists(st.integers(-12, 12), min_size=2, max_size=3,
                            unique=True))
    dp = RatPoly.constant(draw(st.sampled_from([1, -1, 2, Fraction(1, 2)])))
    for r in turning:
        dp = dp * (X - Fraction(r, 8))
    p = dp.primitive() + Fraction(draw(st.integers(-8, 8)), 8)
    a, b = draw(st.lists(st.integers(-20, 20), min_size=2, max_size=2, unique=True))
    return p, Fraction(a, 8), Fraction(b, 8)


@settings(max_examples=30, deadline=None)
@given(case=walk_inputs(), data=st.data())
def test_walk_labels_are_the_tracked_branches(config, case, data):
    # each piece's label is the fiber entry nearest the piece at a random
    # interior point, and no gap is tracked twice
    p, a, b = case
    rep = monodromy(p, config)
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _counting_fibers(monkeypatch)
        out = real_interval_to_coefficients(
            p, IntervalSystem.of((a, b, 1)), rep, config)
    cv_poly = critical_value_poly(p)
    critical = RealRoots(cv_poly)
    gaps = [critical.rank(z) for z in calls]
    assert len(set(gaps)) == len(gaps)

    expected = [[0] * rep.n for _ in out]
    sign = 1 if a < b else -1
    with mp.workprec(config.precision_bits + 32):
        real_cvs = [critical.root(i, mp.prec) for i in range(critical.count)]
        lo, hi = to_mpf(min(a, b), mp.prec), to_mpf(max(a, b), mp.prec)
        cuts = [lo] + RealRoots(p.derivative()).between(lo, hi, mp.prec) + [hi]
        for xl, xr in zip(cuts, cuts[1:]):
            start, end = (min(range(len(out)), key=lambda i: abs(
                out[i].level - eval_poly(p, x, mp.prec))) for x in (xl, xr))
            if start == end:
                continue
            x = xl + (xr - xl) * data.draw(st.floats(0.05, 0.95))
            # the reference probe's level stays clear of every real critical
            # value: a float fraction can land a hair from a non-critical
            # preimage of one, where tracking to it rightly reports a collision
            z = eval_poly(p, x, mp.prec)
            assume(all(abs(z - c) > mp.mpf(2) ** -20 * (1 + abs(c)) for c in real_cvs))
            fiber = continue_fiber_to_real(p, rep, z, config)
            (best, i), (second, _) = sorted((abs(f - x), i)
                                            for i, f in enumerate(fiber))[:2]
            assert best * 4 < second
            expected[start][i] -= sign
            expected[end][i] += sign
    assert [list(lc.cycle.v) for lc in out] == expected


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

def test_constellation_t6_chain(t6, t6_rep, config):
    con = build_constellation(t6_rep)
    assert con.n == 6
    assert len(con.rays) == 2
    # every star reaches one vertex per critical value
    for star in con.stars:
        assert set(star) == {0, 1}
    # multiplicities per critical value sum to the degree
    for s in range(2):
        assert sum(1 for star in con.stars for r in star if r == s) == 6
    # one face: the single pole at infinity
    assert con.face_count_via_euler() == 1
    # the sharing graph is the 6-chain of the dihedral dessin: 5 edges,
    # two endpoints, connected (which together force a path graph)
    edges = con.sharing_graph_edges()
    assert len(edges) == 5
    degs = {i: 0 for i in range(1, 7)}
    for i, j in edges:
        degs[i] += 1
        degs[j] += 1
    assert sorted(degs.values()) == [1, 1, 2, 2, 2, 2]
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for a in frontier:
            for i, j in edges:
                other = j if i == a else (i if j == a else None)
                if other is not None and other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    assert seen == set(range(1, 7))


def _seeded(degree, seed):
    rng = random.Random(seed)
    return RatPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    for _ in range(degree)] + [Fraction(rng.choice([1, -1, 2]))])


CONSTELLATION_CASES = {
    **{f"x^{k}": X ** k for k in range(2, 9)},
    "AoW": compose(X ** 2 + X, X ** 3 - 3 * X),
    **{f"seed{seed}-degree{d}": _seeded(d, seed)
       for d, seed in [(3, 0), (4, 1), (5, 2), (6, 3), (7, 4)]},
}


@pytest.mark.parametrize("name", list(CONSTELLATION_CASES))
def test_constellation_is_the_generator_cycles(name, config, monkeypatch):
    p = CONSTELLATION_CASES[name]
    rep = monodromy(p, config)

    def forbidden(*args, **kwargs):
        raise AssertionError("build_constellation tracked a fiber or found roots")
    tracking = importlib.import_module("abelint.monodromy")
    for module, attr in [(cycles, "walk_fiber"), (tracking, "walk_fiber"),
                         (tracking, "continue_fiber"),
                         (tracking, "track_fiber"), (numerics, "roots_of"),
                         (numerics, "roots_of_shifted"), (mpmath, "polyroots")]:
        monkeypatch.setattr(module, attr, forbidden)
    con = build_constellation(rep)

    n, rays = rep.n, len(rep.critical_values)
    assert con.n == n
    numbering = []
    for s, gen in enumerate(rep.generators):
        groups = {}
        for i, star in enumerate(con.stars, start=1):
            groups.setdefault(star[s], set()).add(i)
        cycles_with_fixed = [set(c) for c in gen.cycles()]
        cycles_with_fixed += [{i} for i in range(1, n + 1) if gen(i) == i]
        assert sorted(map(sorted, groups.values())) == sorted(map(sorted, cycles_with_fixed))
        assert all(con.vertex_ray[vid] == s for vid in groups)
        numbering += sorted(groups, key=lambda vid: min(groups[vid]))
    # numbered ray by ray, and by each cycle's smallest branch within a ray
    assert numbering == list(range(len(numbering)))
    # Riemann-Hurwitz for a polynomial (infinity an n-cycle): the sum over
    # rays of n - #cycles is n - 1, so S rays carry S n - (n - 1) vertices
    assert con.vertex_count() == rays * n - (n - 1)
    assert con.face_count_via_euler() == 1
    if name.startswith("x^"):
        assert con.vertex_count() == 1
        assert all(star == {0: 0} for star in con.stars)


def test_constellation_svg_deterministic(t6, t6_rep, config):
    con = build_constellation(t6_rep)
    svg1 = constellation_svg(con)
    svg2 = constellation_svg(con)
    assert svg1 == svg2
    assert svg1.startswith("<svg")
    assert svg1.count("<circle") == 6
