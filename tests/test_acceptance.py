"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines interleaved with the pytest output.
"""

import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from abelint import linalg
from abelint.cycles import (CycleVector, IntervalSystem, VanishingCycleCombo,
                            real_interval_to_coefficients)
from abelint.hyperelliptic import (OvalFamily, check_exth, integral_I,
                                   loop_integral, main4_limit_check)
from abelint.invariant import decompose_v_delta, psi_set, u_d_dimension_table
from abelint.monodromy import (Permutation, critical_values, divisor_lattice,
                               generated_group_order, monodromy)
from abelint.ratpoly import RatPoly, chebyshev, trace_poly
from abelint.solver import (cycle_residual, fiber_values, solve_moment_problem,
                            tracked_fiber_samples, z_delta_basis, z_vd_basis)

from conftest import QUARTIC_F, QUARTIC_PAPER_SPELLING, QUARTIC_SHIFTED, QUINTIC

X = RatPoly.x()
PAPER_V1 = CycleVector(6, (0, -1, -1, 0, 1, 1))
PAPER_V2 = CycleVector(6, (1, -1, 1, -1, 1, -1))


def report(num, ok, desc):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPT-{num:02d} {status} — {desc}")
    assert ok, f"criterion {num}: {desc}"


def sqrt3_over_2():
    with mp.workprec(200):
        return mp.sqrt(3) / 2


def t3_t2_generators(bound):
    gens = []
    for w in (X ** 2, chebyshev(3).normalized()):
        power = RatPoly.one()
        while power.is_constant() or power.degree <= bound:
            gens.append(power)
            power = power * w
            if not power.is_constant() and power.degree > bound:
                break
    return gens


def test_criterion_01_chebyshev_example_1(config):
    started = time.monotonic()
    t6 = chebyshev(6)
    rep = monodromy(t6, config)
    lattice = divisor_lattice(rep, t6)
    s = sqrt3_over_2()
    levels = real_interval_to_coefficients(
        t6, IntervalSystem.of((-s, s, 1)), rep, config)
    ok = len(levels) == 2
    for lc in levels:
        ok = ok and not lc.cycle.is_zero()
        ok = ok and lc.cycle.proportional_to(PAPER_V1)
    dec = decompose_v_delta(levels[0].cycle, lattice)
    ok = ok and dec.components == frozenset({6})
    basis = solve_moment_problem(t6, IntervalSystem.of((-s, s, 1)), 6,
                                 config, rep, lattice)
    gens = t3_t2_generators(6)
    ok = ok and basis.same_span(gens)
    # the generator list {1, T2, T3, T2^2, T2^3, T3^2} has rank 5 because
    # T3^2 = 2 T2^3 - (3/2) T2 + 1/2; the span equality is exact
    gen_rank = len(linalg.rref([[g.coeff(k) for k in range(7)] for g in gens])[1])
    ok = ok and basis.dim == gen_rank == 5
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    report(1, ok, f"T6 single interval: vector ∝ (0,-1,-1,0,1,1), V_δ = U_6, "
                  f"span == A(T3)+B(T2) exactly (rank {gen_rank}; the stated "
                  f"dimension 6 double-counts T3^2), runtime {elapsed:.1f}s")


def test_criterion_02_chebyshev_example_2(t6, t6_rep, t6_lattice, config):
    system = IntervalSystem.of(
        (-1, Fraction(-1, 2), 1),
        (Fraction(-1, 2), Fraction(1, 2), -1),
        (Fraction(1, 2), 1, 1),
    )
    levels = real_interval_to_coefficients(t6, system, t6_rep, config)
    ok = all(lc.cycle.proportional_to(PAPER_V2) and not lc.cycle.is_zero()
             for lc in levels)
    basis = solve_moment_problem(t6, system, 6, config, t6_rep, t6_lattice)
    vd2 = z_vd_basis(t6, 2, t6_lattice, 6)
    t6_norm = t6.normalized()
    expected = list(vd2.basis) + [RatPoly.one(), t6_norm]
    ok = ok and basis.same_span(expected)
    kernel_slice = z_vd_basis(t6, 2, t6_lattice, 2)
    ok = ok and kernel_slice.same_span(
        [X, X ** 2 - RatPoly.constant(Fraction(1, 2))])
    report(2, ok, "T6 three weighted intervals: alternating vector; space == "
                  "C[T6] + three-branch trace kernel; kernel slice {x, x^2-1/2}")


def test_criterion_03_lattice_fixture(t6_lattice):
    ok = t6_lattice.members == (1, 2, 3, 6)
    ok = ok and set(t6_lattice.covered_by(6)) == {2, 3}
    psi = {d: psi_set(d, t6_lattice).psi for d in t6_lattice.members}
    ok = ok and psi == {1: frozenset({6}), 2: frozenset({3}),
                        3: frozenset({2, 4}), 6: frozenset({1, 5})}
    dims = u_d_dimension_table(t6_lattice)
    ok = ok and sum(dims.values()) == 6
    report(3, ok, "D(G_T6) = {1,2,3,6}, 6 covers {2,3}, psi table exact, "
                  "sum of dims = 6")


def test_criterion_04_critical_values(config):
    with mp.workprec(200):
        tol = mp.mpf(10) ** -30
        cv_t6 = critical_values(chebyshev(6), config)
        ok = len(cv_t6) == 2
        ok = ok and abs(cv_t6[0] + 1) < tol and abs(cv_t6[1] - 1) < tol
        cv_q = critical_values(QUARTIC_SHIFTED, config)
        ok = ok and len(cv_q) == 2
        ok = ok and abs(cv_q[0] + 1) < tol
        ok = ok and abs(cv_q[1] + Fraction(3, 4)) < tol
        # the paper-spelled polynomial computes to {-1, 0}; discrepancy logged
        cv_p = critical_values(QUARTIC_PAPER_SPELLING, config)
        ok = ok and len(cv_p) == 2
        ok = ok and abs(cv_p[0] + 1) < tol and abs(cv_p[1]) < tol
    report(4, ok, "critical values: T6 -> {-1,+1}; ((x^2-1)/2)^2-1 -> "
                  "{-1,-3/4}; (x^2/2-1)^2-1 computes to {-1,0} (logged)")


def test_criterion_05_remark_fixture(config):
    ok = trace_poly(X ** 2, QUARTIC_F).value == RatPoly.constant(8)
    with mp.workprec(180):
        ts = [mp.mpf("-0.9") + mp.mpf("0.06") * j for j in range(12)]
        vals = [loop_integral(QUARTIC_F, X, t, 0, 4, mode="y_dx", config=config)
                for t in ts]
        n = len(ts)
        sx = sum(ts)
        sy = sum(vals)
        sxx = sum(t * t for t in ts)
        sxy = sum(t * v for t, v in zip(ts, vals))
        slope = (n * sxy - sx * sy) / (n * sxx - sx ** 2)
        intercept = (sy - slope * sx) / n
        fit_res = max(abs(v - (intercept + slope * t)) for t, v in zip(ts, vals))
        ok = ok and fit_res < mp.mpf(10) ** -8
        iprimes = [loop_integral(QUARTIC_F, X, t, 0, 4, mode="dx_over_2y",
                                 config=config) for t in ts[::4]]
        spread = max(abs(a - b) for a in iprimes for b in iprimes)
        ok = ok and spread < mp.mpf(10) ** -8
    report(5, ok, "remark fixture: sum x_i^2 == 8 exact; I(t) linear "
                  "(fit residual < 1e-8); I'(t) constant to 1e-8")


def test_criterion_06_main4_fixture(config):
    started = time.monotonic()
    combo = VanishingCycleCombo(2, {(1, 2): Fraction(1)})
    with mp.workprec(200):
        rep = main4_limit_check(QUARTIC_F, X, combo,
                                [mp.mpf("-0.01"), mp.mpf("-0.02")],
                                mp.sqrt(2), config)
        ok = rep.max_relative_deviation < mp.mpf(10) ** -6
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 60.0
    report(6, ok, f"main4 Morse fixture: J limit matches "
                  f"2π√(-z) d/dz ∫K within 1e-6 (got "
                  f"{mp.nstr(rep.max_relative_deviation, 3)}), "
                  f"runtime {elapsed:.1f}s")


def _random_reduced_cycle(rng, n):
    while True:
        vals = [rng.randint(-3, 3) for _ in range(n - 1)]
        vals.append(-sum(vals))
        if any(vals) and abs(vals[-1]) <= 6:
            return CycleVector(n, tuple(Fraction(c) for c in vals))


def test_criterion_07_oracle_equivalence(config, t6, t6_rep, t6_lattice,
                                         x6_rep, x6_lattice,
                                         quintic_rep, quintic_lattice):
    rng = random.Random(config.seed)
    fixtures = [
        (t6, t6_rep, t6_lattice, PAPER_V1),
        (t6, t6_rep, t6_lattice, PAPER_V2),
        (X ** 6, x6_rep, x6_lattice, _random_reduced_cycle(rng, 6)),
        (QUINTIC, quintic_rep, quintic_lattice, _random_reduced_cycle(rng, 5)),
    ]
    member_tol = mp.mpf(2) ** -32
    reject_tol = mp.mpf(2) ** -12
    ok = True
    for p, rep, lattice, v in fixtures:
        bound = config.resolved_degree_bound(p.degree)
        basis = z_delta_basis(p, v, bound, config, rep, lattice)
        fibers = tracked_fiber_samples(p, rep, config)
        for q in basis.basis:
            res = cycle_residual(v, fiber_values(q, fibers, config.precision_bits),
                                 config.precision_bits)
            ok = ok and res < member_tol
        rows = [[q.coeff(k) for k in range(bound + 1)] for q in basis.basis]
        produced = 0
        while produced < 50:
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                      for _ in range(bound + 1)]
            q = RatPoly(coeffs)
            if q.is_zero() or linalg.in_span(rows, [q.coeff(k)
                                                    for k in range(bound + 1)]):
                continue
            produced += 1
            res = cycle_residual(v, fiber_values(q, fibers, config.precision_bits),
                                 config.precision_bits)
            ok = ok and res > reject_tol
    report(7, ok, "oracle equivalence on 4 fixtures: members < 2^-32, "
                  "50 non-members each > 2^-12, no misclassification")


def test_criterion_08_monodromy_properties(config, t6_rep, x6_rep, quintic_rep):
    ok = generated_group_order(list(x6_rep.generators)) == 6
    ok = ok and x6_rep.generators[0] == Permutation.cycle(6)
    ok = ok and generated_group_order(list(t6_rep.generators)) == 12
    ok = ok and generated_group_order(list(quintic_rep.generators)) == 120
    doubled = config.doubled()
    for p, rep in [(chebyshev(6), t6_rep), (X ** 6, x6_rep),
                   (QUINTIC, quintic_rep)]:
        rep2 = monodromy(p, doubled)
        ok = ok and rep2.generators == rep.generators
        ok = ok and rep2.infinity == rep.infinity
    report(8, ok, "monodromy orders: x^6 cyclic(6), T6 order 12, quintic "
                  "S_5(120); doubling precision changes no permutation")


def _circle_moment(f, s, omega_kind, prec=200):
    """Trapezoidal contour moments over |x| = 1/2 around the pole at 0."""
    with mp.workprec(prec):
        n_nodes = 512
        total = mp.mpc(0)
        from abelint.numerics import eval_poly
        df = f.derivative()
        for j in range(n_nodes):
            theta = 2 * mp.pi * j / n_nodes
            x = mp.exp(mp.mpc(0, 1) * theta) / 2
            dx = mp.mpc(0, 1) * x
            fx = eval_poly(f, x, prec)
            if omega_kind == "dx_over_x":
                omega = 1 / x
            else:                      # f^2 df
                omega = fx ** 2 * eval_poly(df, x, prec)
            total += fx ** s * omega * dx
        return total * 2 * mp.pi / n_nodes


def test_criterion_09_theorem_yy_smoke(config):
    with mp.workprec(200):
        ok = True
        for s in range(10):
            m = _circle_moment(QUINTIC, s, "dx_over_x")
            ok = ok and abs(m) > mp.mpf(1)          # 2 pi |f(0)|^s >= 2 pi
        for s in range(10):
            m = _circle_moment(QUINTIC, s, "f2df")
            ok = ok and abs(m) < mp.mpf(10) ** -40
    report(9, ok, "theorem-yy smoke: dx/x moments over a pole-encircling "
                  "loop stay >= 2π; exact-form moments vanish numerically")


def test_criterion_10_exth_fixture(config):
    family = OvalFamily(f=QUARTIC_F, pair_index=1, t_min="-0.85", t_max="-0.15")
    witness = check_exth(family, X, config)
    ok = witness is not None and witness.r == X ** 2 and witness.exact
    with mp.workprec(180):
        for t in family.t_samples(16, 180):
            ok = ok and abs(integral_I(family, X, t, config)) < mp.mpf(10) ** -10
        none_witness = check_exth(family, RatPoly.one(), config)
        ok = ok and none_witness is None
        for t in family.t_samples(16, 180):
            ok = ok and abs(integral_I(family, RatPoly.one(), t, config)) \
                > mp.mpf("1e-3")
    report(10, ok, "exth fixture: k=x yields exact witness x^2 with I ≡ 0; "
                   "k=1 yields no witness and |I| > 1e-3")
