"""Quick tests of the benchmark's own checkers and tracer.

Run from the root of a checkout:  python3 perfbench/selftest.py
Each checker is shown a right answer, which it must accept, and a wrong
one (its negative control), which it must reject.  Exits 1 on any failure.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mpmath import mp  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402

FAILURES = []


def expect(name, cond):
    print(("ok   " if cond else "FAIL ") + name)
    if not cond:
        FAILURES.append(name)


def test_moments():
    t4 = [F(1), F(0), F(-8), F(0), F(8)]
    system = [(F(-1, 2), F(1, 2), F(1))]
    even = [[F(0)] * k + [F(1)] for k in (2, 4, 6, 8)]
    expect("moments: the even polynomials solve T4 on [-1/2, 1/2]",
           checks.check_moment_answer(t4, system, 8, even) == [])
    expect("moments: a basis missing x^8 is rejected",
           checks.check_moment_answer(t4, system, 8, even[:3]) != [])
    expect("moments: x^3 in the basis is rejected",
           checks.check_moment_answer(t4, system, 8, even[:3] + [[F(0)] * 3 + [F(1)]]) != [])
    expect("moments: Q = x has a nonzero moment",
           checks.moment_rejects(t4, system, 8, [F(0), F(1)]))


def test_fibers():
    p = [F(0), F(0), F(1)]                                  # x^2, base point 2
    fiber = checks.fiber_at(p, 2.0, [2 ** 0.5, -(2 ** 0.5)], 3.0)
    expect("fibers: labels follow the base fiber", fiber[0].real > 0 > fiber[1].real)
    expect("fibers: (1, 1) kills x",
           checks.max_cycle_residual([[0, 1]], [[1, 1]], [fiber], 2) < 1e-12)
    expect("fibers: (1, 1) does not kill x^2",
           checks.max_cycle_residual([[0, 0, 1]], [[1, 1]], [fiber], 2) > 0.5)
    u = checks.u_d_vectors(4, 4, [2])
    expect("fibers: U_4 of n = 4 is orthogonal to V_2",
           len(u) == 2 and checks.orthogonal_to_classes(u, 4, 2))
    u = checks.u_d_vectors(6, 6, [2, 3])
    expect("fibers: U_6 of n = 6 has dimension 2 and is orthogonal to V_2 and V_3",
           len(u) == 2 and checks.orthogonal_to_classes(u, 6, 2)
           and checks.orthogonal_to_classes(u, 6, 3))


def test_quadrature():
    with mp.workprec(256):
        val, _ = checks.oval_reference([F(1), F(0), F(-1)], [F(1)], F(0), 0, "I")
        expect("quadrature: closed form gives pi for the unit disc",
               abs(val - mp.pi) < mp.mpf(2) ** -240)
        val, err = checks.oval_reference([F(1), F(0), F(0), F(0), F(-1)], [F(1)],
                                         F(0), 0, "I")
        exact = mp.beta(mp.mpf(1) / 4, mp.mpf(3) / 2)
        expect("quadrature: Gauss-Legendre matches B(1/4, 3/2) for 1 - x^4",
               abs(val - exact) < mp.mpf(2) ** -200 and err < mp.mpf(2) ** -160)
        expect("quadrature: a value off by 2^-40 is rejected",
               checks.relative_deviation(exact * (1 + mp.mpf(2) ** -40), exact, exact)
               > mp.mpf(2) ** -64)


def test_forms_and_witnesses():
    f = [F(1), F(0), F(-1), F(0), F(1, 4)]                  # (x^2/2 - 1)^2
    dx, dy = {(0, 1): F(1)}, {(1, 0): F(1)}                 # d(xy)
    expect("forms: d(xy) = dA with A = xy",
           checks.form_matches(dx, dy, [], {(1, 1): F(1)}, {}, f))
    expect("forms: adding k = 1 is rejected",
           not checks.form_matches(dx, dy, [F(1)], {(1, 1): F(1)}, {}, f))
    ts = [F(-1, 2), F(-1, 4)]
    expect("exth: x^2 is a witness for k = x on the even quartic",
           checks.exth_witness_holds(f, [F(0), F(1)], [F(0), F(0), F(1)], ts, 1))
    expect("exth: x^2 + x is rejected",
           not checks.exth_witness_holds(f, [F(0), F(1)], [F(0), F(1), F(1)], ts, 1))


def test_harness():
    vals = list(range(1, 51))
    expect("tail: ten values lie above the tail of fifty",
           sum(v > harness.tail_percentile(vals) for v in vals) == 10)
    expect("tail: below forty values it is the largest",
           harness.tail_percentile(vals[:20]) == 20)
    clock = harness.RefClock()
    clock.raw_s, clock.ref_s, clock.inner_s = [2.0, 3.0], [1.0, 3.0, 1.0], [[], [2.0]]
    expect("clock: a problem is divided by the mean reference around it",
           clock.problem_refs() == [1.0, 1.5])
    clock.start()
    clock.time(lambda: [i * i for i in range(15 * 10 ** 6)])
    expect("clock: the reference is sampled during a long problem",
           len(clock.inner_s[0]) >= 1 and len(clock.problem_refs()) == 1)
    expect("bits: zero deviation is capped", harness.bits(0, 64) == 64.0)


def test_tracer():
    import importlib
    from abelint import Config, RatPoly, monodromy
    from tracer import Tracer
    mono = importlib.import_module("abelint.monodromy")
    nums = importlib.import_module("abelint.numerics")
    originals = (mono.track_fiber, nums.eval_poly, mp.quad)
    tr = Tracer()
    tr.install()
    try:
        tr.begin_problem(0)
        cfg = Config()
        p = RatPoly([0, 0, 1])
        rep = mono.monodromy(p, cfg)
        path = [rep.base_point, rep.base_point * 2]
        mono.track_fiber(p, path, list(rep.base_fiber), cfg)
        mono.track_fiber(p, path, list(rep.base_fiber), cfg)
        mp.quad(lambda x: x, [0, 1])
    finally:
        tr.uninstall()
    m = tr.metrics(0.0)
    expect("tracer: monodromy is counted once", m["monodromy.monodromy.calls"]["value"] == 1)
    expect("tracer: eval_poly is counted inside tracking",
           m["numerics.eval_poly.calls"]["value"] > 100)
    expect("tracer: the repeated track_fiber call is a repeat",
           m["monodromy.track_fiber.repeat_calls"]["value"] == 1)
    expect("tracer: mp.quad is counted", m["mpmath.quad.calls"]["value"] == 1)
    span = [s for s in tr.spans if s["name"] == "monodromy.monodromy."][0]
    expect("tracer: self time excludes wrapped callees",
           0 <= m["monodromy.monodromy.self_s"]["value"] < span["end"] - span["start"])
    expect("tracer: spans share the problem id", all(s["problem"] == 0 for s in tr.spans))
    expect("tracer: uninstall restores every function",
           (mono.track_fiber, nums.eval_poly, mp.quad) == originals
           and monodromy is mono.monodromy)


if __name__ == "__main__":
    for test in (test_moments, test_fibers, test_quadrature, test_forms_and_witnesses,
                 test_harness, test_tracer):
        test()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
