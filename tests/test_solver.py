import functools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from abelint import linalg, solver
from abelint.config import COUNT_LIMIT, Config
from abelint.cycles import CycleVector, IntervalSystem
from abelint.errors import ConsistencyError, InputError
from abelint.invariant import decompose_v_delta, pairing_is_zero
from abelint.monodromy import (DivisorLattice, divisor_lattice, monodromy,
                               route, standoffs, track_fiber)
from abelint.ratpoly import (Decomposition, RatPoly, chebyshev, compose,
                             decompose_all, power_sums, trace_poly, w_adic)
from abelint.solver import (_LatticeSpans, _pullback_span_rows, _sample_points,
                            _trace_rows, classify, common_right_factor,
                            cycle_residual, fiber_values, puiseux,
                            solve_moment_problem, tracked_fiber_samples,
                            vanishing_basis, verify_vanishing_numeric,
                            z_delta_basis, z_ud_basis, z_vd_basis)

from conftest import QUINTIC, wide_fractions

X = RatPoly.x()
GOLDEN = Path(__file__).parent / "golden"
PAPER_V1 = CycleVector(6, (0, -1, -1, 0, 1, 1))
PAPER_V2 = CycleVector(6, (1, -1, 1, -1, 1, -1))


def sqrt3_over_2():
    with mp.workprec(200):
        return mp.sqrt(3) / 2


def t3_t2_span(bound):
    """All A(T_3) + B(T_2) of degree <= bound."""
    polys = []
    t2n, t3n = X ** 2, chebyshev(3).normalized()
    for w in (t3n, t2n):
        power = RatPoly.one()
        while power.is_constant() or power.degree <= bound:
            polys.append(power)
            power = power * w
            if not power.is_constant() and power.degree > bound:
                break
    return polys


# ---------------------------------------------------------------------------
# Z_{V_d}
# ---------------------------------------------------------------------------

def test_z_vd_t6_d2_bound2(t6, t6_lattice):
    basis = z_vd_basis(t6, 2, t6_lattice, 2)
    assert basis.same_span([X, X ** 2 - RatPoly.constant(Fraction(1, 2))])
    assert all(tag == "trace-kernel(2)" for tag in basis.provenance)


def test_z_vd_t6_d6_trivial(t6, t6_lattice):
    basis = z_vd_basis(t6, 6, t6_lattice, 8)
    assert basis.dim == 0


def test_z_vd_t6_d1(t6, t6_lattice):
    basis = z_vd_basis(t6, 1, t6_lattice, 3)
    assert basis.contains(X)                    # odd, full trace vanishes
    assert not basis.contains(RatPoly.one())    # constants never do


def test_z_vd_membership_via_oracle(t6, t6_lattice, t6_rep, config):
    # every basis element also vanishes numerically on a V_2-compatible cycle
    basis = z_vd_basis(t6, 2, t6_lattice, 6)
    for q in basis.basis:
        chk = verify_vanishing_numeric(t6, PAPER_V2, q, config=config, rep=t6_rep)
        assert chk.vanishes, f"{q} residual {chk.residual}"


# ---------------------------------------------------------------------------
# Z_{U_d}
# ---------------------------------------------------------------------------

def test_z_ud_t6_top(t6, t6_lattice):
    basis = z_ud_basis(t6, 6, t6_lattice, 6)
    # T_3^2 = 2 T_2^3 - (3/2) T_2 + 1/2, so the span has dimension 5
    assert basis.dim == 5
    assert basis.same_span(t3_t2_span(6))
    for gen in (chebyshev(2), chebyshev(3), chebyshev(2) ** 2,
                chebyshev(2) ** 3, chebyshev(3) ** 2):
        assert basis.contains(gen)
    assert not basis.contains(X ** 3)


def test_z_ud_t6_d2(t6, t6_lattice):
    basis = z_ud_basis(t6, 2, t6_lattice, 6)
    # Z_{V_2} + C[T_6] at bound 6: the trace kernel plus {1, T_6}
    vd = z_vd_basis(t6, 2, t6_lattice, 6)
    expected = list(vd.basis) + [RatPoly.one(), chebyshev(6).normalized()]
    assert basis.same_span(expected)
    assert basis.contains(chebyshev(6))
    assert basis.contains(X)
    assert basis.contains(X ** 2)       # = (x^2 - 1/2) + (1/2) * 1
    assert not basis.contains(X ** 3)   # odd part is spanned by x and x^5-...


def test_z_ud_indecomposable_top(quintic_lattice):
    basis = z_ud_basis(QUINTIC, 5, quintic_lattice, 10)
    w = QUINTIC.normalized()
    assert basis.same_span([RatPoly.one(), w, w ** 2])


# ---------------------------------------------------------------------------
# Z_delta
# ---------------------------------------------------------------------------

def test_z_delta_paper_example_1(t6, t6_rep, t6_lattice, config):
    basis = z_delta_basis(t6, PAPER_V1, 6, config, t6_rep, t6_lattice)
    assert basis.same_span(t3_t2_span(6))
    assert not basis.contains(X)
    assert not basis.contains(X ** 3)


def test_z_delta_paper_example_2(t6, t6_rep, t6_lattice, config):
    basis = z_delta_basis(t6, PAPER_V2, 6, config, t6_rep, t6_lattice)
    ud2 = z_ud_basis(t6, 2, t6_lattice, 6)
    assert basis.same_span(ud2.basis)


def test_z_delta_zero_cycle_full_space(t6, t6_rep, t6_lattice, config):
    basis = z_delta_basis(t6, CycleVector.zero(6), 4, config, t6_rep, t6_lattice)
    assert basis.dim == 5


def test_z_delta_all_ones(t6, t6_rep, t6_lattice, config):
    # non-reduced full-fiber cycle: the total-trace kernel; no pullback
    # R(T_6) can belong because its integral is 6 R(z)
    basis = z_delta_basis(t6, CycleVector.ones(6), 8, config, t6_rep, t6_lattice)
    vd1 = z_vd_basis(t6, 1, t6_lattice, 8)
    assert basis.same_span(vd1.basis)
    assert not basis.contains(chebyshev(6))
    assert not basis.contains(RatPoly.one())


def test_z_delta_monotone_in_bound(t6, t6_rep, t6_lattice, config):
    small = z_delta_basis(t6, PAPER_V1, 4, config, t6_rep, t6_lattice)
    large = z_delta_basis(t6, PAPER_V1, 8, config, t6_rep, t6_lattice)
    for q in small.basis:
        assert large.contains(q)


def test_contains_reads_the_basis_without_elimination(t6, t6_lattice, monkeypatch):
    # a SolutionBasis is canonical rref already, so membership runs no
    # elimination; the answers match in_span's, which eliminates
    basis = z_ud_basis(t6, 2, t6_lattice, 12)
    rows = [[q.coeff(k) for k in range(13)] for q in basis.basis]
    probes = [X, X ** 3, RatPoly.one(), chebyshev(6), chebyshev(6) + X ** 5,
              X ** 2 - RatPoly.constant(Fraction(1, 2)), X ** 13]
    expected = [q.degree <= 12 and linalg.in_span(rows, [q.coeff(k) for k in range(13)])
                for q in probes]
    calls = []
    monkeypatch.setattr(linalg, "echelon", lambda rows: calls.append(rows))
    assert [basis.contains(q) for q in probes] == expected
    assert True in expected and False in expected
    assert calls == []


def reference_trace_matrix(w, bound):
    """Entry (j, e): the constant trace along the fiber of w of the j-th
    W-adic digit of x^e."""
    rows = [[Fraction(0)] * (bound + 1) for _ in range(bound // w.degree + 1)]
    for e in range(bound + 1):
        for j, part in enumerate(w_adic(RatPoly.monomial(e), w)):
            trace = trace_poly(part, w).value
            assert trace.is_constant()
            rows[j][e] = trace.coeff(0)
    return rows


def trace_kernel(w, bound):
    """Integer echelon of the Q of degree <= bound whose trace along the
    fiber of w vanishes identically: the kernel of the trace matrix."""
    return linalg.kernel_echelon(_trace_rows(w, bound, power_sums(w, bound)), bound + 1)


def reference_power_sums(w, count):
    """Power sums of the roots of w(x) - z by Newton's identities on
    Fractions, with no scaling: p_k = -(c_1 p_(k-1) + ... + k c_k), c_m
    linear in z."""
    m, lc = w.degree, w.lc
    c = [w.coeff(m - i) / lc for i in range(m + 1)]
    sums = [RatPoly.constant(m)]
    for k in range(1, count + 1):
        acc = RatPoly.zero()
        for i in range(1, min(k, m) + 1):
            ci = RatPoly.of(c[i], -1 / lc) if i == m else RatPoly.constant(c[i])
            acc = acc - ci * (sums[k - i] if i < k else RatPoly.constant(k))
        sums.append(acc)
    return sums


def power_sum_polys(w, count):
    """The Fraction view p_e = P_e / D^e of the integer `power_sums`."""
    scale, sums = power_sums(w, count)
    return [RatPoly(Fraction(a, scale ** e) for a in ps) for e, ps in enumerate(sums)]


small_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
nonzero_rationals = small_rationals.filter(lambda c: c != 0 and c != 1)
# w of degree 1 to 5, not monic in general, with small and wide rationals
# (70-bit denominators): the D^e scaling of `power_sums` runs on them
mixed_rationals = st.one_of(small_rationals, wide_fractions)
wide_polys = st.integers(1, 5).flatmap(
    lambda m: st.builds(lambda lower, lc: RatPoly(lower + [lc]),
                        st.lists(mixed_rationals, min_size=m, max_size=m),
                        mixed_rationals.filter(bool)))


@settings(max_examples=100, deadline=None)
@given(wide_polys, st.integers(0, 30))
def test_trace_matrix_from_power_sums(w, bound):
    # Tr_w(x^e) = p_e(z), so row j of the trace matrix is the z^j
    # coefficients of the power sums p_0..p_bound
    sums = power_sum_polys(w, bound)
    assert sums == reference_power_sums(w, bound)
    # a table extended from a smaller count is the table computed at once
    assert power_sums(w, bound, power_sums(w, bound // 2)[1]) == power_sums(w, bound)
    table = [[p.coeff(j) for p in sums] for j in range(bound // w.degree + 1)]
    reference = reference_trace_matrix(w, bound)
    assert table == reference
    assert linalg.to_fractions(*trace_kernel(w, bound)) == linalg.rref(
        linalg.nullspace(reference, bound + 1))[0]


@settings(max_examples=40, deadline=None)
@given(wide_polys, st.integers(0, 24))
def test_trace_kernel_closed_form(w, bound):
    # Tr_w(W^i q) = z^i Tr_w(q), and x^e - p_e/d has trace 0 for e < d = deg w,
    # where p_e is a constant: the W^i (x^e - p_e/d) with i d + e <= bound
    # span the trace kernel
    d = w.degree
    sums = reference_power_sums(w, d - 1)
    rows = []
    for i in range(bound // d + 1):
        for e in range(1, min(d - 1, bound - i * d) + 1):
            q = w ** i * (RatPoly.monomial(e) - sums[e] / d)
            rows.append([q.coeff(k) for k in range(bound + 1)])
    assert linalg.rref(rows)[0] == linalg.to_fractions(*trace_kernel(w, bound))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(
           lambda m: st.tuples(st.lists(small_rationals, min_size=m, max_size=m),
                               nonzero_rationals)),
       st.integers(0, 30))
def test_integer_pullback_rows_span_the_pullback_ring(w_data, bound):
    # the rows of 1, W, W^2, ... with W = w scaled to integers span the same
    # space as the powers of w itself
    lower, lc = w_data
    w = RatPoly(lower + [lc])
    rows = _pullback_span_rows(w, bound)
    assert all(type(c) is int and len(row) == bound + 1
               for row in rows for c in row)
    powers, power = [], RatPoly.one()
    while power.degree <= bound:
        powers.append([power.coeff(k) for k in range(bound + 1)])
        power = power * w
    assert len(rows) == len(powers)
    assert linalg.rref(rows)[0] == linalg.rref(powers)[0]


def test_trace_kernel_is_one_elimination(monkeypatch):
    calls = []
    echelon = linalg.echelon

    def counted(rows):
        calls.append(len(rows))
        return echelon(rows)

    # at most one exact elimination, and none when the rank test modulo the
    # prime proves the kernel zero: x^3 at bound 0 and x at bound 9
    monkeypatch.setattr(linalg, "echelon", counted)
    for w, bound, eliminations in ((chebyshev(6), 24, 1), (X ** 2 + X / 3, 17, 1),
                                   (X ** 3, 0, 0), (X, 9, 0)):
        calls.clear()
        kernel = trace_kernel(w, bound)
        assert len(calls) == eliminations, (w, bound)
        assert (kernel == ([], [])) == (eliminations == 0), (w, bound)


def exact_lattice(p):
    """The divisor lattice of p read off its decompositions alone, as
    `divisor_lattice` builds it, without the numeric check of its blocks."""
    witness = {dec.left.degree: dec for dec in decompose_all(p)}
    members = tuple(sorted(witness))
    covers = {d: tuple(e for e in members if e < d and d % e == 0
                       and not any(e < l < d and l % e == 0 and d % l == 0
                                   for l in members))
              for d in members}
    return DivisorLattice(n=p.degree, members=members, covers=covers, witness=witness)


def stacked_ud_span(lattice, d, bound):
    """Z_{U_d} as one elimination of the trace-kernel rows of d and the
    pullback rows of the witnesses d covers."""
    rows = trace_kernel(lattice.witness[d].right, bound)[0] + [
        row for dt in lattice.covered_by(d)
        for row in _pullback_span_rows(lattice.witness[dt].right, bound)]
    return linalg.echelon(rows)


def stacked_vanishing_rows(cycles, lattice, bound):
    """The kernel of the annihilators of the stacked Z_{U_d}, d over the
    components of the cycles, with each span's first holder as its tag."""
    comps = set().union(*(decompose_v_delta(v, lattice).components for v in cycles))
    conditions = [row for d in sorted(comps) for row in linalg.nullspace(
        linalg.to_fractions(*stacked_ud_span(lattice, d, bound)), bound + 1)]
    rows = linalg.rref(linalg.nullspace(conditions, bound + 1))[0]
    spans = [(f"trace-kernel({d})", trace_kernel(lattice.witness[d].right, bound))
             for d in lattice.members]
    spans += [(f"pullback({lattice.witness[d].right})",
               linalg.echelon(_pullback_span_rows(lattice.witness[d].right, bound)))
              for d in lattice.members]
    tags = tuple(next((tag for tag, span in spans if linalg.in_echelon(
        *span, linalg.integer_rows([row])[0])), "mixed") for row in rows)
    return rows, tags


def small_poly(degree):
    return st.builds(lambda lower, lc: RatPoly(lower + [lc]),
                     st.lists(small_rationals, min_size=degree, max_size=degree),
                     small_rationals.filter(bool))


# A o W (o V) of degree <= 12, whose lattices are chains, and three whose
# lattices are not: x^6, T_6 and T_12
composites = st.one_of(
    st.tuples(st.integers(2, 3), st.integers(2, 3), st.integers(1, 2)).filter(
        lambda degs: degs[0] * degs[1] * degs[2] <= 12).flatmap(
        lambda degs: st.builds(lambda a, w, v: compose(compose(a, w), v),
                               *(small_poly(k) for k in degs))),
    st.sampled_from([X ** 6, chebyshev(6), chebyshev(12)]))


@settings(max_examples=60, deadline=None)
@given(composites, st.integers(0, 26), st.data())
def test_ud_conditions_match_the_stacked_spans(p, bound, data):
    # Z_{U_d} as the preimage under Tr_w of the covered pullback span in z
    # equals the old stacked elimination, for every member of the lattice,
    # and so does the vanishing basis of random cycles with its tags
    lattice = exact_lattice(p)
    spans = _LatticeSpans(lattice, bound)
    for d in lattice.members:
        got = linalg.kernel_echelon(spans.ud_conditions(d), bound + 1)
        assert got == stacked_ud_span(lattice, d, bound), (p, bound, d)
    n = p.degree
    cycles = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n)
                                .filter(any).map(lambda v: CycleVector(n, v)),
                                min_size=1, max_size=2))
    got = vanishing_basis(cycles, lattice, bound)
    rows, tags = stacked_vanishing_rows(cycles, lattice, bound)
    assert [[q.coeff(k) for k in range(bound + 1)] for q in got.basis] == rows
    assert got.provenance == tags


def test_witness_not_a_polynomial_in_the_finer_witness():
    # a lattice whose witness of 1, x^4 + x, is not a polynomial in the
    # witness of 2, x^2: the w-adic digit x is not a constant
    lattice = DivisorLattice(
        n=4, members=(1, 2, 4), covers={1: (), 2: (1,), 4: (2,)},
        witness={1: Decomposition(X, X ** 4 + X), 2: Decomposition(X ** 2, X ** 2),
                 4: Decomposition(X ** 4 + X, X)})
    with pytest.raises(ConsistencyError, match="witness of 1 .* witness of 2"):
        z_ud_basis(X ** 4 + X, 2, lattice, 8)


TOWER = compose(compose(X ** 2 + X, X ** 2 - X), X ** 2 + X / 2)


def test_ud_basis_at_n_is_one_elimination(monkeypatch):
    # the witness of n is x, whose trace matrix is the identity, so Z_{U_n}
    # is the covered pullback span S: one echelon before the tags, and the
    # stacked elimination's answer
    calls = []
    echelon, provenance = linalg.echelon, solver._provenance
    monkeypatch.setattr(linalg, "echelon",
                        lambda rows: calls.append(len(rows)) or echelon(rows))
    monkeypatch.setattr(solver, "_provenance",
                        lambda rows, cands: calls.append("tags") or provenance(rows, cands))
    for p, bound in ((X ** 8, 24), (TOWER, 40), (chebyshev(6), 40)):
        lattice = exact_lattice(p)
        calls.clear()
        basis = z_ud_basis(p, p.degree, lattice, bound)
        assert calls.index("tags") == 1, (p, bound)
        assert linalg.integer_rows([[q.coeff(k) for k in range(bound + 1)]
                                    for q in basis.basis]) == \
            stacked_ud_span(lattice, p.degree, bound)[0], (p, bound)


def test_one_trace_matrix_per_witness(monkeypatch):
    # a call at a smaller bound reads a corner of the trace matrix the
    # lattice holds at its largest bound: one _trace_rows per witness
    lattice, bounds = exact_lattice(TOWER), (40, 24, 12)
    fresh = {(d, bound): z_vd_basis(TOWER, d, exact_lattice(TOWER), bound)
             for d in lattice.members for bound in bounds}
    calls = []
    trace_rows = solver._trace_rows
    monkeypatch.setattr(solver, "_trace_rows",
                        lambda *args: calls.append(args[1]) or trace_rows(*args))
    for d in lattice.members:
        calls.clear()
        for bound in bounds:
            assert z_vd_basis(TOWER, d, lattice, bound) == fresh[d, bound], (d, bound)
        assert calls == [40], d


def test_warm_pullback_tags_need_no_elimination(monkeypatch):
    # z_ud_basis at n on T6 is one echelon of the covered pullback span; its
    # rows are tagged against the powers of the witnesses of 2 and 3 that
    # the lattice holds, with no elimination
    lattice = exact_lattice(chebyshev(6))
    z_ud_basis(chebyshev(6), 6, lattice, 40)
    calls = []
    echelon = linalg.echelon
    monkeypatch.setattr(linalg, "echelon",
                        lambda rows: calls.append(len(rows)) or echelon(rows))
    basis = z_ud_basis(chebyshev(6), 6, lattice, 40)
    assert len(calls) == 1
    assert set(basis.provenance) == {"pullback(x^2)", "pullback(x^3 - 3/4*x)"}
    monkeypatch.undo()
    assert basis == z_ud_basis(chebyshev(6), 6, exact_lattice(chebyshev(6)), 40)


@settings(max_examples=80, deadline=None)
@given(composites, st.integers(0, 40), st.data())
def test_top_down_pullback_test_matches_the_echelon(p, bound, data):
    # W^j has degree exactly j m, so reducing a row from the top against the
    # powers decides membership in span{1, W, ..., W^(bound // m)} as the
    # echelon of the padded rows does: members are integer combinations of
    # the powers, non-members a member plus c x^k with m not dividing k
    w = data.draw(st.sampled_from([dec.right for dec in decompose_all(p)]))
    m, rows = w.degree, _pullback_span_rows(w, bound)
    span = linalg.echelon(rows)
    member_of = functools.partial(solver._in_pullback, rows, m)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                                max_size=len(rows)))
    row = [sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(bound + 1)]
    assert member_of(row) and linalg.in_echelon(*span, row)
    off = [k for k in range(bound + 1) if k % m]
    if off:
        row[data.draw(st.sampled_from(off))] += data.draw(st.integers(-3, 3).filter(bool))
        assert not member_of(row) and not linalg.in_echelon(*span, row)


def test_lattice_tables_are_reused(monkeypatch):
    # a second call on one lattice at the same or a smaller bound computes
    # no power sums and no w-adic digits; a larger bound extends only the
    # power sums of the witness it reads, and no h_dt
    calls = []
    for name in ("power_sums", "w_adic"):
        real = getattr(solver, name)
        monkeypatch.setattr(solver, name, lambda w, *rest, real=real, name=name:
                            calls.append((name, w)) or real(w, *rest))
    lattice = exact_lattice(TOWER)
    v = CycleVector(8, (1, -1, 0, 2, 0, 0, -1, 1))
    z_delta_basis(TOWER, v, 24, rep=object(), lattice=lattice)
    for d in lattice.members:
        z_ud_basis(TOWER, d, lattice, 24)
        z_vd_basis(TOWER, d, lattice, 24)
    assert {name for name, _ in calls} == {"power_sums", "w_adic"}
    calls.clear()
    for bound in (24, 12, 0):
        z_delta_basis(TOWER, v, bound, rep=object(), lattice=lattice)
        for d in lattice.members:
            z_ud_basis(TOWER, d, lattice, bound)
            z_vd_basis(TOWER, d, lattice, bound)
    assert calls == []
    for d in lattice.members:
        z_vd_basis(TOWER, d, lattice, 40)
        assert calls == [("power_sums", lattice.witness[d].right)], d
        z_ud_basis(TOWER, d, lattice, 40)
        assert calls == [("power_sums", lattice.witness[d].right)], d
        calls.clear()


@settings(max_examples=30, deadline=None)
@given(composites, st.lists(st.integers(0, 30), min_size=1, max_size=4), st.data())
def test_lattice_tables_give_the_fresh_bases(p, bounds, data):
    # one lattice called at rising and falling bounds gives the bases and
    # tags of a fresh lattice each time, and stays equal to a fresh one;
    # z_delta_basis reads the lattice alone, so the rep is a placeholder
    lattice, n = exact_lattice(p), p.degree
    v = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
                  .map(lambda v: CycleVector(n, v)))
    for bound in bounds:
        for d in lattice.members:
            for basis in (z_ud_basis, z_vd_basis):
                assert basis(p, d, lattice, bound) == basis(p, d, exact_lattice(p), bound)
        assert z_delta_basis(p, v, bound, rep=object(), lattice=lattice) == \
            z_delta_basis(p, v, bound, rep=object(), lattice=exact_lattice(p))
    assert lattice == exact_lattice(p)
    assert repr(lattice) == repr(exact_lattice(p))


def _basis_json(sb):
    return {"basis": [[str(c) for c in q.coeffs] for q in sb.basis],
            "provenance": list(sb.provenance)}


def test_exact_bases_golden(config):
    """Bases and provenance of z_delta/z_ud/z_vd on T6, x^8 and the tower
    (x^2+x)(x^2-x)(x^2+x/2) at bound 24, as the Fraction Gauss-Jordan and
    per-monomial trace code wrote them."""
    golden = json.loads((GOLDEN / "exact_bases.json").read_text())
    bound = golden["degree_bound"]
    for entry in golden["polynomials"]:
        p = RatPoly(entry["p"])
        rep = monodromy(p, config)
        lattice = divisor_lattice(rep, p)
        assert sorted(lattice.members) == entry["members"], entry["name"]
        v = CycleVector(p.degree, entry["cycle"])
        got = z_delta_basis(p, v, bound, config, rep, lattice)
        assert _basis_json(got) == entry["z_delta"], entry["name"]
        for d in entry["members"]:
            assert _basis_json(z_ud_basis(p, d, lattice, bound)) == entry["z_ud"][str(d)]
            assert _basis_json(z_vd_basis(p, d, lattice, bound)) == entry["z_vd"][str(d)]


# ---------------------------------------------------------------------------
# Puiseux expansions
# ---------------------------------------------------------------------------

def test_puiseux_exact_square():
    exp = puiseux(X, X ** 2, 8)
    assert exp.exact
    assert exp.coeffs == {-1: Fraction(1)}


def test_puiseux_binomial_oracle():
    # q=x, p=x^2+1: x = (z-1)^{1/2} = z^{1/2} * sum binom(1/2,j) (-1/z)^j
    exp = puiseux(X, X ** 2 + 1, 9)
    assert exp.exact

    def binom_half(j):
        num = Fraction(1)
        for i in range(j):
            num *= Fraction(1, 2) - i
        fact = 1
        for i in range(1, j + 1):
            fact *= i
        return num / fact

    for j in range(5):
        k = 2 * j - 1
        expected = binom_half(j) * (-1) ** j
        assert exp.s(k) == expected
    assert exp.s(0) == 0 and exp.s(2) == 0


def test_puiseux_numeric_matches_exact():
    p = X ** 3 - 2 * X + 1
    q = X ** 2 + X
    ex = puiseux(q, p, 7, exact=True)
    nu = puiseux(q, p, 7, exact=False)
    with mp.workprec(200):
        for k in range(ex.k_min, 8):
            want = ex.s(k)
            got = nu.s(k)
            assert abs(mp.mpf(want.numerator) / want.denominator - got) < mp.mpf(10) ** -40


def test_puiseux_nonmonic_rescaling():
    # T_2 = 2x^2 - 1 has lc 2, not a square: falls back to numeric
    exp = puiseux(X, chebyshev(2), 5)
    assert not exp.exact
    # but 4x^2 rescales exactly: lambda = 1/2
    exp2 = puiseux(X, RatPoly.of(0, 0, 4), 5, exact=True)
    assert exp2.exact
    assert exp2.coeffs == {-1: Fraction(1, 2)}


@pytest.mark.parametrize("root", [10 ** 30 + 7, 10 ** 200])
def test_puiseux_exact_for_huge_leading_coefficients(root):
    # lc = root^2 is a perfect square beyond float range or precision
    exp = puiseux(X, RatPoly.of(1, 0, root ** 2), 4)
    assert exp.exact
    assert exp.s(-1) == Fraction(1, root)
    assert puiseux(X, RatPoly.of(1, 0, root ** 2 + 1), 4).exact is False


@pytest.mark.parametrize("v,cases", [
    (PAPER_V1, [(chebyshev(2), True), (chebyshev(3), True), (X, False),
                (compose(chebyshev(2), chebyshev(2)), True)]),
    (PAPER_V2, [(chebyshev(6), True), (X, True),
                (X ** 2 - RatPoly.constant(Fraction(1, 2)), True),
                (chebyshev(2), True),       # = 2(x^2 - 1/2)
                (X ** 3, False), (X ** 5, False)]),
])
def test_puiseux_pairing_criterion(t6, v, cases):
    # membership in Z_delta shows up as the joint vanishing of (v,w_k) s_k
    # for all k, in both directions
    k_max = 24
    for q, member in cases:
        exp = puiseux(q, t6, k_max, exact=False)
        with mp.workprec(200):
            tol = mp.mpf(10) ** -30
            ok = True
            for k in range(exp.k_min, k_max + 1):
                idx = ((k - 1) % 6) + 1
                if not pairing_is_zero(v, idx) and abs(exp.s(k)) > tol:
                    ok = False
                    break
        assert ok == member, f"{q}"


# ---------------------------------------------------------------------------
# numeric oracle
# ---------------------------------------------------------------------------

def test_oracle_member_vs_nonmember(t6, t6_rep, config):
    chk = verify_vanishing_numeric(t6, PAPER_V1, chebyshev(3),
                                   config=config, rep=t6_rep)
    assert chk.vanishes
    assert chk.residual < mp.mpf(10) ** -25
    chk2 = verify_vanishing_numeric(t6, PAPER_V1, X, config=config, rep=t6_rep)
    assert not chk2.vanishes
    assert chk2.residual > mp.mpf(2) ** -12


def test_oracle_zero_inputs(t6, t6_rep, config):
    assert verify_vanishing_numeric(t6, CycleVector.zero(6), X ** 3,
                                    config=config, rep=t6_rep).vanishes
    assert verify_vanishing_numeric(t6, PAPER_V1, RatPoly.zero(),
                                    config=config, rep=t6_rep).vanishes


def test_pullback_identity_cco(t6, t6_rep, config):
    # p = A(W) with all W-fiber cycles reduced: every B(W) vanishes
    w = chebyshev(3).normalized()
    for b in (X, X ** 2, X ** 3 - 2 * X):
        q = compose(b, w)
        chk = verify_vanishing_numeric(t6, PAPER_V1, q, config=config, rep=t6_rep)
        assert chk.vanishes


OCTIC = X ** 8 - 3 * X ** 5 + X ** 2 - X + RatPoly.constant(Fraction(1, 3))
ORACLE_CASES = ["t6", "octic"] + [f"seeded-{d}" for d in range(4, 9)]


@functools.lru_cache(maxsize=None)
def _oracle_case(name: str):
    """(p, rep, reference fibers): the oracle's sample fibers tracked by
    `track_fiber` along the same `route` paths, at the default Config."""
    if name == "t6":
        p = chebyshev(6)
    elif name == "octic":
        p = OCTIC
    else:
        degree = int(name.split("-")[1])
        rng = random.Random(degree)
        p = RatPoly([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(degree)] + [Fraction(1)])
    config = Config()
    rep = monodromy(p, config)
    with mp.workprec(config.precision_bits + 32):
        cvs = list(rep.critical_values)
        blockers = list(zip(cvs, standoffs(cvs, abs(rep.base_point))))
        fibers = [track_fiber(p, route(rep.base_point, z, blockers),
                              list(rep.base_fiber), config)
                  for z in _sample_points(rep, blockers, config.samples,
                                          config.seed)]
    return p, rep, fibers


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_oracle_fibers_match_track_fiber(name, config):
    """The two-tier oracle fibers agree with `track_fiber`'s index by index
    to the Newton tolerance 2^-(prec+8) relative."""
    p, rep, reference = _oracle_case(name)
    fibers = tracked_fiber_samples(p, rep, config)
    assert len(fibers) == len(reference) == config.samples
    with mp.workprec(config.precision_bits + 32):
        tol = mp.mpf(2) ** -(config.precision_bits + 8)
        for got, want in zip(fibers, reference):
            assert len(got) == len(want) == p.degree
            for a, b in zip(got, want):
                assert abs(a - b) <= tol * max(1, abs(b))


@pytest.mark.parametrize("name", ORACLE_CASES)
def test_oracle_verdicts_match_track_fiber(name, config):
    """Vanishing verdicts read off the two-tier fibers are the ones the
    `track_fiber` fibers give: x1 - x2 never vanishes, p(x1) - p(x2) and
    the paper's T_3 on T6 always do."""
    p, rep, reference = _oracle_case(name)
    if name == "t6":
        v, cases = PAPER_V1, [(chebyshev(3), True), (X, False)]
    else:
        v = CycleVector(p.degree, (1, -1) + (0,) * (p.degree - 2))
        cases = [(p, True), (X, False), (X ** 2 + X, False)]
    prec = config.precision_bits
    for q, expected in cases:
        chk = verify_vanishing_numeric(p, v, q, config=config, rep=rep)
        want = cycle_residual(v, fiber_values(q, reference, prec), prec)
        assert chk.vanishes == bool(want < chk.tolerance) == expected


@pytest.mark.parametrize("name", ["t6", "octic"])
def test_escalated_oracle_fibers_are_track_fibers_bits(name, config, monkeypatch):
    """With every segment handed to the mp tier, the oracle fibers are
    `track_fiber`'s bit for bit."""
    # the package binds the name abelint.monodromy to the function
    monkeypatch.setattr(sys.modules["abelint.monodromy"], "MACHINE_GAP_FLOOR",
                        math.inf)
    p, rep, reference = _oracle_case(name)
    fibers = tracked_fiber_samples(p, rep, config)
    assert [[x._mpc_ for x in f] for f in fibers] == \
        [[x._mpc_ for x in f] for f in reference]


@pytest.mark.parametrize("samples", [0, -3])
def test_oracle_rejects_fewer_than_one_sample(samples, config):
    """No samples once gave vanishes=True and residual 0 for x1 - x2 on
    x^2, which is 2 sqrt(z)."""
    p, v = X ** 2, CycleVector(2, (1, -1))
    message = rf"^samples must be at least 1, got {samples}$"
    with pytest.raises(InputError, match=message):
        verify_vanishing_numeric(p, v, X, samples=samples, config=config)
    rep = monodromy(p, config)
    with pytest.raises(InputError, match=message):
        verify_vanishing_numeric(p, v, X, samples=samples, config=config, rep=rep)
    with pytest.raises(InputError, match=message):
        tracked_fiber_samples(p, rep, config, samples)
    chk = verify_vanishing_numeric(p, v, X, samples=2, config=config, rep=rep)
    assert not chk.vanishes and chk.samples == 2


@pytest.mark.parametrize("samples", [COUNT_LIMIT + 1, 10 ** 12])
def test_config_rejects_sample_counts_above_the_limit(samples):
    with pytest.raises(InputError, match=rf"^samples must be at most "
                                         rf"{COUNT_LIMIT}, not {samples}$"):
        Config(samples=samples)
    assert Config(samples=COUNT_LIMIT).samples == COUNT_LIMIT


# ---------------------------------------------------------------------------
# common right factors
# ---------------------------------------------------------------------------

def test_common_right_factor_t6():
    w = common_right_factor(chebyshev(6), chebyshev(2) ** 2)
    assert w == X ** 2      # the normalized T_2 class


def test_common_right_factor_quartic():
    f = (X ** 2 / 2 - 1) ** 2
    assert common_right_factor(f, X ** 2 / 2) == X ** 2


def test_common_right_factor_none():
    assert common_right_factor(X ** 3 + X, X ** 2) is None


def test_common_right_factor_degree_requirement():
    with pytest.raises(InputError):
        common_right_factor(X, X ** 2)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_pullback_sum(t6, t6_rep, t6_lattice, config):
    q = chebyshev(2) + chebyshev(3)
    report = classify(t6, PAPER_V1, q, config, t6_rep, t6_lattice)
    assert report.case == "pullback-sum"
    assert report.vanishes
    parts = report.certificates["parts"]
    assert {part.divisor for part in parts} == {2, 3}
    total = RatPoly.zero()
    for part in parts:
        total = total + compose(part.outer, part.inner)
    assert total == q


def test_classify_polynomial_in_p(config, quintic_rep, quintic_lattice):
    # reduced cycle on an indecomposable polynomial, q = p + 3
    v = CycleVector(5, (1, -1, 0, 0, 0))
    q = QUINTIC + RatPoly.constant(3)
    report = classify(QUINTIC, v, q, config, quintic_rep, quintic_lattice)
    assert report.case == "polynomial-in-P-and-reduced"
    r = report.certificates["outer"]
    assert compose(r, QUINTIC) == q


def test_classify_general_with_remainder(t6, t6_rep, t6_lattice, config):
    q = chebyshev(6) + X
    report = classify(t6, PAPER_V2, q, config, t6_rep, t6_lattice)
    assert report.case == "general"
    cert = report.certificates[2]
    assert cert["remainder"] == X
    total = cert["remainder"]
    for part in cert["parts"]:
        total = total + compose(part.outer, part.inner)
    assert total == q


def test_classify_scalar_full_fiber(config, quintic_rep, quintic_lattice):
    # sum of roots of the quintic is -1, so x + 1/5 has zero total trace
    v = CycleVector(5, (2, 2, 2, 2, 2))
    q = X + RatPoly.constant(Fraction(1, 5))
    report = classify(QUINTIC, v, q, config, quintic_rep, quintic_lattice)
    assert report.case == "scalar-full-fiber"
    assert report.certificates["scalar"] == 2


def test_classify_non_vanishing(t6, t6_rep, t6_lattice, config):
    report = classify(t6, PAPER_V1, X, config, t6_rep, t6_lattice)
    assert report.case == "non-vanishing"
    assert not report.vanishes


# ---------------------------------------------------------------------------
# moment problems end to end
# ---------------------------------------------------------------------------

def test_moment_problem_single_interval(t6, t6_rep, t6_lattice, config):
    s = sqrt3_over_2()
    basis = solve_moment_problem(t6, IntervalSystem.of((-s, s, 1)), 6,
                                 config, t6_rep, t6_lattice)
    assert basis.same_span(t3_t2_span(6))


def test_moment_problem_three_intervals(t6, t6_rep, t6_lattice, config):
    system = IntervalSystem.of(
        (-1, Fraction(-1, 2), 1),
        (Fraction(-1, 2), Fraction(1, 2), -1),
        (Fraction(1, 2), 1, 1),
    )
    basis = solve_moment_problem(t6, system, 6, config, t6_rep, t6_lattice)
    ud2 = z_ud_basis(t6, 2, t6_lattice, 6)
    assert basis.same_span(ud2.basis)
    # the trace-kernel part at bound 2 is spanned by {x, x^2 - 1/2}
    assert basis.contains(X)
    assert basis.contains(X ** 2 - RatPoly.constant(Fraction(1, 2)))
    assert basis.contains(chebyshev(6))
    assert not basis.contains(X ** 3)


def test_moment_problem_empty_system(t6, t6_rep, t6_lattice, config):
    basis = solve_moment_problem(t6, IntervalSystem(()), 5,
                                 config, t6_rep, t6_lattice)
    assert basis.dim == 6


def test_moment_basis_elements_pass_oracle(t6, t6_rep, t6_lattice, config):
    s = sqrt3_over_2()
    basis = solve_moment_problem(t6, IntervalSystem.of((-s, s, 1)), 6,
                                 config, t6_rep, t6_lattice)
    for q in basis.basis:
        chk = verify_vanishing_numeric(t6, PAPER_V1, q, config=config, rep=t6_rep)
        assert chk.vanishes


_LATTICES = {}


def _composite_lattice(a, w, config):
    """The divisor lattice of A(W), computed once per composite."""
    p = compose(RatPoly([Fraction(c) for c in a]), RatPoly([Fraction(c) for c in w]))
    if p.coeffs not in _LATTICES:
        _LATTICES[p.coeffs] = divisor_lattice(monodromy(p, config), p)
    return _LATTICES[p.coeffs]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_vanishing_basis_ignores_relabelling_within_blocks(data, config):
    """A relabelling of the fiber that keeps the residue classes mod every
    proper lattice member maps each U_d onto itself, so it keeps the U_d
    components of a cycle and with them the answer.  This is why the
    answer rests on the numbering only where divisor_lattice checks it."""
    da, dw = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2)]))
    a = data.draw(st.lists(st.integers(-5, 5), min_size=da, max_size=da))
    w = data.draw(st.lists(st.integers(-5, 5), min_size=dw - 1, max_size=dw - 1))
    lattice = _composite_lattice(a + [data.draw(st.sampled_from([1, -1, 2]))],
                                 [0] + w + [1], config)
    n = lattice.n
    # n, and no swap, when the proper members have lcm n, as for x^6
    step = math.lcm(*(d for d in lattice.members if d < n))
    v = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    moved = list(v)
    for i, k in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(1, n - 1)), max_size=6)):
        j = (i + k * step) % n          # i and j lie in one class mod `step`
        moved[i], moved[j] = moved[j], moved[i]
    assert (vanishing_basis([CycleVector(n, moved)], lattice, 2 * n)
            == vanishing_basis([CycleVector(n, v)], lattice, 2 * n))
