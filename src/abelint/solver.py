"""Decision procedures for vanishing of zero-dimensional Abelian integrals.

Everything here is degree-filtered: the solution spaces are infinite
dimensional, so bases are computed inside the space of polynomials of
degree at most a user-chosen bound.  The exact machinery rests on two
pillars: fiber-trace conditions (the kernel side) and pullback rings along
compositional right factors (the span side).  A high-precision tracking
oracle cross-checks every exact verdict numerically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd, isqrt, lcm
from operator import mul

from mpmath import mp
from mpmath.libmp import from_int, from_man_exp, fzero, mpf_div, mpf_gt, round_nearest

from . import linalg
from .config import Config, DEFAULT_CONFIG, sample_count
from .cycles import (CycleVector, IntervalSystem,
                     real_interval_to_coefficients)
from .errors import (CertificateError, ComputationError, ConsistencyError,
                     InputError)
from .invariant import decompose_v_delta, pairing_is_zero, v_d_basis
from .monodromy import (DivisorLattice, MonodromyRep, continue_fiber,
                        divisor_lattice, monodromy, route, standoffs)
from .numerics import fiber_values, to_mpc
from .ratpoly import (RatPoly, compose, decompose_all, power_sums,
                      trace_poly, w_adic)


# ---------------------------------------------------------------------------
# solution bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionBasis:
    """Exact basis of a vanishing space up to a degree bound, in canonical
    (reduced row echelon) form, with a provenance tag per element."""
    degree_bound: int
    basis: tuple[RatPoly, ...]
    provenance: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, q: RatPoly) -> bool:
        """Membership, read off the basis as the echelon it is: each
        pivot is at its row's first nonzero column."""
        if q.is_zero():
            return True
        if not q.is_constant() and q.degree > self.degree_bound:
            return False
        rows = linalg.integer_rows(_polys_to_rows(self.basis, self.degree_bound))
        pivots = [next(c for c, x in enumerate(row) if x) for row in rows]
        return linalg.in_echelon(rows, pivots, linalg.integer_rows(
            [_poly_to_row(q, self.degree_bound)])[0])

    def same_span(self, polys) -> bool:
        return (linalg.rref(_polys_to_rows(polys, self.degree_bound))[0]
                == _polys_to_rows(self.basis, self.degree_bound))


def _poly_to_row(p: RatPoly, bound: int) -> list[Fraction]:
    if not p.is_zero() and p.degree > bound:
        raise InputError("polynomial exceeds the degree bound")
    return [p.coeff(k) for k in range(bound + 1)]


def _polys_to_rows(polys, bound: int) -> list[list[Fraction]]:
    return [_poly_to_row(p, bound) for p in polys]


# ---------------------------------------------------------------------------
# trace conditions and pullback spans
# ---------------------------------------------------------------------------

def _trace_rows(w: RatPoly, bound: int, table: tuple[int, list[list[int]]]) -> list[list[int]]:
    """The integer trace matrix T of w inside degree <= bound: T Q holds the
    z^j coefficients of D^bound Tr_w(Q).  Tr_w(x^e) is the power sum p_e(z) =
    P_e(z) / D^e, from the `power_sums` table (D, P) of w to e >= bound, so
    row j holds the z^j coefficients of P_e times D^(bound - e)."""
    scale, sums = table
    scales = [scale ** (bound - e) for e in range(bound + 1)]
    return [[ps[j] * f if j < len(ps) else 0 for ps, f in zip(sums, scales)]
            for j in range(bound // w.degree + 1)]


def _pullback_span_rows(w: RatPoly, bound: int, tables: dict | None = None) -> list[list[int]]:
    """Integer coefficient rows of 1, W, W^2, ... up to the degree bound,
    where W is w times the lcm of its denominators: they span C[w] there.
    Given `tables`, the unpadded powers of W are kept there and only grow."""
    scale = lcm(*(c.denominator for c in w.coeffs))
    big = [c.numerator * (scale // c.denominator) for c in w.coeffs]
    powers = ({} if tables is None else tables).setdefault(("powers", w), [[1]])
    while len(powers) <= bound // w.degree:
        product = [0] * (len(powers[-1]) + w.degree)
        for i, a in enumerate(powers[-1]):
            for j, b in enumerate(big):
                product[i + j] += a * b
        powers.append(product)
    return [power + [0] * (bound + 1 - len(power)) for power in powers[:bound // w.degree + 1]]


def _in_pullback(rows: list[list[int]], m: int, v: list[int]) -> bool:
    """Whether the integer row v lies in the span of the rows W^j of
    `_pullback_span_rows`, each of degree exactly j m: v's top nonzero
    entry, at k > 0, needs m | k and is cancelled by v <- a v - b W^(k/m)."""
    k = len(v)
    while (k := next((i for i in range(k - 1, -1, -1) if v[i]), -1)) > 0 and not k % m:
        power = rows[k // m]
        g = gcd(power[k], v[k])
        v = [power[k] // g * x - v[k] // g * y for x, y in zip(v, power[:k])]
    return k <= 0


def _annihilates(rows: list[list[int]], v: list[int]) -> bool:
    """Whether every integer row is orthogonal to v."""
    return not any(sum(map(mul, row, v)) for row in rows)


class _LatticeSpans:
    """The trace conditions of a divisor lattice inside degree <= bound.

    With w the witness of d, m = deg w and B the bound, Z_{U_d} is the
    preimage under Tr_w of a span of polynomials in z of degree <= B // m:
    - degree <= B splits as Z_{V_d} + C[w], because Tr_w(g(w)) = m g(z);
    - the witness of each dt covered by d is h_dt(w), because the blocks of
      d refine those of dt, so Tr_w(W_dt^j) = m h_dt^j;
    - hence Q lies in Z_{U_d} iff Tr_w(Q) lies in S = span{h_dt^j}.
    h_dt is read off the w-adic digits of W_dt, which must all be
    constants.  The conditions of Z_{U_d} are the rows l^T T for l in the
    kernel of the rows of S, and T itself when d covers nothing; every
    basis is a kernel of such rows (`linalg.kernel_echelon`).  Power sums and
    T_d at the largest bound so far, h_dt and powers are bound-free: they
    live in the lattice's `tables`, each built on first use and grown only
    when a larger bound needs more."""

    def __init__(self, lattice: DivisorLattice, bound: int):
        self.lattice = lattice
        self.bound = bound
        self.tables = lattice.tables

    def trace_rows(self, d: int) -> list[list[int]]:
        """T_d up to a constant factor: the first B // m + 1 rows and B + 1
        columns of the table's T_d at its bound B' >= B, D^(B' - B) T_d."""
        w, sums = self.lattice.witness[d].right, self.tables.get(("sums", d))
        if sums is None or len(sums[1]) <= self.bound:
            sums = self.tables["sums", d] = power_sums(w, self.bound, sums and sums[1])
            self.tables["trace", d] = _trace_rows(w, self.bound, sums)
        return [row[:self.bound + 1]
                for row in self.tables["trace", d][:self.bound // w.degree + 1]]

    def _outer(self, d: int, dt: int) -> RatPoly:
        """h with W_dt = h(w), w and W_dt the witnesses of d and dt."""
        if ("outer", d, dt) not in self.tables:
            digits = w_adic(self.lattice.witness[dt].right, self.lattice.witness[d].right)
            if not all(q.is_constant() for q in digits):
                raise ConsistencyError(f"the witness of {dt} is not a polynomial in "
                                       f"the witness of {d}")
            self.tables["outer", d, dt] = RatPoly([q.coeff(0) for q in digits])
        return self.tables["outer", d, dt]

    def covered_span(self, d: int) -> list[list[int]]:
        """S: the pullback rows of each h_dt, in z-degree <= bound // deg w."""
        top = self.bound // self.lattice.witness[d].right.degree
        return [row for dt in self.lattice.covered_by(d)
                for row in _pullback_span_rows(self._outer(d, dt), top, self.tables)]

    def ud_conditions(self, d: int) -> list[list[int]]:
        """Integer rows whose common kernel is Z_{U_d}: l^T T_d for each l
        in the kernel of the rows of S, in z-degree <= bound // deg w."""
        rows = self.trace_rows(d)
        if not self.lattice.covered_by(d):
            return rows
        out = []
        for lam in linalg.kernel_echelon(self.covered_span(d), len(rows))[0]:
            acc = [0] * (self.bound + 1)
            for l, row in zip(lam, rows):
                if l:
                    acc = [a + l * t for a, t in zip(acc, row)]
            out.append(acc)
        return out

    def candidates(self, kernels, pullbacks):
        """(tag, test) pairs, each test a function giving a membership test
        for integer rows: the trace kernels of `kernels`, as T_d v = 0, then
        the pullback rings of the witnesses of `pullbacks`."""
        out = [(f"trace-kernel({d})",
                lambda d=d: partial(_annihilates, self.trace_rows(d))) for d in kernels]
        out += [(f"pullback({w})", lambda w=w: partial(
                    _in_pullback, _pullback_span_rows(w, self.bound, self.tables), w.degree))
                for w in (self.lattice.witness[d].right for d in pullbacks)]
        return out

    def conditions(self, cycles) -> list[list[int]]:
        """The condition rows of Z_{U_d} (`ud_conditions`), once for each d
        in the union of the components of the invariant spans of the
        cycles."""
        comps = set().union(*(decompose_v_delta(v, self.lattice).components
                              for v in cycles))
        return [row for d in sorted(comps) for row in self.ud_conditions(d)]


def _provenance(rows, candidates) -> tuple[str, ...]:
    """Tag each integer row with the first candidate span that holds it,
    else "mixed".  Candidates are (tag, test) pairs (`candidates`); a
    span's test is built only when a row first reaches that span."""
    tests: dict[int, object] = {}
    tags = []
    for row in rows:
        tag = "mixed"
        for i, (name, build) in enumerate(candidates):
            if i not in tests:
                tests[i] = build()
            if tests[i](row):
                tag = name
                break
        tags.append(tag)
    return tuple(tags)


def _solution(echelon, tags, bound: int) -> SolutionBasis:
    """The basis of an integer echelon, each row divided by its pivot entry:
    the canonical reduced row echelon form."""
    return SolutionBasis(degree_bound=bound,
                         basis=tuple(RatPoly(r) for r in linalg.to_fractions(*echelon)),
                         provenance=tuple(tags))


def vanishing_conditions(cycles, lattice: DivisorLattice,
                         degree_bound: int) -> list[list[int]]:
    """Integer linear conditions on the coefficient rows of Q (degree <= bound)
    that hold iff the integral of Q over every one of the cycles vanishes
    identically."""
    return _LatticeSpans(lattice, degree_bound).conditions(cycles)


def vanishing_basis(cycles, lattice: DivisorLattice,
                    degree_bound: int) -> SolutionBasis:
    """Exact basis of the polynomials of degree <= bound whose integral
    over every one of the cycles vanishes identically.

    This is the intersection of the Z_{U_d} over the union of the
    components of the invariant spans of the cycles; it depends only on
    that union, and no nonzero cycle yields the full polynomial space.
    """
    spans = _LatticeSpans(lattice, degree_bound)
    kernel = linalg.kernel_echelon(spans.conditions(cycles), degree_bound + 1)
    candidates = spans.candidates(sorted(lattice.members), lattice.members)
    return _solution(kernel, _provenance(kernel[0], candidates), degree_bound)


def z_vd_basis(p: RatPoly, d: int, lattice: DivisorLattice,
               degree_bound: int) -> SolutionBasis:
    """Basis of the polynomials of degree <= bound whose trace over the
    residue-class block of size n/d vanishes identically."""
    lattice.require_member(d)
    rows = _LatticeSpans(lattice, degree_bound).trace_rows(d)
    kernel = linalg.kernel_echelon(rows, degree_bound + 1)
    return _solution(kernel, [f"trace-kernel({d})"] * len(kernel[0]), degree_bound)


def z_ud_basis(p: RatPoly, d: int, lattice: DivisorLattice,
               degree_bound: int) -> SolutionBasis:
    """Basis of Z_{V_d} + sum of pullback rings C[W_i] over the witnesses
    of the elements covered by d, truncated at the degree bound."""
    lattice.require_member(d)
    spans = _LatticeSpans(lattice, degree_bound)
    # a witness x has the identity for T_d, so Z_{U_d} is S itself
    span = (linalg.echelon(spans.covered_span(d)) if lattice.witness[d].right == RatPoly.x()
            else linalg.kernel_echelon(spans.ud_conditions(d), degree_bound + 1))
    candidates = spans.candidates([d], lattice.covered_by(d))
    return _solution(span, _provenance(span[0], candidates), degree_bound)


def z_delta_basis(p: RatPoly, v: CycleVector, degree_bound: int,
                  config: Config = DEFAULT_CONFIG,
                  rep: MonodromyRep | None = None,
                  lattice: DivisorLattice | None = None) -> SolutionBasis:
    """Exact basis of the polynomials whose integral over the cycle v
    vanishes identically, up to the degree bound; the zero cycle yields
    the full polynomial space."""
    rep, lattice = group_data(p, config, rep, lattice)
    return vanishing_basis([v], lattice, degree_bound)


def group_data(p: RatPoly, config: Config = DEFAULT_CONFIG,
               rep: MonodromyRep | None = None,
               lattice: DivisorLattice | None = None):
    """The monodromy and divisor lattice of p, computing whichever of the
    two is not given."""
    if rep is None:
        rep = monodromy(p, config)
    if lattice is None:
        lattice = divisor_lattice(rep, p)
    return rep, lattice


# ---------------------------------------------------------------------------
# Puiseux expansions at infinity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PuiseuxExpansion:
    """Coefficients s_k of q(p_1^{-1}(z)) = sum_k s_k z^{-k/n} at infinity."""
    n: int
    k_min: int
    k_max: int
    coeffs: dict[int, object]
    exact: bool

    def s(self, k: int):
        if k > self.k_max:
            raise InputError(f"coefficient index {k} beyond truncation")
        return self.coeffs.get(k, Fraction(0) if self.exact else mp.mpf(0))


def _series_mul(a, b, L, zero):
    out = [zero] * (L + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > L:
                break
            if bj != 0:
                out[i + j] = out[i + j] + ai * bj
    return out


def _series_pow(a, k, L, zero, one):
    out = [one] + [zero] * L
    base = list(a) + [zero] * (L + 1 - len(a))
    while k:
        if k & 1:
            out = _series_mul(out, base, L, zero)
        k >>= 1
        if k:
            base = _series_mul(base, base, L, zero)
    return out


def _invert_at_infinity(pcoeffs, n, L, zero, one, tiny=None):
    """Series g with g(u)^n + sum_{j<n} p_j u^{n-j} g(u)^j = 1, g(0) = 1.

    Then x = w*g(1/w) parameterizes the branch of p(x) = w^n at infinity.
    The system is triangular in the coefficients of g: the u^k coefficient
    of the constraint depends on g_k linearly with slope n.
    """
    g = [one] + [zero] * L

    def constraint():
        acc = [zero] * (L + 1)
        for j in range(n + 1):
            pj = pcoeffs[j]
            if pj == 0:
                continue
            gj = _series_pow(g, j, L, zero, one)
            shift = n - j
            for t in range(L + 1 - shift):
                acc[t + shift] = acc[t + shift] + pj * gj[t]
        return acc

    for k in range(1, L + 1):
        f = constraint()
        g[k] = -f[k] / n
    f = constraint()
    small = (lambda c: c == 0) if tiny is None else (lambda c: abs(c) < tiny)
    if not small(f[0] - one) or not all(small(c) for c in f[1:]):
        raise ComputationError("series inversion failed to close")
    return g


def _integer_nth_root(a: int, n: int) -> int | None:
    """The integer r >= 0 with r**n == a, or None (exact Newton iteration)."""
    if a < 2:
        return a
    r = 1 << -(-a.bit_length() // n)        # 2^ceil(bits/n) > a^(1/n)
    while True:
        s = ((n - 1) * r + a // r ** (n - 1)) // n
        if s >= r:
            return r if r ** n == a else None
        r = s


def _rational_nth_root(x: Fraction, n: int) -> Fraction | None:
    if x <= 0:
        return None
    num = _integer_nth_root(x.numerator, n)
    den = _integer_nth_root(x.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def puiseux(q: RatPoly, p: RatPoly, k_max: int,
            config: Config = DEFAULT_CONFIG,
            exact: bool | None = None) -> PuiseuxExpansion:
    """Puiseux coefficients of q along one branch of p^{-1} at infinity.

    Exact mode requires p monic (or monic after the rational rescaling
    x -> lambda*x); otherwise the expansion is computed numerically at the
    configured precision.  Relabeling the branch only rotates each s_k by
    a root of unity, so the vanishing pattern is branch-independent.
    """
    if p.is_zero() or p.degree < 1:
        raise InputError("puiseux requires deg p >= 1")
    n = p.degree
    qdeg = 0 if q.is_zero() else max(q.degree, 0)
    lam = _rational_nth_root(Fraction(1) / p.lc, n) if p.lc != 1 else Fraction(1)
    can_exact = lam is not None
    if exact is True and not can_exact:
        raise InputError("exact Puiseux mode requires a monic-scalable polynomial")
    use_exact = can_exact if exact is None else exact

    L = qdeg + k_max + 1
    prec = max(2 * config.precision_bits, 256)
    with mp.workprec(prec):
        # the same series code runs over Q or over mpc: x -> lam*x makes p monic
        if use_exact:
            ring, zero, one, tiny = Fraction, Fraction(0), Fraction(1), None
        else:
            def ring(c):
                return to_mpc(c, prec)
            lam = mp.power(1 / ring(p.lc), mp.mpf(1) / n)
            zero, one, tiny = mp.mpc(0), mp.mpc(1), mp.mpf(2) ** (-(prec // 2))
        pc = [ring(p.coeff(j)) * lam ** j for j in range(n + 1)]
        qc = [ring(q.coeff(e)) * lam ** e for e in range(len(q.coeffs))]
        g = _invert_at_infinity(pc, n, L, zero, one, tiny)
        coeffs: dict[int, object] = {}
        for e, qe in enumerate(qc):
            if qe == 0:
                continue
            ge = _series_pow(g, e, L, zero, one)
            for t, c in enumerate(ge):
                k = t - e
                if k <= k_max and c != 0:
                    coeffs[k] = coeffs.get(k, zero) + qe * c
    if use_exact:
        coeffs = {k: c for k, c in coeffs.items() if c != 0}
    return PuiseuxExpansion(n=n, k_min=-qdeg, k_max=k_max, coeffs=coeffs,
                            exact=use_exact)


# ---------------------------------------------------------------------------
# numeric vanishing oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VanishingCheck:
    vanishes: bool
    residual: object      # mpf, the worst relative residual over the samples
    tolerance: float
    samples: int


def _sample_points(rep: MonodromyRep, blockers, count: int, seed: int):
    rng = random.Random(seed)
    radius = abs(rep.base_point)
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        if attempts > 200 * count:
            raise ComputationError("could not sample regular points")
        r = radius * (mp.mpf(2) / 8 + mp.mpf(rng.random()) * 5 / 8)
        theta = 2 * mp.pi * mp.mpf(rng.random())
        z = r * mp.exp(mp.mpc(0, 1) * theta)
        if all(abs(z - c) > 2 * s for c, s in blockers):
            points.append(z)
    return points


def tracked_fiber_samples(p: RatPoly, rep: MonodromyRep,
                          config: Config = DEFAULT_CONFIG,
                          count: int | None = None) -> list:
    """Fibers over seeded random regular points, index-aligned with the
    normalized base fiber.  Each is continued from `rep.base_fiber`,
    refined once in `monodromy`, along a `route` path on the two-tier
    tracker, and its end is refined at the working precision to
    2^-(precision_bits + 8) relative (`continue_fiber`): the residuals are
    read off these fibers.  One tracking pass serves any number of residual
    evaluations."""
    count = sample_count(count if count is not None else config.samples)
    with mp.workprec(config.precision_bits + 32):
        cvs = list(rep.critical_values)
        blockers = list(zip(cvs, standoffs(cvs, abs(rep.base_point))))
        fibers = []
        for z in _sample_points(rep, blockers, count, config.seed):
            path = route(rep.base_point, z, blockers)
            fibers.append(continue_fiber(p, path, rep.base_fiber, config))
        return fibers


def cycle_residual(v: CycleVector, values, prec: int):
    """Worst relative residual |sum_i v_i q(x_i)| / max(1, sum_i |v_i|
    |q(x_i)|) over the tracked fibers, given `values = fiber_values(q,
    fibers, prec)`.  Both sums are exact integer sums over v's common
    denominator, with one `isqrt` per norm; the quotient is rounded once,
    to prec + 32 bits."""
    den = lcm(*(c.denominator for c in v.v))
    weights = [c.numerator * (den // c.denominator) for c in v.v]
    worst = fzero
    for qvals in values:
        low = min(x for _, _, x in qvals)
        re = im = total = 0
        for w, (qr, qi, x) in zip(weights, qvals):
            if w:
                re += w * qr << (x - low)
                im += w * qi << (x - low)
                total += abs(w) * isqrt(qr * qr + qi * qi) << (x - low)
        # both sums are in units of 2^low / den, so the floor 1 is den 2^-low
        total, one = from_int(total), from_man_exp(den, -low)
        res = mpf_div(from_int(isqrt(re * re + im * im)),
                      total if mpf_gt(total, one) else one, prec + 32, round_nearest)
        if mpf_gt(res, worst):
            worst = res
    return mp.make_mpf(worst)


def verify_vanishing_numeric(p: RatPoly, v: CycleVector, q: RatPoly,
                             samples: int | None = None,
                             config: Config = DEFAULT_CONFIG,
                             rep: MonodromyRep | None = None) -> VanishingCheck:
    """Track the normalized fiber to seeded random regular points and
    evaluate sum_i v_i q(x_i); vanishing means the worst relative residual
    stays below the oracle tolerance."""
    count = sample_count(samples if samples is not None else config.samples)
    if rep is None:
        rep = monodromy(p, config)
    if v.n != rep.n:
        raise InputError("cycle length does not match the fiber degree")
    tol = config.resolved_oracle_tol
    with mp.workprec(config.precision_bits + 32):
        if q.is_zero() or v.is_zero():
            return VanishingCheck(True, mp.mpf(0), tol, count)
        fibers = tracked_fiber_samples(p, rep, config, count)
        worst = cycle_residual(v, fiber_values(q, fibers, config.precision_bits),
                               config.precision_bits)
        return VanishingCheck(bool(worst < tol), worst, tol, count)


# ---------------------------------------------------------------------------
# common compositional right factors
# ---------------------------------------------------------------------------

def common_right_factor(f: RatPoly, g: RatPoly) -> RatPoly | None:
    """Maximal-degree nontrivial W with f and g both polynomials in W,
    or None when only linear factors are shared."""
    if f.is_zero() or f.degree < 2:
        raise InputError("common_right_factor requires deg f >= 2")
    for dec in sorted(decompose_all(f), key=lambda d: -d.right.degree):
        w = dec.right
        if w.degree < 2:
            continue
        if all(part.is_constant() for part in w_adic(g, w)):
            return w
    return None


# ---------------------------------------------------------------------------
# classification with certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PullbackPart:
    divisor: int          # d with deg(inner) = n/d
    outer: RatPoly        # S
    inner: RatPoly        # W
    inner_cycles_reduced: bool


@dataclass(frozen=True)
class ClassificationReport:
    case: str
    vanishes: bool
    residual: object
    components: frozenset[int]
    certificates: dict = field(default_factory=dict)


def _strip_pullbacks(q: RatPoly, witnesses, v: CycleVector,
                     lattice: DivisorLattice):
    """Sequential pullback extraction: for each right factor W (largest
    block first) subtract S(W) with S = trace(remainder, W)/deg(W).

    A single sweep suffices: each step clears the Puiseux support classes
    of its own block without reviving previously cleared ones.
    """
    parts = []
    rem = q
    for d, w in sorted(witnesses, key=lambda t: t[0]):
        s = trace_poly(rem, w).value / w.degree
        if s.is_zero():
            continue
        reduced = all(v.dot(e) == 0 for e in v_d_basis(d, lattice.n))
        parts.append(PullbackPart(divisor=d, outer=s, inner=w,
                                  inner_cycles_reduced=reduced))
        rem = rem - compose(s, w)
    return parts, rem


def _verify_in_vd_kernel(rem: RatPoly, w: RatPoly) -> bool:
    return rem.is_zero() or trace_poly(rem, w).value.is_zero()


def _reverify(q: RatPoly, parts, rem: RatPoly):
    acc = rem
    for part in parts:
        acc = acc + compose(part.outer, part.inner)
    if acc != q:
        raise CertificateError("pullback certificate does not reassemble q")


def _p4_condition(v: CycleVector, lattice: DivisorLattice):
    """Divisors e whose pullback cycles are all reduced, when those cover
    the whole zero-pairing set of v (the reduced-representation case)."""
    n = lattice.n
    zero_set = {r for r in range(1, n + 1) if pairing_is_zero(v, r)}
    candidates = [e for e in lattice.members
                  if set(range(n // e, n + 1, n // e)) <= zero_set]
    covered = set()
    for e in candidates:
        covered |= set(range(n // e, n + 1, n // e))
    if covered == zero_set and candidates:
        return candidates
    return None


def classify(p: RatPoly, v: CycleVector, q: RatPoly,
             config: Config = DEFAULT_CONFIG,
             rep: MonodromyRep | None = None,
             lattice: DivisorLattice | None = None) -> ClassificationReport:
    """Structural explanation of why the integral of q over v vanishes,
    with an exactly re-verified certificate; a non-vanishing input yields
    a report with the offending residual."""
    rep, lattice = group_data(p, config, rep, lattice)
    check = verify_vanishing_numeric(p, v, q, config=config, rep=rep)
    comps = decompose_v_delta(v, lattice).components
    if not check.vanishes:
        return ClassificationReport(case="non-vanishing", vanishes=False,
                                    residual=check.residual, components=comps)
    if q.is_zero() or v.is_zero():
        return ClassificationReport(case="general", vanishes=True,
                                    residual=check.residual, components=comps,
                                    certificates={"note": "trivial input"})
    n = lattice.n
    members = set(lattice.members)

    if members == {1, n} and comps == {1}:
        # full-fiber scalar cycle: the total trace of q must vanish exactly
        a = v.v[0]
        if any(c != a for c in v.v):
            raise CertificateError("component {1} but cycle is not scalar")
        w = lattice.witness[1].right
        if not trace_poly(q, w).value.is_zero():
            raise CertificateError("scalar-cycle trace certificate failed")
        return ClassificationReport(
            case="scalar-full-fiber", vanishes=True, residual=check.residual,
            components=comps,
            certificates={"scalar": a, "trace_factor": w})

    if members == {1, n} or comps >= members - {1}:
        # q must be a polynomial in p, with a reduced cycle
        w = lattice.witness[1].right
        parts = w_adic(q, w)
        if not all(part.is_constant() for part in parts):
            raise CertificateError("expected q to be a polynomial in p")
        inner_rep = RatPoly([part.coeff(0) for part in parts])
        shift = RatPoly.of(-p.coeff(0) / p.lc, Fraction(1) / p.lc)
        r = compose(inner_rep, shift)
        if compose(r, p) != q:
            raise CertificateError("polynomial-in-p certificate failed")
        if not v.reduced:
            raise CertificateError("cycle is not reduced in the p1/p2 case")
        return ClassificationReport(
            case="polynomial-in-P-and-reduced", vanishes=True,
            residual=check.residual, components=comps,
            certificates={"outer": r})

    if n in comps:
        witnesses = [(dt, lattice.witness[dt].right)
                     for dt in lattice.covered_by(n)]
        parts, rem = _strip_pullbacks(q, witnesses, v, lattice)
        if not rem.is_zero():
            raise CertificateError("pullback-sum stripping left a remainder")
        _reverify(q, parts, rem)
        return ClassificationReport(
            case="pullback-sum", vanishes=True, residual=check.residual,
            components=comps, certificates={"parts": tuple(parts)})

    p4 = _p4_condition(v, lattice)
    if p4 is not None:
        witnesses = [(e, lattice.witness[e].right) for e in p4]
        parts, rem = _strip_pullbacks(q, witnesses, v, lattice)
        if rem.is_zero() and all(part.inner_cycles_reduced for part in parts):
            _reverify(q, parts, rem)
            return ClassificationReport(
                case="pullback-sum-reduced", vanishes=True,
                residual=check.residual, components=comps,
                certificates={"parts": tuple(parts)})

    # general case: per component, strip the covered pullbacks and verify
    # the remainder lies in the corresponding trace kernel
    certificates = {}
    for d in sorted(comps):
        witnesses = [(dt, lattice.witness[dt].right)
                     for dt in lattice.covered_by(d)]
        parts, rem = _strip_pullbacks(q, witnesses, v, lattice)
        if not _verify_in_vd_kernel(rem, lattice.witness[d].right):
            raise CertificateError(
                f"general-case remainder escapes the trace kernel for d={d}")
        _reverify(q, parts, rem)
        certificates[d] = {"parts": tuple(parts), "remainder": rem,
                           "remainder_kernel": d}
    return ClassificationReport(case="general", vanishes=True,
                                residual=check.residual, components=comps,
                                certificates=certificates)


# ---------------------------------------------------------------------------
# weighted moment problems, end to end
# ---------------------------------------------------------------------------

def solve_moment_problem(p: RatPoly, system: IntervalSystem, degree_bound: int,
                         config: Config = DEFAULT_CONFIG,
                         rep: MonodromyRep | None = None,
                         lattice: DivisorLattice | None = None) -> SolutionBasis:
    """Polynomials Q (deg <= bound) killing every walk cycle of the
    weighted interval system: the intersection of the Z_delta over all
    per-level cycles."""
    rep, lattice = group_data(p, config, rep, lattice)
    level_cycles = real_interval_to_coefficients(p, system, rep, config)
    return vanishing_basis([lc.cycle for lc in level_cycles], lattice,
                           degree_bound)
