"""Hyperelliptic Abelian integrals over the curve family y^2 - f(x) = t.

The exact half: rewrite any polynomial 1-form as k(x) y dx plus an exact
form plus a multiple of d(y^2 - f), reducing period questions to the
primitive K of k and to zero-dimensional integrals over fibers of f.  The
numeric half: high-precision quadrature of the period integrals along real
ovals and along complex loops, the Cauchy-type deformation J_t(z), and the
confluence limit that ties J to the zero-dimensional side.
"""

from __future__ import annotations

import cmath
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

from mpmath import mp
from mpmath.libmp import (from_man_exp, mpc_abs, mpc_mul, mpc_mul_mpf, mpc_shift, mpf_mul,
                          mpf_mul_int, mpf_neg, mpf_pi, mpf_shift, pi_fixed, round_nearest,
                          to_rational)
from mpmath.libmp.libelefun import cos_sin_basecase

from .config import Config, DEFAULT_CONFIG, sample_count
from .cycles import CycleVector, VanishingCycleCombo, vanishing_combo_to_cycle
from .errors import ComputationError, InputError
from .monodromy import (DivisorLattice, MonodromyRep, match_permutation, polygon,
                        walk_fiber)
from .numerics import (bound_exponent, eval_poly, horner_fixed, machine_roots, mpf_fixed,
                       roots_of_shifted, scaled_fixed, to_fixed, to_mpc, to_mpf)
from .ratpoly import RatPoly, decompose_all, w_adic
from .realroots import level_picture, level_roots, turning_signs
from .solver import group_data, vanishing_conditions, verify_vanishing_numeric

# ---------------------------------------------------------------------------
# bivariate coefficient maps
# ---------------------------------------------------------------------------

Biv = dict   # (x_power, y_power) -> Fraction


def _biv_canon(a: Biv) -> Biv:
    return {k: v for k, v in a.items() if v != 0}


def _biv_add(a: Biv, b: Biv) -> Biv:
    out = dict(a)
    for key, val in b.items():
        out[key] = out.get(key, Fraction(0)) + val
    return _biv_canon(out)


def _biv_scale(a: Biv, c: Fraction) -> Biv:
    return _biv_canon({k: v * c for k, v in a.items()})


def _biv_mul(a: Biv, b: Biv) -> Biv:
    out: Biv = {}
    for (i, j), u in a.items():
        for (k, l), v in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, Fraction(0)) + u * v
    return _biv_canon(out)


def _biv_from_poly(p: RatPoly, y_power: int = 0) -> Biv:
    return _biv_canon({(i, y_power): c for i, c in enumerate(p.coeffs)})


def _biv_dx(a: Biv) -> Biv:
    return _biv_canon({(i - 1, j): i * v for (i, j), v in a.items() if i >= 1})


def _biv_dy(a: Biv) -> Biv:
    return _biv_canon({(i, j - 1): j * v for (i, j), v in a.items() if j >= 1})


def _biv_of(terms: dict, side: str) -> Biv:
    """A coefficient map from user terms: exponents are nonnegative ints
    (not bools) and coefficients ints, Fractions or rational strings."""
    out: Biv = {}
    for key, c in terms.items():
        if not (isinstance(key, tuple) and len(key) == 2
                and all(type(e) is int and e >= 0 for e in key)):
            raise InputError(f"{side} exponents must be two nonnegative integers, not {key!r}")
        try:
            if type(c) not in (int, Fraction, str):
                raise TypeError
            out[key] = Fraction(c)
        except (TypeError, ValueError, ZeroDivisionError):
            raise InputError(f"{side} coefficient of {key} must be a rational, "
                             f"not {c!r}") from None
    return _biv_canon(out)


# ---------------------------------------------------------------------------
# one-forms and the reduction to k(x) y dx
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneForm:
    """A polynomial 1-form P(x,y) dx + Q(x,y) dy."""
    dx: Biv
    dy: Biv

    @staticmethod
    def of(dx: Biv | None = None, dy: Biv | None = None) -> "OneForm":
        """The form from {(x_power, y_power): coefficient} maps, or
        InputError (`_biv_of`)."""
        return OneForm(_biv_of(dx or {}, "dx"), _biv_of(dy or {}, "dy"))


@dataclass(frozen=True)
class ReducedForm:
    """omega = k(x) y dx + dA + B d(y^2 - f), all parts polynomial."""
    k: RatPoly
    a_part: Biv
    b_part: Biv

    def expansion(self, f: RatPoly) -> OneForm:
        """Expand k y dx + dA + B d(y^2-f) back into dx/dy coefficients."""
        dfx = _biv_from_poly(-f.derivative())
        dx = _biv_add(_biv_from_poly(self.k, y_power=1), _biv_dx(self.a_part))
        dx = _biv_add(dx, _biv_mul(self.b_part, dfx))
        dy = _biv_add(_biv_dy(self.a_part),
                      _biv_scale(_biv_mul(self.b_part, {(0, 1): Fraction(1)}), 2))
        return OneForm(dx, dy)

    def verify(self, omega: OneForm, f: RatPoly) -> bool:
        expanded = self.expansion(f)
        return expanded.dx == omega.dx and expanded.dy == omega.dy


def reduce_form(omega: OneForm, f: RatPoly) -> ReducedForm:
    """omega = P dx + Q dy in the normal form k(x) y dx + dA + B d(y^2 - f).

    First the dy part is integrated in y: A_1 = integral of Q dy, with no
    constant term, leaves the pure dx form (P - dA_1/dx) dx.  Then its
    highest y-power m >= 2 is lowered by 2 with g = the primitive of its
    coefficient g':

        g' y^m dx = d(g y^m) - (m/2) g y^(m-2) d(y^2 - f)
                    - (m/2) g f' y^(m-2) dx,

    until only y^0 (whose primitive goes into A) and y^1 (which is k) are
    left.  Every step lowers the y-degree, so the loop ends.
    """
    a_part = _biv_canon({(i, j + 1): c / (j + 1) for (i, j), c in omega.dy.items()})
    rows: dict[int, RatPoly] = defaultdict(RatPoly)     # j -> the x-polynomial of y^j dx
    for (i, j), c in _biv_add(omega.dx, _biv_scale(_biv_dx(a_part), Fraction(-1))).items():
        rows[j] += RatPoly.monomial(i, c)
    b_part: Biv = {}
    fp = f.derivative()
    for m in range(max(rows, default=0), 1, -1):
        g = rows.pop(m, RatPoly()).primitive()
        a_part = _biv_add(a_part, _biv_from_poly(g, m))
        b_part = _biv_add(b_part, _biv_from_poly(g * Fraction(-m, 2), m - 2))
        rows[m - 2] += g * fp * Fraction(-m, 2)
    a_part = _biv_add(a_part, _biv_from_poly(rows[0].primitive()))
    reduced = ReducedForm(k=rows[1], a_part=a_part, b_part=b_part)
    if not reduced.verify(omega, f):
        raise ComputationError("form reduction identity failed to verify")
    return reduced


# ---------------------------------------------------------------------------
# real oval families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OvalFamily:
    """A continuous family of real ovals of y^2 = f(x) + t, bounded by two
    adjacent real roots of f + t selected by index into the sorted real
    root list."""
    f: RatPoly
    pair_index: int
    t_min: object
    t_max: object
    # f's exact picture (`realroots.level_picture`): filled on the first
    # endpoint request, read by every level after it
    exact: dict = field(default_factory=dict, compare=False, repr=False)

    def t_samples(self, count: int, prec: int) -> list:
        lo = to_mpf(self.t_min, prec)
        hi = to_mpf(self.t_max, prec)
        return [lo + (hi - lo) * (2 * j + 1) / (2 * count) for j in range(count)]


def oval_endpoints(family: OvalFamily, t, prec: int):
    """The two adjacent real roots of f + t bounding the oval at level t,
    with f + t positive between them, correctly rounded at prec + 32 bits.
    t is read as an mpf at that precision and taken exactly from there on.

    The roots of f + t come from `realroots.level_roots` on the family's
    exact picture (`OvalFamily.exact`), built on the first request: each
    is bracketed between two neighbouring turning points of f, where f is
    monotone, once Taylor's theorem fixes the sign of f + t at each turning
    point, and is refined and certified as by `RealRoots(f + t)`, so the
    endpoints are the same bits.  A level at which a turning point's sign
    does not settle (on or within about 2^-120 of a critical value, so at
    every multiple root) falls back to `RealRoots(f + t)` itself."""
    with mp.workprec(prec + 32):
        t = to_mpf(t, mp.prec)
        roots = level_roots(family.f, *to_rational(t._mpf_), family.exact)
        idx = family.pair_index
        if idx < 0 or idx + 1 >= roots.count:
            raise ComputationError(
                f"root pair {idx} not available at t={mp.nstr(t, 8)}")
        if roots.sign_between(idx) <= 0:
            raise ComputationError(
                "f + t is not positive between the selected roots; no real oval")
        return roots.root(idx, mp.prec), roots.root(idx + 1, mp.prec)


def _oval_quadrature(family: OvalFamily, t, config: Config, mode: str, k: RatPoly,
                     z=None):
    """The integral over [0, pi] of the `mode` integrand of k (`_oval_sum`)
    dphi on the oval's upper branch, times 2 for "y_dx" and "cauchy" (which
    needs z), rounded at prec + 32 bits.

    In xi = (x - m)/h, m and h the oval's midpoint and half-width, f + t =
    (x - x1)(x2 - x) g = h^2 (1 - xi^2) g, deflated once and exactly; with xi
    = -cos(phi) and hs = h sin(phi), y = hs sqrt(g) and dx = hs dphi: no node
    subtracts nearly equal numbers, and every integrand is even, periodic and
    analytic in phi, where the trapezoid rule converges geometrically, at a
    rate set by the roots of g and, for "cauchy", of f + t - z in xi
    (`_bernstein_log2`, read by `_phi_trapezoid`'s Bernstein rule).  The
    nodes are fixed point (`_fixed_oval`)."""
    prec = config.precision_bits
    wp = prec + 52
    t = to_mpf(t, prec + 32)
    where = f"at t = {mp.nstr(t, 8)}"
    x1, x2 = oval_endpoints(family, t, prec)
    big_f, f_den, turning, _ = level_picture(family.f, family.exact)
    with mp.workprec(wp):
        if z is not None:
            # poles sit where f + t = z; on the oval f + t covers [0, w2max],
            # its maximum at a turning point inside, so only real z inside
            # that range (but away from 0) is dangerous, and w2max is formed
            # only for z that close to the real axis
            margin = (1 + abs(z)) * mp.mpf(2) ** (-(prec // 4))
            if abs(mp.im(z)) < margin:
                inside = turning.between(x1, x2, mp.prec)
                w2max = max(eval_poly(family.f, x, mp.prec) + t for x in inside)
                if margin < mp.re(z) < w2max + margin:
                    raise ComputationError("pole sits on the integration contour")
        # x = (m + h xi) / 2^u for integers m and h; then f + t in xi over
        # the integers, divided by xi^2 - 1: the rounded endpoints leave a
        # remainder r0 + r1 xi, and (f + t)(x1), (f + t)(x2) = (r0 -+ r1)/den
        (p1, q1), (p2, q2) = (to_rational(x._mpf_) for x in (x1, x2))
        scale = 2 * max(q1, q2)
        p1, p2, u = p1 * (scale // q1), p2 * (scale // q2), scale.bit_length() - 1
        m, h = (p1 + p2) // 2, (p2 - p1) // 2
        # f + t = (F tq + tp den) / (den tq) at t = tp/tq, f = F / den
        # (`level_picture`), over the least common denominator of its
        # coefficients
        tp, tq = to_rational(t._mpf_)
        plus_t = [c * tq for c in big_f]
        plus_t[0] += tp * f_den
        common = gcd(f_den * tq, *plus_t)
        plus_t, level_den = [c // common for c in plus_t], f_den * tq // common
        a, den = _in_xi(plus_t, level_den, m, h, u)
        q = a[2:]
        for i in range(len(q) - 3, -1, -1):
            q[i] += q[i + 2]
        r0, r1 = a[0] + q[0], a[1] + (q[1] if len(q) > 1 else 0)
        # max |r0 -+ r1| / den > max |coefficient| / 2^(prec/2), cross-multiplied:
        # den can have hundreds of thousands of bits, too many for a gcd
        top, rest = max(map(abs, plus_t)), max(abs(r0 - r1), abs(r0 + r1))
        if rest * level_den << (prec // 2) > top * den:
            raise ComputationError(f"the oval endpoints do not divide f + t {where}")
        # f + t = h^2 (1 - xi^2) g, in units of 2^-u for h
        k_xi = _in_xi(*k.over_integers(), m, h, u)
        oval, point = _fixed_oval((h, 1 << u), ([-c for c in q], (den * h * h) >> (2 * u)),
                                  k_xi, mode, z, wp, where)
        # the integrand's singularities in xi: the roots of g and, for
        # "cauchy", those of f + t - z, whose constant term is a0 - z den
        singular = [q]
        if z is not None:
            (zr, zq), (zi, ziq) = (to_rational(v._mpf_) for v in (z.real, z.imag))
            unit = max(zq, ziq)
            singular.append([(a[0] * unit - zr * (unit // zq) * den,
                              -zi * (unit // ziq) * den)] + [c * unit for c in a[1:]])
        return _phi_trapezoid(_oval_sum, oval, wp, 1 if mode == "dx_over_y" else 2, prec,
                              f"oval quadrature {where}", point,
                              (_bernstein_log2(singular), len(a) + len(k_xi[0]) - 2))


def _phi_trapezoid(kernel, fixed, wp: int, scale, prec: int, what: str, point: int,
                   bernstein: tuple | None = None):
    """scale times the integral over [0, pi] of an integrand in phi, from
    its trapezoid levels of n = 8, 16, 32, ... intervals; called inside
    mp.workprec(wp).  kernel(fixed, angles) sums the integrand as ints
    (pairs of ints) at `point` fractional bits, and `_table_level` adds
    each level's odd nodes to the exact doubled sum of the level before, so
    every node is evaluated once.  `fixed` ends with its copy of the angle
    levels of its binary point, which `_ANGLES` gets back only once the
    quadrature settles.  scale is an int or a raw mpc; it multiplies the
    settled value once, at wp.

    The value T_n is the first level n that settles, rounded at prec + 32
    bits; past 2^16 intervals it is an error.  Level n settles when |T_n -
    T_n/2| <= 2^-(prec + 8) (1 + |T_n|), tested exactly on the ints
    (`_settled_on_ints`, with |scale| to 64 bits when it is an mpc), and
    T_n is formed only once, at the level that settles.

    Given `bernstein` = (log2 R, d), level n > d also settles when 4 |T_n -
    T_n/2| R^-n <= 2^-(prec + 32) (1 + |T_n|).  R is the least
    Bernstein-ellipse parameter over the integrand's singularities in xi =
    -cos(phi): xi = -cos(phi) maps the ellipse E_R onto the strip |Im phi| <
    ln R, and level n takes 2n points per period of the even integrand, so
    its error falls like R^-2n (Trefethen and Weideman, SIAM Review 2014).
    Then |T_n - T_n/2| is about the error of T_n/2, of order R^-n, and that
    of T_n is about |T_n - T_n/2| R^-n.  The factor 4 takes up a pole of
    order up to 3, and the target 2^-(prec + 32) is the output's rounding,
    24 bits inside the tolerance.  Below level d + 1, d the degree of the
    integrand's polynomial factors in xi, the coefficients need not decay
    yet, so the rule waits.  R is an estimate from roots found in doubles,
    not a certificate: an even-multiplicity root of g is no singularity of
    sqrt g, so R is then a lower bound, and log2 R = 0 turns the rule off."""
    rnd = round_nearest
    if isinstance(scale, int):
        scaled_pi, size, unit = mpf_mul_int(mpf_pi(wp), scale, wp, rnd), abs(scale), 0
    else:
        scaled_pi = mpc_mul_mpf(scale, mpf_pi(wp), wp, rnd)
        _, size, unit, _ = mpc_abs(scale, 64)     # |scale| = size 2^unit

    def value(total, n):
        shift = 1 - n.bit_length()
        if not isinstance(total, tuple):
            return mp.make_mpf(mpf_mul(from_man_exp(total, -point - 1),
                                       mpf_shift(scaled_pi, shift), wp, rnd))
        half = (from_man_exp(total[0], -point - 1), from_man_exp(total[1], -point - 1))
        if isinstance(scale, int):
            return mp.make_mpc(mpc_mul_mpf(half, mpf_shift(scaled_pi, shift), wp, rnd))
        return mp.make_mpc(mpc_mul(half, mpc_shift(scaled_pi, shift), wp, rnd))
    last, n = None, 8
    while n <= 1 << 16:
        total = _table_level(kernel, fixed, n, last)
        if last is not None and _settled_on_ints(total, last, n, size, point - unit, prec,
                                                 bernstein):
            _ANGLES[fixed[0]] = fixed[-1]
            with mp.workprec(prec + 32):
                return +value(total, n)
        last, n = total, 2 * n
    raise ComputationError(f"{what} needs more than 2^16 nodes")


def _settled_on_ints(total, last, n: int, scale: int, point: int, prec: int,
                     bernstein: tuple | None) -> bool:
    """`_phi_trapezoid`'s level test on its exact doubled sums `total` of
    level n and `last` of level n/2 (ints, or pairs of ints), at `point`
    fractional bits: T_n = c total and T_n - T_n/2 = c (total - 2 last), c =
    scale pi / (n 2^(point + 1)).  The tolerance rule compares ints, with
    1/pi at 64 bits from `pi_fixed`; the Bernstein rule compares base-2
    logarithms, which `math.log2` takes of ints of any size."""
    pairs = list(zip(total, last)) if isinstance(total, tuple) else [(total, last)]
    diff_sq = sum((a - 2 * b) ** 2 for a, b in pairs)
    size_sq = sum(a * a for a, _ in pairs)
    # scale |d| 2^(prec + 8) <= n 2^(point + 1) / pi + scale |total|, times 2^64
    # and then by 2^-low, so that no shift is negative
    e = point + 1
    low = min(e, 0)
    inv_pi = (1 << 128) // pi_fixed(64)
    if (scale * isqrt(diff_sq) << (prec + 72 - low)
            <= (n * inv_pi << (e - low)) + (scale * isqrt(size_sq) << (64 - low))):
        return True
    if bernstein is None or n <= bernstein[1] or not bernstein[0] > 0:
        return False
    log_c = math.log2(scale * math.pi / n) - e
    size = log_c + math.log2(size_sq) / 2 if size_sq else -math.inf
    return (2 + log_c + math.log2(diff_sq) / 2 - n * bernstein[0]
            <= -(prec + 32) + (size if size > 64 else math.log2(1 + 2.0 ** size)))


def _bernstein_log2(polys) -> float:
    """log2 of the least Bernstein-ellipse parameter R = |u + sqrt(u^2 - 1)|
    (the root of larger modulus) over the roots u of the polynomials
    `polys`, each a list of coefficients, lowest first, the lower ones ints
    or (re, im) pairs of ints and the leading one a nonzero int; inf without
    roots, 0 when a polynomial's roots are not found.  The roots come from
    `machine_roots` on x = 2^k v, 2^k a Fujiwara bound read from the
    coefficients' bit lengths, so every double is at most 2 in size
    whatever the ints'.  R is shrunk by 2^-20 of itself, to stay below the
    true R despite the doubles' rounding."""
    least = math.inf
    for coeffs in polys:
        lead, lower = coeffs[-1], [c if isinstance(c, tuple) else (c, 0)
                                   for c in reversed(coeffs[:-1])]
        if not lower:
            continue
        size = [max(abs(re), abs(im)).bit_length() for re, im in lower]
        k = max((-((lead.bit_length() - 1 - b) // j) for j, b in enumerate(size, 1) if b),
                default=None)
        if k is None:       # lead x^d: every root is 0, on the segment
            return 0.0
        ratio = lambda c, j: (c / (lead << (j * k)) if j * k >= 0
                              else (c << (-j * k)) / lead)
        monic = [complex(ratio(re, j), ratio(im, j)) for j, (re, im) in enumerate(lower, 1)]
        roots = machine_roots(monic if any(v.imag for v in monic)
                              else [v.real for v in monic])
        if roots is None:
            return 0.0
        for v in roots:
            least = min(least, _ellipse_log2(v, k))
    return max(least + math.log2(1 - 2.0 ** -20), 0.0) if least < math.inf else least


def _ellipse_log2(v: complex, k: int) -> float:
    """log2 |u + sqrt(u^2 - 1)|, the root of larger modulus, at u = v 2^k;
    past |u| = 2^64 it is 1 + log2 |u| to far below the doubles' rounding."""
    if v == 0:
        return 0.0
    e = math.log2(abs(v)) + k
    if e > 64:
        return e + 1
    u = complex(math.ldexp(v.real, k), math.ldexp(v.imag, k))
    s = cmath.sqrt(u * u - 1)
    return math.log2(max(abs(u + s), abs(u - s)))


def _in_xi(p: list, p_den: int, m, h, u: int):
    """(c, den), integers, with sum p_i x^i / p_den = sum c_i xi^i / den
    (lowest first) at x = (m + h xi)/2^u: Horner on integer polynomials in
    xi.  m and h are ints or Gaussian integers (re, im), and then so is each
    c_i."""
    c = []
    if isinstance(m, tuple):
        (mr, mi), (hr, hi) = m, h
        for j, v in enumerate(reversed(p)):
            c = [(mr * ar - mi * ai + hr * br - hi * bi, mr * ai + mi * ar + hr * bi + hi * br)
                 for (ar, ai), (br, bi) in zip(c + [(0, 0)], [(0, 0)] + c)]
            c[0] = (c[0][0] + (v << (u * j)), c[0][1])
        return c, p_den << (u * max(len(c) - 1, 0))
    for j, v in enumerate(reversed(p)):
        c = [m * a + h * b for a, b in zip(c + [0], [0] + c)]
        c[0] += v << (u * j)
    return c, p_den << (u * max(len(c) - 1, 0))


def _fixed_oval(h, g, k, mode: str, z, wp: int, where: str):
    """`_oval_sum`'s oval, and the binary point of its node values, for the
    half-width h, g and k in xi = (x - m)/h (`_oval_quadrature`), each given
    exactly as integers over one denominator ((num, den), and (nums lowest
    first, den)), mode "y_dx", "dx_over_y" or "cauchy", and an mpc z for
    "cauchy".

    Each input is scaled by a power of two chosen from magnitudes known
    before any node, then floored to F fractional bits: g and k are divided
    by 2^a >= Ghat = sum |g_i| (a even, so sqrt g scales exactly) and 2^b >=
    Khat = sum |k_i|, the bounds of |g| and |k| on the oval, |xi| <= 1; h
    sin(phi) is divided by 2^c >= h; for "cauchy", y^2 - z is divided by
    2^(a + 2c + q), 2^q >= 1 + (|Re z| + |Im z|) / 2^(a + 2c).  Every scaled
    factor is then at most 1 and at least 1/4 at its bound.  The node's own
    power of two goes into its binary point, so the trapezoid sums exact
    ints.

    Error bound, with delta = 2^-wp.  F = wp + 8 + bits(max(deg g, deg k,
    1)), and the fixed-point cos and sin are within 2^5 units of 2^-F
    (`_cos_sin_pi`; at most 8.4 on every angle of n = 2^11 at F = 117, 190
    and 700, against mpmath at 2F).  Horner on |xi| <=
    1 (`horner_fixed`) then keeps h sin(phi), g and k within delta of their bounds h, Ghat
    and Khat, and every later floor costs one unit of 2^-F, below delta of
    the scaled bound.  To first order a node is therefore within delta N E
    of its exact value at these h, g and k, with
    N = Khat h^2 sqrt(Ghat) and E = 6 + sqrt(Ghat/g) for "y_dx";
    N = Khat / sqrt(g) and E = 3 + 2 Ghat/g for "dx_over_y";
    N = Khat h^2 sqrt(Ghat)/D and E = 6 + sqrt(Ghat/g) + 3 Dhat/D for
    "cauchy", D = |y^2 - z| and Dhat = h^2 Ghat + |z|.  E grows only where g
    or y^2 - z is small, as it does for a node in any arithmetic at wp; g
    in xi keeps Ghat/g near 1 unless another root of f + t is within about
    h of the oval, and a node with g <= delta Ghat is an error.  F depends
    only on wp and the degrees, because the scaling takes up every
    magnitude."""
    (gs, g_den), (ks, k_den) = g, k
    a = bound_exponent(sum(map(abs, gs)), g_den)
    a += a % 2
    b = bound_exponent(sum(map(abs, ks)), k_den) if any(ks) else 0
    c = bound_exponent(*h)
    point = wp + 8 + max(len(gs) - 1, len(ks) - 1, 1).bit_length()
    zs, q = None, 0
    if mode == "cauchy":
        zs = [Fraction(*to_rational(v._mpf_)) * Fraction(2) ** -(a + 2 * c)
              for v in (z.real, z.imag)]
        q = bound_exponent(*(1 + abs(zs[0]) + abs(zs[1])).as_integer_ratio())
        zs = tuple(to_fixed(*v.as_integer_ratio(), point - q) for v in zs)
    oval = (point, to_fixed(*h, point - c),
            tuple(to_fixed(v, g_den, point - a) for v in reversed(gs)),
            tuple(to_fixed(v, k_den, point - b) for v in reversed(ks)), mode, zs, q,
            1 << (point - wp), where, list(_ANGLES.get(point, ())))
    power = {"y_dx": b + a // 2 + 2 * c, "dx_over_y": b - a // 2, "cauchy": b - a // 2 - q}
    return oval, point - power[mode]


def _cos_sin_pi(j: int, n: int, point: int):
    """cos and sin of j pi/n, n a power of two at most 2^point, as ints at
    `point` fractional bits: j/n less its nearest half-integer q/2 (ties up,
    as in mpmath's `mpf_cos_sin`) times pi, by `cos_sin_basecase`, turned by
    q quarter turns.  The ints depend on j/n alone.  The fixed-point kernels
    read them from the table `_ANGLES` (`_angle_level`), which calls this once
    per angle and binary point and keeps only what settled quadratures
    reached."""
    q = ((4 * j) // n + 1) >> 1
    r = (j << point) // n - (q << (point - 1))
    cos, sin = cos_sin_basecase(r * pi_fixed(point) >> point, point)
    return ((cos, sin), (-sin, cos), (-cos, -sin), (sin, -cos))[q & 3]


# `_cos_sin_pi`'s ints for the oval, segment and ellipse nodes, one list of
# trapezoid levels per binary point: level 0 holds j = 0..8 of n = 8, level i
# the odd j of n = 8 * 2^i.  Every quadrature of one kind at one precision
# and degree shares F and visits the same angles.  Only settled quadratures
# add levels (`_phi_trapezoid`), at most the 14 levels to 2^16
# intervals: 2^16 + 1 pairs of F-bit ints, about 11 MB at F = 190 and 27 MB
# at F = 1100.
_ANGLES: dict[int, list] = {}


def _angle_level(levels: list, i: int, point: int) -> tuple:
    """Level i of `levels`, one binary point's list in `_ANGLES`: level 0
    holds j = 0..8 of n = 8, level i the odd j of n = 8 * 2^i.  The level
    just past the list is first appended whole."""
    if i == len(levels):
        n = 8 << i
        levels.append(tuple(_cos_sin_pi(j, n, point)
                            for j in (range(9) if i == 0 else range(1, n, 2))))
    return levels[i]


def _cos_sin_at(levels: list, j: int, n: int, point: int):
    """`_cos_sin_pi(j, n, point)`, 0 <= j <= n, read from `levels`
    (`_angle_level`): j/n on a level the list holds is index arithmetic, one
    on the next level first appends that whole level, and one deeper is
    computed on its own."""
    while n > 8 and not j & 1:
        j, n = j >> 1, n >> 1
    i, e = (0, j * (8 // n)) if n <= 8 else (n.bit_length() - 4, j >> 1)
    return _angle_level(levels, i, point)[e] if i <= len(levels) else _cos_sin_pi(j, n, point)


def _table_level(kernel, fixed, n: int, total):
    """`_phi_trapezoid`'s level n for a fixed-point integrand: kernel(fixed,
    angles) sums it over (cos, sin) pairs of ints, and `fixed` starts with
    their binary point and ends with its copy of that point's angle levels
    (`_ANGLES`).  Level 8 counts its ends once and its interior twice; each
    later level adds twice its odd nodes to `total`."""
    angles = _angle_level(fixed[-1], n.bit_length() - 4, fixed[0])
    if total is None:
        total, inner = kernel(fixed, angles[::8]), kernel(fixed, angles[1:8])
    else:
        inner = kernel(fixed, angles)
    if isinstance(total, tuple):
        return total[0] + 2 * inner[0], total[1] + 2 * inner[1]
    return total + 2 * inner


def _oval_sum(oval, angles):
    """The sum of a real oval's integrand over `angles`, (cos, sin) pairs of
    ints at phi, in fixed point (`_fixed_oval`): k y dx/dphi = k hs^2 sqrt(g)
    ("y_dx"), k dx/(y dphi) = k / sqrt(g) ("dx_over_y") or k y dx/((y^2 - z)
    dphi) ("cauchy", a pair of ints), with g and k at xi = -cos(phi).  Each
    node is floored on its own, so the sum does not depend on how the angles
    are grouped."""
    point, h, g, k, mode, z, q, floor, where, _ = oval
    total = total_im = 0
    if mode == "dx_over_y":
        for cos, _ in angles:
            gx = horner_fixed(g, -cos, point)
            if gx <= floor:
                break
            total += (horner_fixed(k, -cos, point) << point) // isqrt(gx << point)
        else:
            return total
    elif mode == "y_dx":
        for cos, sin in angles:
            gx = horner_fixed(g, -cos, point)
            if gx <= floor:
                break
            hs = h * sin >> point
            total += ((horner_fixed(k, -cos, point) * isqrt(gx << point) >> point)
                      * hs >> point) * hs >> point
        else:
            return total
    else:
        zr, zi = z
        for cos, sin in angles:
            gx = horner_fixed(g, -cos, point)
            if gx <= floor:
                break
            hs = h * sin >> point
            val = ((horner_fixed(k, -cos, point) * isqrt(gx << point) >> point)
                   * hs >> point) * hs >> point
            re = ((hs * hs >> point) * gx >> (point + q)) - zr
            norm = re * re + zi * zi
            total += (val * re << point) // norm
            total_im += (val * zi << point) // norm
        else:
            return total, total_im
    raise ComputationError("f + t has another root on the oval or a double root at an "
                           f"endpoint {where}")


def _oval_node(oval, j, n):
    """The oval kernel `_oval_sum` at the one angle phi = j pi/n, n a power
    of two: an int, or a pair of ints for "cauchy"."""
    return _oval_sum(oval, (_cos_sin_at(oval[-1], j, n, oval[0]),))


def integral_I(family: OvalFamily, k: RatPoly, t,
               config: Config = DEFAULT_CONFIG):
    """I(t) = 2 * integral of k(x) sqrt(f(x)+t) over the oval's x-range."""
    return _oval_quadrature(family, t, config, "y_dx", k)


def integral_I_prime(family: OvalFamily, k: RatPoly, t,
                     config: Config = DEFAULT_CONFIG):
    """I'(t) = integral of k(x)/sqrt(f(x)+t) over the oval's x-range."""
    return _oval_quadrature(family, t, config, "dx_over_y", k)


def cauchy_J(family: OvalFamily, k: RatPoly, t, z,
             config: Config = DEFAULT_CONFIG):
    """The Cauchy-type deformation J_t(z) over the closed oval: both y-signs
    traversed, which doubles the one-branch quadrature."""
    with mp.workprec(config.precision_bits + 32):
        z = mp.mpc(z)
        if z == 0:   # k y dx / y^2, which the kernel makes 0/0 at the ends
            return mp.mpc(2 * integral_I_prime(family, k, t, config))
    return _oval_quadrature(family, t, config, "cauchy", k, z=z)


def oval_form_integral(family: OvalFamily, omega: OneForm, t,
                       config: Config = DEFAULT_CONFIG):
    """Integral of an arbitrary polynomial 1-form over the closed oval
    (upper branch left to right, lower branch back): with omega = k y dx +
    dA + B d(y^2 - f) (`reduce_form`), dA closes up to 0 and d(y^2 - f)
    vanishes on the curve, so it is I(t) of k."""
    return integral_I(family, reduce_form(omega, family.f).k, t, config)


# ---------------------------------------------------------------------------
# complex loop integrals
# ---------------------------------------------------------------------------

_LOOP_MODES = ("y_dx", "dx_over_2y", "dx_over_y3", "cauchy")
_CONTOUR_MARGIN = 2 ** -7


def loop_integral(f: RatPoly, k: RatPoly, t, center, radius,
                  mode: str = "y_dx", z=None, semi_minor=None,
                  config: Config = DEFAULT_CONFIG):
    """Contour integral over an ellipse around `center` lifted to the curve
    y^2 = f(x) + t, with y the principal sqrt(f + t) at the ellipse's node
    x0 = center + radius.

    The contour is x = center + radius*cos(theta) + i*semi_minor*sin(theta)
    (a circle when semi_minor is omitted; both must be positive); it must
    enclose an even number of branch points so the lift closes up.  mode
    "y_dx" integrates k y dx, "dx_over_2y" integrates k/(2y) dx,
    "dx_over_y3" integrates k/y^3 dx, and "cauchy" integrates k y/(y^2 - z)
    dx, which needs z.

    The roots r of f + t, taken once, give the lift in closed form.  With c
    the center and 2j roots inside, y = C (x - c)^j prod_inside sqrt(1 - (r -
    c)/(x - c)) prod_outside sqrt((x - r)/(c - r)) on the contour: each
    factor is a principal root whose cut, the segment [c, r] inside the
    convex ellipse or the ray from r away from c outside it, the contour
    never crosses.  A "y_dx" or "dx_over_2y" loop around exactly two roots,
    with no root between the concentric similar ellipses scaled by 1 -+
    `_CONTOUR_MARGIN`, runs on the segment between them (`_segment_loop`);
    every other loop runs on the ellipse (`_ellipse_loop`).  Both sum
    fixed-point ints on `_phi_trapezoid` to 2^-(prec + 8).  An odd number
    of roots inside, or f + t = 0 at x0, is an error before any quadrature.
    """
    if mode not in _LOOP_MODES:
        raise InputError(f"loop mode must be one of {', '.join(_LOOP_MODES)}, got {mode!r}")
    if mode == "cauchy" and z is None:
        raise InputError("loop mode cauchy needs z")
    prec = config.precision_bits
    wp = prec + 52
    with mp.workprec(prec + 32):
        t, center, a = mp.mpc(t), mp.mpc(center), mp.mpf(radius)
        b = mp.mpf(semi_minor) if semi_minor is not None else a
        if not (a > 0 and b > 0):
            raise InputError("loop radius and semi_minor must be positive")
        z = mp.mpc(z)._mpc_ if z is not None else None
    with mp.workprec(wp):
        inside, outside, near = [], [], False
        for r in roots_of_shifted(f, -t, wp) if f.degree >= 1 else ():
            q = (mp.re(r - center) / a) ** 2 + (mp.im(r - center) / b) ** 2
            near = near or (1 - _CONTOUR_MARGIN) ** 2 < q < (1 + _CONTOUR_MARGIN) ** 2
            (inside if q < 1 else outside).append(r)
        if len(inside) % 2:
            raise ComputationError(
                "lifted contour does not close: odd number of branch points inside")
        x0 = center + a
        w0 = eval_poly(f, x0, wp) + t
        if w0 == 0:
            raise ZeroDivisionError("f + t vanishes at the loop's start node")
        what = f"loop quadrature at t = {mp.nstr(t, 8)}"
        if mode in ("y_dx", "dx_over_2y") and len(inside) == 2 and not near:
            return _segment_loop(f, k, inside, outside, x0, mp.sqrt(w0), mode, prec, what)
        return _ellipse_loop(f, k, t, center, a, b, mode, z, inside, outside, w0, prec,
                             what)


def _segment_loop(f: RatPoly, k: RatPoly, inside, outside, x0, s0, mode, prec: int,
                  what: str):
    """The loop around exactly the roots x1, x2 of f + t, collapsed onto
    [x1, x2], for `loop_integral`'s roots and s0 = sqrt(f(x0) + t).  With
    f + t = (x - x1)(x2 - x) g(x), x = m - h cos(phi) and W = i (x - m)
    sqrt(1 - h^2/(x - m)^2), cut on the segment, the lift is y = sigma W
    sqrt g, and W = h sin(phi) on the collapsed contour: the loop is sigma 2
    int_0^pi k (h sin phi)^2 sqrt g dphi ("y_dx") or sigma int_0^pi k/sqrt g
    dphi ("dx_over_2y"), sigma = +-1 making y = s0 at x0, as on the
    ellipse.  With g = -lc prod (x - r) over the other roots r, none inside
    the convex ellipse, which holds the segment, sqrt g = c prod sqrt(1 + xi
    e_r) in xi = (x - m)/h, c = sqrt(-lc) prod sqrt(m - r) and e_r = h/(m -
    r): each factor is the principal sqrt((x - r)/(m - r)), fixed by x alone
    and analytic off the ray from r away from m.  The nodes are fixed point
    (`_fixed_segment`), and the constant 2 sigma h^2 c (or sigma / c)
    multiplies the settled value.  Runs inside mp.workprec(prec + 52)."""
    wp = prec + 52
    (x1, x2), c = inside, mp.sqrt(-to_mpf(f.coeffs[-1], wp))
    m, h = (x1 + x2) / 2, (x2 - x1) / 2
    for r in outside:
        c *= mp.sqrt(m - r)
    u = x0 - m
    root_g0 = c
    for r in outside:
        root_g0 *= mp.sqrt((x0 - r) / (m - r))
    lift = 1j * u * mp.sqrt(1 - (h / u) ** 2) * root_g0
    sigma = 1 if abs(lift - s0) <= abs(lift + s0) else -1
    # m, h and the r as Gaussian integers over 2^e, so that k in xi and,
    # with d = m - r and c = d conj(h), each e_r = conj(c)/|d|^2 are exact
    (mg, (hr, hi), *rs), e = _gaussian([m, h] + list(outside))
    ds = [(mg[0] - re, mg[1] - im) for re, im in rs]
    cs = [(dr * hr + di * hi, di * hr - dr * hi) for dr, di in ds]
    k_xi = _in_xi(*k.over_integers(), mg, (hr, hi), e)
    segment, point = _fixed_segment(k_xi, [((cr, -ci), dr * dr + di * di)
                                           for (cr, ci), (dr, di) in zip(cs, ds)], mode, wp)
    # the singularities in xi: the rho_r = (r - m)/h, the roots of |h|^2 xi + c
    bernstein = (_bernstein_log2([[v, hr * hr + hi * hi] for v in cs]),
                 len(k_xi[0]) - 1 + (2 if mode == "y_dx" else 0))
    scale = 2 * sigma * h * h * c if mode == "y_dx" else sigma / c
    return _phi_trapezoid(_segment_sum, segment, wp, mp.mpc(scale)._mpc_, prec, what, point,
                          bernstein)


def _gaussian(values) -> tuple:
    """([(re, im), ...], u): Gaussian integers with each mpc of `values`
    equal to (re + i im)/2^u."""
    parts = [to_rational(v) for z in values for v in mp.mpc(z)._mpc_]
    q = max(den for _, den in parts)
    ints = [num * (q // den) for num, den in parts]
    return list(zip(ints[::2], ints[1::2])), q.bit_length() - 1


def _fixed_segment(k, ratios, mode: str, wp: int):
    """`_segment_sum`'s segment, and the binary point of its node values,
    for k in xi = (x - m)/h given exactly over the Gaussian integers ((nums,
    lowest first, as (re, im) pairs), den), the ratios e_r = h/(m - r) each
    as ((re, im), den) and mode "y_dx" or "dx_over_2y" (`_segment_loop`).

    As in `_fixed_oval`, each input is scaled by a power of two chosen from
    magnitudes known before any node, then floored to F fractional bits: k
    is divided by 2^b >= Khat = sum (|Re k_i| + |Im k_i|), and each factor
    w_r = 1 + xi e_r by an even 2^a >= 1 + |Re e_r| + |Im e_r| >= 1 + |e_r|,
    its bound for |xi| <= 1, so sqrt w_r scales exactly (`_sqrt_fixed`).
    The node's own power of two goes into its binary point, so the
    trapezoid sums exact ints.

    Error bound, with delta = 2^-wp.  F = wp + 8 + bits(max(deg k, the
    number of factors, 1)), and the angles' cos and sin are within 2^5
    units of 2^-F (`_fixed_oval`), so Horner on |xi| <= 1 keeps k within
    delta of Khat, each w_r within delta of its bound 1 + |e_r| and sin^2
    within delta of 1; every later floor costs a few units of 2^-F, below
    delta of the scaled bound.  A square root turns an error of w_r into a
    relative one of at most (1 + |e_r|)/(2 |w_r|) times it.  To first order
    a node is therefore within delta N E of its exact value at these k and
    e_r, with
    N = Khat prod sqrt(1 + |e_r|) and E = 3 + sum (1 + |e_r|)/|w_r| for "y_dx";
    N = Khat / prod sqrt|w_r| and E = 2 + sum (1 + |e_r|)/|w_r| for "dx_over_2y".
    E grows only where a w_r is small, next to the ray cut from r, which
    the segment keeps away from as `loop_integral`'s contour margin does."""
    ks, k_den = k
    b = bound_exponent(sum(abs(re) + abs(im) for re, im in ks), k_den) if any(
        re or im for re, im in ks) else 0
    point = wp + 8 + max(len(ks) - 1, len(ratios), 1).bit_length()
    factors, half_powers = [], 0
    for (re, im), den in ratios:
        a = bound_exponent(den + abs(re) + abs(im), den)
        a += a % 2
        factors.append((1 << (point - a), to_fixed(re, den, point - a),
                        to_fixed(im, den, point - a)))
        half_powers += a // 2
    segment = (point, tuple(to_fixed(re, k_den, point - b) for re, _ in reversed(ks)),
               tuple(to_fixed(im, k_den, point - b) for _, im in reversed(ks)),
               tuple(factors), mode, list(_ANGLES.get(point, ())))
    return segment, point - b + (half_powers if mode == "dx_over_2y" else -half_powers)


def _segment_sum(segment, angles):
    """The sum of a collapsed loop's integrand over `angles`, (cos, sin)
    pairs of ints at phi, in fixed point (`_fixed_segment`), as a pair of
    ints: sin^2 k prod sqrt(w_r) ("y_dx") or k / prod sqrt(w_r)
    ("dx_over_2y"), with k and w_r = 1 + xi e_r at xi = -cos(phi)."""
    point, k_re, k_im, factors, mode, _ = segment
    one = 1 << point
    total_re = total_im = 0
    for cos, sin in angles:
        x = -cos
        kr, ki = horner_fixed(k_re, x, point), horner_fixed(k_im, x, point)
        pr, pi = one, 0
        for unit, er, ei in factors:
            sr, si = _sqrt_fixed(unit + (x * er >> point), x * ei >> point, point)
            pr, pi = (pr * sr - pi * si) >> point, (pr * si + pi * sr) >> point
        if mode == "y_dx":
            s2 = sin * sin >> point
            kr, ki = kr * s2 >> point, ki * s2 >> point
            total_re += (kr * pr - ki * pi) >> point
            total_im += (kr * pi + ki * pr) >> point
        else:
            norm = pr * pr + pi * pi
            total_re += ((kr * pr + ki * pi) << point) // norm
            total_im += ((ki * pr - kr * pi) << point) // norm
    return total_re, total_im


def _sqrt_fixed(wr: int, wi: int, point: int) -> tuple:
    """The principal square root of wr + i wi, ints at `point` fractional
    bits, as a pair of ints at that point (0 at 0): the isqrt of the
    modulus gives the larger part, sqrt((|w| + |Re w|)/2), and the other
    part is Im w divided by twice it, so nothing cancels."""
    size, half = isqrt(wr * wr + wi * wi), point - 1
    if not size:
        return 0, 0
    if wr >= 0:
        sr = isqrt((size + wr) << half)
        return sr, (wi << half) // sr
    si = isqrt((size - wr) << half)
    si = -si if wi < 0 else si
    return (wi << half) // si, si


def _ellipse_loop(f: RatPoly, k: RatPoly, t, center, a, b, mode, z, inside, outside,
                  w0, prec: int, what: str):
    """`loop_integral` on the ellipse, for mpc t, center and w0 = f(x0) + t,
    mpf a and b, a raw mpc z (or None), and the roots inside and outside:
    with theta = 2 phi it is 2 int_0^pi of the integrand dx/dtheta at the
    angle theta, in fixed point (`_ellipse_sum`).  Runs inside
    mp.workprec(prec + 52).

    As in `_fixed_oval`, inputs are scaled by powers of two known before
    any node and floored to F fractional bits: x = 2^e u, 2^e >= |Re c| +
    |Im c| + max(a, b), so |u| <= 1; f + t and k in u by 2^s_f (even) and
    2^s_k >= the sums of their coefficients' absolute values
    (`numerics.scaled_fixed`), and y^2 - z by 2^(s_f + q) >= 2^s_f + |Re z|
    + |Im z|.  F = wp + 8 + bits(d) + d m, d = max(deg f, deg k, 1), where
    2^-m <= min(a, b) |rho - 1| / 2^e, rho = |(Re c / a, Im c / b)|, bounds
    |u| below on the contour (m at most ceil(wp/d)).  cos(theta) and
    sin(theta) are within 2^8 units of 2^-F, and the d m extra bits keep
    `horner_fixed`'s bound on f + t and k within 2^-(wp + 4) of Higham's
    bound at x itself.  So to first order a node is within 2^-wp N E of
    exact, N its size and E = 4 + 2 A/|f + t| (+ (A + |z|)/|y^2 - z| for
    "cauchy"), A that Horner bound: E grows only where f + t or y^2 - z is
    small, as for a node in any arithmetic at wp."""
    wp = prec + 52
    # the lift in units of a (`_lift`), and its factor C up to a positive
    # one: the direction of y at x0 over the lift there
    lift = (len(inside) // 2, float(b / a), [complex((r - center) / a) for r in inside],
            [complex(a / (center - r)) for r in outside])
    s0 = mp.sqrt(w0)
    lift_c = complex(s0 / abs(s0)) / _lift(lift, 1, 0)
    contour = (*center._mpc_, a._mpf_, b._mpf_)
    cr, ci, ar, br = (Fraction(*to_rational(v)) for v in contour)
    e = bound_exponent(*(abs(cr) + abs(ci) + max(ar, br)).as_integer_ratio())
    d = max(f.degree, k.degree, 1)
    with mp.workprec(53):
        low = min(a, b) * abs(mp.hypot(mp.re(center) / a, mp.im(center) / b) - 1)
    m = min(max(e + 1 - mp.mag(low), 0) if low else wp, -(-wp // d))
    point = wp + 8 + d.bit_length() + d * m
    fs, f_im, s_f = scaled_fixed(f, e, point, tuple(map(mpf_neg, t._mpc_)))
    if s_f % 2:
        fs, f_im, s_f = [c << 1 for c in fs], f_im << 1, s_f - 1
    ks, _, s_k = scaled_fixed(k, e, point)
    q, zs = 0, (0, 0)
    if mode == "cauchy":
        q = bound_exponent(*(1 + sum(abs(Fraction(*to_rational(v))) for v in z)
                             / Fraction(2) ** s_f).as_integer_ratio())
        zs = tuple(mpf_fixed(v, point - s_f - q) for v in z)
    ellipse = (point, tuple(mpf_fixed(v, point - e) for v in contour), fs, f_im, ks, mode,
               zs, q, lift, lift_c, list(_ANGLES.get(point, ())))
    power = {"y_dx": s_f // 2, "dx_over_2y": -s_f // 2 - 1, "dx_over_y3": -3 * s_f // 2,
             "cauchy": -s_f // 2 - q}[mode] + s_k + e
    return _phi_trapezoid(_ellipse_sum, ellipse, wp, 2, prec, what, point - power)


def _lift(lift, cos: float, sin: float) -> complex:
    """The lift y/C of `loop_integral` over a^j, in doubles, at x = c + a v
    with v = cos + i (b/a) sin: v^j times the principal roots of 1 - d/v
    over the roots inside and of 1 + v e over the roots outside, for
    `lift` = (j, b/a, the d = (r - c)/a, the e = a/(c - r)).  It only has
    to tell y from -y, so doubles are enough."""
    j, ratio, offsets, inverses = lift
    v = complex(cos, ratio * sin)
    val = v ** j
    for d in offsets:
        val *= cmath.sqrt(1 - d / v)
    for e in inverses:
        val *= cmath.sqrt(1 + v * e)
    return val


def _ellipse_sum(ellipse, angles):
    """The sum of the loop's integrand g(x, y) dx/dtheta over `angles`,
    (cos, sin) pairs of ints at phi, in fixed point (`_ellipse_loop`), as a
    pair of ints: theta = 2 phi by the double-angle formulas, so phi = 0 and
    pi are one node, x = c + a cos(theta) + i b sin(theta) = 2^e u, and y =
    +-sqrt(f(x) + t), the principal root (`_sqrt_fixed`) with the sign that
    makes Re(y conj(C `_lift`)) >= 0 in doubles.  A summand that divides by
    zero is an error."""
    point, (cr, ci, a, b), f, f_im, k, mode, (zr, zi), q, lift, lift_c, _ = ellipse
    one = 1 << point
    total_re = total_im = 0
    for cos, sin in angles:
        cos, sin = (cos * cos - sin * sin) >> point, cos * sin >> (point - 1)
        u = cr + (a * cos >> point), ci + (b * sin >> point)
        wr, wi = horner_fixed(f, u, point)
        wi += f_im
        yr, yi = _sqrt_fixed(wr, wi, point)
        guide = lift_c * _lift(lift, cos / one, sin / one)
        if yr / one * guide.real + yi / one * guide.imag < 0:
            yr, yi = -yr, -yi
        kr, ki = horner_fixed(k, u, point)
        tr, ti = -(a * sin >> point), b * cos >> point       # dx/dtheta
        nr, ni = (kr * tr - ki * ti) >> point, (kr * ti + ki * tr) >> point
        if mode in ("y_dx", "cauchy"):
            nr, ni = (nr * yr - ni * yi) >> point, (nr * yi + ni * yr) >> point
        if mode == "dx_over_2y":
            dr, di = yr, yi
        elif mode == "dx_over_y3":
            dr, di = (yr * wr - yi * wi) >> point, (yr * wi + yi * wr) >> point
        elif mode == "cauchy":
            dr, di = (wr >> q) - zr, (wi >> q) - zi
        else:       # y_dx: a division by 1, exact
            dr, di = one, 0
        norm = dr * dr + di * di
        if not norm:
            raise ZeroDivisionError("the loop integrand has a pole on the contour")
        total_re += ((nr * dr + ni * di) << point) // norm
        total_im += ((ni * dr - nr * di) << point) // norm
    return total_re, total_im


# ---------------------------------------------------------------------------
# the vanishing criterion through zero-dimensional integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstancyReport:
    constant: bool
    constant_value: Fraction | None
    residual: object
    certificate: dict


def vanishing_criterion(f: RatPoly, k: RatPoly, v: CycleVector,
                        config: Config = DEFAULT_CONFIG,
                        rep: MonodromyRep | None = None,
                        lattice: DivisorLattice | None = None) -> ConstancyReport:
    """Decide exactly whether the zero-dimensional integral of K = primitive
    of k over the 0-cycle v on fibers of f is constant in z.

    Constancy is linear feasibility: K - c0 must lie in the exact vanishing
    space of v for some constant c0; then the integral is c0 * sum(v).  With
    r and s the values of the vanishing conditions on K and on 1, that is
    r = c0 * s, a proportionality test: c0 is r_j / s_j at the first
    nonzero s_j, or 0 when s = 0.
    """
    if v.n != f.degree:
        raise InputError("cycle length does not match the polynomial degree")
    rep, lattice = group_data(f, config, rep, lattice)
    big_k = k.primitive()
    bound = max(0 if big_k.is_zero() else big_k.degree, 0)
    conditions = vanishing_conditions([v], lattice, bound)
    r = [sum(c * big_k.coeff(j) for j, c in enumerate(row)) for row in conditions]
    s = [row[0] for row in conditions]
    j = next((j for j, x in enumerate(s) if x), None)
    c0 = Fraction(0) if j is None else r[j] / s[j]
    if all(x == c0 * y for x, y in zip(r, s)):
        check = verify_vanishing_numeric(
            f, v, big_k - RatPoly.constant(c0), config=config, rep=rep)
        if not check.vanishes:
            raise ComputationError(
                "exact constancy certificate contradicted by the oracle")
        total = sum(v.v)
        return ConstancyReport(constant=True, constant_value=c0 * total,
                               residual=check.residual,
                               certificate={"offset": c0, "primitive": big_k})
    check = verify_vanishing_numeric(f, v, big_k, config=config, rep=rep)
    return ConstancyReport(constant=False, constant_value=None,
                           residual=check.residual,
                           certificate={"primitive": big_k})


# ---------------------------------------------------------------------------
# the pullback test for oval families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExthWitness:
    r: RatPoly
    exact: bool
    max_deviation: object
    samples: int


def check_exth(family: OvalFamily, k: RatPoly,
               config: Config = DEFAULT_CONFIG,
               samples: int = 24) -> ExthWitness | None:
    """Search for a nontrivial common right factor r of f and K = primitive
    of k with r(x1(t)) = r(x2(t)) along the family.

    A right factor of degree >= 2 divides deg f and, for a nonconstant K =
    K~(r), deg K, so gcd(deg f, deg K) < 2 is None before any decomposition.
    Each candidate, largest degree first, is proved before it is sampled,
    and a proved witness is exact with max_deviation 0 and no sample drawn:
    f(x1) = f(x2) = -t proves r of f's own degree, and for r = x^2 with f
    and K even `_symmetric_range_certificate` shows x1(t) = -x2(t) at every
    level between the first and the last of the `samples` levels
    (`OvalFamily.t_samples`).  Every other candidate is numeric evidence:
    |r(x1) - r(x2)| at most 2^-(prec/2) max(1, |r(x1)|) at each of the
    `samples` levels, the largest ratio being max_deviation, and not exact.
    `samples` is the count asked for, 1 to COUNT_LIMIT (else InputError
    before any root finding), however many were drawn.
    """
    sample_count(samples)
    f = family.f
    big_k = k.primitive()
    if f.is_zero() or f.degree < 2:
        return None
    if not big_k.is_constant() and gcd(f.degree, big_k.degree) < 2:
        return None
    prec = config.precision_bits
    candidates = [dec.right for dec in
                  sorted(decompose_all(f), key=lambda d: -d.right.degree)
                  if dec.right.degree >= 2
                  and all(part.is_constant() for part in w_adic(big_k, dec.right))]
    if not candidates:
        return None
    with mp.workprec(prec + 32):
        ts = family.t_samples(samples, mp.prec)
        for r in candidates:
            if r.degree == f.degree or _symmetric_range_certificate(f, big_k, r, family,
                                                                    ts[0], ts[-1]):
                return ExthWitness(r=r, exact=True, max_deviation=mp.mpf(0),
                                   samples=samples)
            worst = mp.mpf(0)
            good = True
            for t in ts:
                x1, x2 = oval_endpoints(family, t, prec)
                scale = max(mp.mpf(1), abs(eval_poly(r, x1, mp.prec)))
                dev = abs(eval_poly(r, x1, mp.prec) - eval_poly(r, x2, mp.prec))
                worst = max(worst, dev / scale)
                if dev > scale * mp.mpf(2) ** (-(prec // 2)):
                    good = False
                    break
            if good:
                return ExthWitness(r=r, exact=False, max_deviation=worst,
                                   samples=samples)
    return None


def _is_even_poly(p: RatPoly) -> bool:
    return all(c == 0 for i, c in enumerate(p.coeffs) if i % 2 == 1)


def _symmetric_range_certificate(f, big_k, r, family, lo, hi) -> bool:
    """Whether r = x^2 takes equal values at the pair's endpoints at every
    level between the mpf lo and hi, proved exactly: f and K are even, every
    turning point of f gives f + t one nonzero sign at lo and at hi
    (`realroots.turning_signs`), so no critical value lies between them and
    the real roots of f + t stay simple and keep their count, and at lo
    there are 2 pair_index + 2 of them with f + t positive between the pair.
    The pair is then the middle one of roots symmetric about 0, x1 = -x2 at
    every such level, and so are its correctly rounded endpoints, where x^2
    rounds to the same value."""
    if r != RatPoly.monomial(2) or not (_is_even_poly(f) and _is_even_poly(big_k)):
        return False
    lo, hi = to_rational(lo._mpf_), to_rational(hi._mpf_)
    signs = turning_signs(f, *lo, family.exact)
    if signs is None or signs != turning_signs(f, *hi, family.exact):
        return False
    roots, i = level_roots(f, *lo, family.exact), family.pair_index
    return 0 <= i and roots.count == 2 * i + 2 and roots.sign_between(i) > 0


# ---------------------------------------------------------------------------
# the confluence limit of the Cauchy integral
# ---------------------------------------------------------------------------

def local_cyclic_order(f: RatPoly, critical_point, n_local: int, z_probe, fiber: list,
                       config: Config = DEFAULT_CONFIG) -> list[int]:
    """Indices (into `fiber`, the sorted fiber of f at z_probe) of the n_local
    roots confluent at the critical point, ordered cyclically by the local
    monodromy around z = f(critical_point); the starting root is the one with
    the smallest (re, im).  The walked end is matched unrefined, as in
    `monodromy`."""
    with mp.workprec(config.precision_bits + 32):
        z_probe = mp.mpc(z_probe)
        order_all = sorted(range(len(fiber)),
                           key=lambda i: abs(fiber[i] - critical_point))
        cluster = sorted(order_all[:n_local])
        end = walk_fiber(f, polygon(0, z_probe, 0, 32), fiber, config)
        sigma = match_permutation(fiber, [mp.mpc(x) for x in end])
        start = cluster[0]
        out = [start]
        cur = sigma(start + 1) - 1
        while cur != start:
            if cur in cluster:
                out.append(cur)
            cur = sigma(cur + 1) - 1
        if len(out) != n_local:
            raise ComputationError("confluent roots are not a single local orbit")
        return out


@dataclass(frozen=True)
class Main4Report:
    per_sample: tuple
    max_relative_deviation: object


def main4_limit_check(f: RatPoly, k: RatPoly, combo: VanishingCycleCombo,
                      z_samples: list, critical_point,
                      config: Config = DEFAULT_CONFIG) -> Main4Report:
    """Compare the t->0 limit of J_t(z) over the vanishing loop with the
    closed zero-dimensional formula 2 pi sqrt(-z) d/dz of the integral of K.

    The derivative side is evaluated analytically as sum n_i k(x_i)/f'(x_i)
    over the confluent roots of f - z.  The limit side is J_0(z), one "cauchy"
    `loop_integral` at t = 0 around the critical point: the lift is closed-form
    and J_t(z) is continuous in t on that contour.  Agreement is up to the
    documented global sign of the square-root branch; a relative deviation
    above 2^-(precision_bits // 3) is a ComputationError.  The z samples and
    the critical point may be mpmath numbers, decimal strings or Fractions;
    each is converted at precision_bits + 32 bits.
    """
    prec = config.precision_bits
    df = f.derivative()
    rows = []
    if combo.n_local > f.degree:
        raise InputError(f"n_local must be at most the degree of f, {f.degree}, "
                         f"not {combo.n_local}")
    pairs = {key: Fraction(c) for key, c in combo.coefficients.items() if Fraction(c) != 0}
    local = vanishing_combo_to_cycle(combo, list(range(1, combo.n_local + 1)),
                                     combo.n_local)
    with mp.workprec(prec + 32):
        z_samples = [to_mpc(z, mp.prec) for z in z_samples]
        if any(z == 0 for z in z_samples):
            raise InputError("each z sample must be nonzero: z = 0 is the critical level")
        critical_point = to_mpc(critical_point, mp.prec)
        crit_level = eval_poly(f, critical_point, mp.prec)
        if abs(crit_level) > mp.mpf(2) ** (-(prec // 2)):
            raise InputError("critical level must be normalized to zero")
        worst = mp.mpf(0)
        for z in z_samples:
            fiber = roots_of_shifted(f, z, mp.prec)
            order = local_cyclic_order(f, critical_point, combo.n_local, z, fiber, config)
            deriv = mp.mpc(0)
            spread = mp.mpf(0)
            for coef, idx in zip(local.v, order):
                x_i = fiber[idx]
                spread = max(spread, abs(x_i - critical_point))
                deriv += (mp.mpf(coef.numerator) / coef.denominator
                          * eval_poly(k, x_i, mp.prec)
                          / eval_poly(df, x_i, mp.prec))
            formula = 2 * mp.pi * mp.sqrt(-z) * deriv

            if not pairs:
                limit = mp.mpc(0)
            elif combo.n_local == 2 and set(pairs) == {(1, 2)}:
                weight = pairs[(1, 2)]
                radius = 4 * spread
                others = [abs(x - critical_point) for i, x in enumerate(fiber)
                          if i not in order]
                if others and min(others) < 2 * radius:
                    raise ComputationError("confluent cluster is not isolated")
                limit = loop_integral(f, k, 0, critical_point, radius, mode="cauchy", z=z,
                                      config=config) * weight.numerator / weight.denominator
            else:
                raise ComputationError(
                    "the numeric limit contour is implemented for a single "
                    "Morse vanishing cycle; general combinations are covered "
                    "by the formula side")
            dev = min(abs(limit - formula), abs(limit + formula))
            rel = dev / max(abs(formula), mp.mpf(2) ** (-(prec // 2))) \
                if abs(formula) > 0 else dev
            if rel > mp.mpf(2) ** (-(prec // 3)):
                raise ComputationError(
                    f"the t = 0 contour misses the formula at z = {mp.nstr(z, 17)}: "
                    f"relative deviation {mp.nstr(rel, 3)} > 2^-{prec // 3}")
            worst = max(worst, rel)
            rows.append({"z": z, "limit": limit, "formula": formula,
                         "relative_deviation": rel})
        return Main4Report(per_sample=tuple(rows), max_relative_deviation=worst)
