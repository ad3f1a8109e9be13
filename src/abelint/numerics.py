"""mpmath-backed numeric primitives shared by the tracking and quadrature code.

Helpers take an explicit precision in bits, or use the caller's working
precision (`min_pairwise_distance`), and never change mpmath's global
state.  `eval_poly`, its raw core `eval_poly_raw` and
`min_pairwise_distance` run on mpmath's raw libmp values and round exactly
as the same code on mpf/mpc objects does.  Every root finding is
`fiber_roots`: a double-precision start refined by `newton_fixed`, with
`mpmath.polyroots` as its fallback.  Where the scale of every input is
known before the arithmetic, the hot loops run on Python ints at a fixed
binary point instead: `horner_fixed` is the one such evaluator, under the
oval nodes of the hyperelliptic quadrature, the one Newton at working
precision (`newton_fixed`) and the oracle's sample values (`fiber_values`).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import (from_float, from_int, from_man_exp, fzero, mpc_abs, mpc_add_mpf,
                          mpc_mul, mpc_mul_int, mpc_sub, mpf_add, mpf_div, mpf_lt,
                          mpf_mul, mpf_mul_int, mpf_neg, mpf_shift, round_nearest,
                          to_float, to_rational)

from .errors import ComputationError
from .ratpoly import RatPoly


def _fraction_mpf(x: Fraction, prec: int) -> tuple:
    """Raw mpf of a Fraction: the numerator rounded to `prec` bits, divided
    by the exact denominator and rounded to nearest again."""
    return mpf_div(from_int(x.numerator, prec, round_nearest),
                   from_int(x.denominator), prec, round_nearest)


def to_mpf(x, prec: int):
    """Conversion of str/Fraction/number to mpf at `prec` bits; a Fraction
    is converted as in `eval_poly`."""
    if isinstance(x, Fraction):
        return mp.make_mpf(_fraction_mpf(x, prec))
    with mp.workprec(prec):
        return mp.mpf(x)


def to_mpc(x, prec: int):
    if isinstance(x, Fraction):
        return mp.make_mpc((_fraction_mpf(x, prec), fzero))
    with mp.workprec(prec):
        return mp.mpc(x)


def poly_mpc_coeffs(p: RatPoly, prec: int) -> list:
    """Coefficients of p as mpc, highest power first (mpmath convention)."""
    return [mp.make_mpc((c, fzero)) for c in _raw_coeffs(p, prec)]


def _raw_coeffs(p: RatPoly, prec: int) -> tuple:
    """p's coefficients as raw mpf at `prec` bits, highest power first.

    They are converted once per precision and kept on the polynomial itself
    (in its instance dict: the frozen dataclass compares, hashes and prints
    `coeffs` only).
    """
    cache = vars(p).setdefault("_raw_coeffs", {})
    coeffs = cache.get(prec)
    if coeffs is None:
        coeffs = cache[prec] = tuple(_fraction_mpf(c, prec)
                                     for c in reversed(p.coeffs))
    return coeffs


def eval_poly(p: RatPoly, z, prec: int):
    """Horner evaluation of an exact polynomial at an mpf or mpc.

    Every product and sum is rounded to nearest at `prec` bits, exactly as
    the same Horner loop on mpf/mpc objects inside `mp.workprec(prec)`.
    The result type follows the argument: real stays real.
    """
    if hasattr(z, "_mpc_"):
        return mp.make_mpc(eval_poly_raw(p, z._mpc_, prec))
    return mp.make_mpf(eval_poly_raw(p, z._mpf_, prec))


def eval_poly_raw(p: RatPoly | tuple, z: tuple, prec: int) -> tuple:
    """`eval_poly` on mpmath's raw libmp values: z is a raw mpf (a 4-tuple)
    or a raw mpc (a pair of raw mpf), and the result is of the same kind.
    p may also be a tuple of raw mpf coefficients, highest power first."""
    coeffs = p if isinstance(p, tuple) else _raw_coeffs(p, prec)
    rnd = round_nearest
    if len(z) == 2:
        acc = mpc_mul_int(z, 0, prec, rnd)
        for c in coeffs:
            acc = mpc_add_mpf(mpc_mul(acc, z, prec, rnd), c, prec, rnd)
        return acc
    acc = mpf_mul_int(z, 0, prec, rnd)
    for c in coeffs:
        acc = mpf_add(mpf_mul(acc, z, prec, rnd), c, prec, rnd)
    return acc


def roots_of(p: RatPoly, prec: int) -> list:
    """All complex roots of a squarefree nonconstant p at `prec` bits,
    sorted by (re, im)."""
    return fiber_roots(p, 0, prec)


def roots_of_shifted(p: RatPoly, z, prec: int) -> list:
    """Roots of p(x) - z for a numeric z (generically squarefree)."""
    return fiber_roots(p, z, prec)


def fiber_roots(p: RatPoly, z, prec: int) -> list:
    """The roots of p(x) - z at `prec` bits, sorted by (re, im), as mpc.

    `machine_roots` starts them in doubles on x = 2^k u, with 2^k near the
    Fujiwara bound of the monic coefficients of p - z, formed exactly and
    rounded once (found in mp, so no coefficient needs to fit in a double).
    Without such a start, or when its refine fails, `mpmath.polyroots`
    sweeps the same polynomial in u at 2 x prec bits, with a step budget
    that grows with prec (near a multiple root it gains about one bit per
    step); for a real p - z, a root whose |Im| is under a quarter of its
    distance to the nearest other root (`match_permutation`'s margin) is put
    on the axis, and the others are paired as exact conjugates.
    `newton_fixed` refines the starts at prec - 32, to 2^-(prec - 23) of
    each root's own scale, into n distinct roots; a real p - z gives real
    roots and exact conjugates.  Where that fails on the sweep's roots,
    they are returned as they are."""
    with mp.workprec(prec):
        z = to_mpc(z, prec)
        re, im = z._mpc_
        coeffs = poly_mpc_coeffs(p, prec)
        coeffs[-1] = mp.make_mpc((_fraction_mpf(p.coeffs[0] - Fraction(*to_rational(re)),
                                                prec), mpf_neg(im)))
        monic = [c / coeffs[0] for c in coeffs[1:]]
        k = max((-(-mp.mag(c) // j) for j, c in enumerate(monic, 1) if c), default=0)
        scaled = [c * mp.ldexp(1, -j * k) for j, c in enumerate(monic, 1)]
        unit = mp.ldexp(1, k)
        start = machine_roots([float(c.real) for c in scaled] if z.imag == 0
                              else [complex(c) for c in scaled])
        rts = start and newton_fixed(p, z, [mp.mpc(u) * unit for u in start], prec - 32)
        if rts is None:
            try:
                sweep = [mp.mpc(u) * unit for u in mpmath.polyroots(
                    [1] + scaled, maxsteps=max(200, 4 * prec), extraprec=prec)]
            except mpmath.libmp.NoConvergence as exc:
                raise ComputationError(f"root finding did not converge: {exc}")
            if z.imag == 0:
                sweep = _conjugate_closed(sweep, [4 * abs(x.imag) < min(
                    (abs(x - y) for y in sweep if y is not x), default=mp.inf)
                    for x in sweep]) or sweep
            rts = newton_fixed(p, z, sweep, prec - 32) or sweep
        return sorted(rts, key=lambda r: (mp.re(r), mp.im(r)))


def _conjugate_closed(roots: list, real: list) -> list | None:
    """The roots of a real polynomial, Python complex values or mpc, with
    those flagged in `real` put on the axis and those below it replaced by
    the exact conjugates of those above; None when they do not pair up."""
    upper = [x for x, on_axis in zip(roots, real) if not on_axis and x.imag > 0]
    if sum(real) + 2 * len(upper) != len(roots):
        return None
    return ([type(x)(x.real) for x, on_axis in zip(roots, real) if on_axis]
            + upper + [x.conjugate() for x in upper])


def machine_roots(monic: list) -> list | None:
    """Roots of the monic polynomial with the lower coefficients `monic`
    (highest power first, Python floats or complex values) by
    `mpmath.polyroots`' Durand-Kerner sweep, started on the circle of the
    Fujiwara bound and stopped once the largest correction is at most 2^-50
    of the roots' scale, or once a sweep does not shrink it and it is at
    most 2^-20 of the roots' gap: rounding noise in doubles, far inside the
    refine's move limit of 0.35 x gap.  With float coefficients, parts below
    2^-40 of that scale are snapped to 0, and the roots below the real axis
    are replaced by the exact conjugates of those above.  None when 500
    sweeps do not converge or the roots do not pair up by conjugation."""
    n = len(monic)
    turn = complex(0.4, 0.9) / abs(complex(0.4, 0.9))
    radius = 2 * max(abs(c) ** (1 / k) for k, c in enumerate(monic, 1))
    roots = [radius * turn ** k for k in range(n)]
    try:
        last = math.inf
        for _ in range(500):
            worst = 0.0
            for i, x in enumerate(roots):
                v = 1.0
                for c in monic:
                    v = v * x + c
                for j, y in enumerate(roots):
                    if j != i:
                        v /= x - y
                roots[i] = x - v
                if not abs(v) <= worst:
                    worst = abs(v)       # NaN included, so it never converges
            scale = max(map(abs, roots))
            if worst <= 2.0 ** -50 * scale < math.inf:
                break
            if last <= worst <= 2.0 ** -20 * (pair_gap(roots) or 0.0) < math.inf:
                break
            last = worst
        else:
            return None
    except (ZeroDivisionError, OverflowError):
        return None
    if any(isinstance(c, complex) for c in monic):
        return roots
    tiny = 2.0 ** -40 * scale
    roots = [complex(0.0 if abs(x.real) < tiny else x.real,
                     0.0 if abs(x.imag) < tiny else x.imag) for x in roots]
    return _conjugate_closed(roots, [x.imag == 0 for x in roots])


def pair_gap(fiber):
    """min |a - b| over pairs of Python complex values, or None."""
    return min((abs(a - b) for i, a in enumerate(fiber) for b in fiber[i + 1:]),
               default=None)


def bound_exponent(num: int, den: int) -> int:
    """The least e with |num/den| <= 2^e, for num != 0 < den."""
    num = abs(num)
    e = num.bit_length() - den.bit_length()
    return e + ((num > den << e) if e >= 0 else (num << -e > den))


def to_fixed(num: int, den: int, e: int) -> int:
    """floor(num/den 2^e)."""
    return (num << e) // den if e >= 0 else num // (den << -e)


def horner_fixed(coeffs, x, point: int, derivative: bool = False):
    """The polynomial with int coefficients `coeffs` (highest power first)
    at x, an int or a complex (re, im) pair of ints, all at `point`
    fractional bits: its value, of x's kind, or for a complex x with
    `derivative` the pair (value, derivative).  Each product is floored to
    `point` bits once per part.

    Error bound, in units of 2^-point, for |x| <= 1: each of the n =
    len(coeffs) - 1 products floors at most one unit per part, and |x| <= 1
    keeps every earlier floor from growing, so the value is within n units
    (sqrt 2 n for a complex x) of the polynomial at these ints, and the
    derivative within n (n + 1).  A caller divides its coefficients a_i by
    a power of two 2^s >= sum |a_i| chosen before any call and floors them,
    at most n + 2 more units, so the value is within (3n + 2) 2^s units:
    for 2^s < 2 sum |a_i|, Higham's Horner bound 2 n u sum |a_i| |x|^i
    (*Accuracy and Stability of Numerical Algorithms*, 2nd ed., 5.1) at
    |x| = 1 with u = 2^-point, to a factor 5.  So a caller at working
    precision wp takes point = wp + 8 + bits(n) (`_fixed_oval`), plus the
    bits its scaling of x to |x| <= 1 loses against the bound at x itself
    (`newton_fixed`, `fiber_values`)."""
    if not isinstance(x, tuple):
        val = 0
        for c in coeffs:
            val = (val * x >> point) + c
        return val
    xr, xi = x
    vr = vi = dr = di = 0
    for c in coeffs:
        if derivative:
            dr, di = ((dr * xr - di * xi) >> point) + vr, ((dr * xi + di * xr) >> point) + vi
        vr, vi = ((vr * xr - vi * xi) >> point) + c, (vr * xi + vi * xr) >> point
    return ((vr, vi), (dr, di)) if derivative else (vr, vi)


def _root_exponent(x: tuple) -> int | None:
    """The e with 2^(e-1) <= |x| < 2^e, to a double's rounding, for a raw
    mpc x, or None for x = 0: read off the double of x scaled by a power of
    two, so x may lie outside the double range."""
    m = max((v[2] + v[3] for v in x if v[1]), default=None)
    if m is None:
        return None
    return m + math.frexp(math.hypot(*(to_float(mpf_shift(v, -m)) for v in x)))[1]


def _mpf_fixed(v: tuple, shift: int) -> int:
    """floor(v 2^shift) for a raw mpf v."""
    sign, man, exp, _ = v
    man, exp = -man if sign else man, exp + shift
    return man << exp if exp >= 0 else man >> -exp


def _scaled_fixed(p: RatPoly, e: int, point: int, z: tuple = (fzero, fzero)) -> tuple:
    """p(2^e u) - z in u, for a raw mpc z, divided by a power of two 2^s >=
    the sum of its coefficients' absolute values (s = 0 when it is 0) and
    floored once to `point` fractional bits: (the real parts, highest power
    first; the imaginary part of the constant; s).  The coefficients are
    written exactly over the integers first, so no magnitude has to fit a
    double and the floor is the only rounding."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    (zr, er), (zi, ei) = ((-v[1] if v[0] else v[1], v[2]) for v in z)
    k = min(0, e * (len(p.coeffs) - 1), er, ei)
    terms = [c.numerator * (den // c.denominator) << (e * j - k)
             for j, c in enumerate(p.coeffs)] or [0]
    terms[0] -= den * zr << (er - k)
    imag = -(den * zi << (ei - k))
    total = sum(map(abs, terms)) + abs(imag)
    shift = point - (bound_exponent(total, den) if total else -k)
    return ([to_fixed(c, den, shift) for c in reversed(terms)],
            to_fixed(imag, den, shift), point + k - shift)


# A refine moves no root farther from its start than this fraction of the
# least gap of the fiber it refines, so the n results are n distinct roots.
MOVE_LIMIT = Fraction(7, 20)


def newton_fixed(p: RatPoly, z, starts: list, prec: int) -> list | None:
    """The roots of p(x) = z near `starts`, the whole fiber as Python
    complex values or mpc of any size, by Newton's method in fixed point:
    mpc at prec + 32 bits, index-aligned with `starts`; z is an mpc.  This
    is the one Newton at working precision, under `fiber_roots`, the mp
    tracking tier and the oracle's end refines.  None when p' vanishes at an
    iterate, a root moves more than MOVE_LIMIT x the starts' least gap
    from its start, or 64 steps do not converge.  For a real z a real start
    stays real, and a start below the axis whose exact conjugate is a start
    gets the exact conjugate of that root (the floors are not symmetric
    under conjugation).

    Each root is scaled by its own power of two, x = 2^e u with 2^(e-1) <=
    |x0| < 2^e read off its start (`_root_exponent`; a start at 0 takes the
    fiber's largest e).  p(2^e u) - z is written exactly over the integers
    and floored once to F = wp + 8 + bits(n) + n fractional bits, with wp =
    prec + 32 and n = deg p (`_scaled_fixed`).  By `horner_fixed`'s bound
    every value of p - z is then within 2^-(wp + 4) sum |a_i| |x|^i of
    exact, Higham's bound at x itself: the n extra bits cover |u| >= 1/2,
    which puts the bound at 2^e within 2^n of the bound at x.  Newton stops
    once a step is at most tol = 2^-(prec + 9) max(|x|, 2^(e-1)), relative
    to the root's own scale with the start's scale as a floor, which ends it
    at a root at 0.  For x in its start's binade tol is at most 2^-(prec +
    8) max(1, |x|), and at most 2^-(prec + 8) 2^k for roots below the
    Fujiwara bound 2^(k+1) of p - z.  That test and the move limit compare
    squared integer norms.  So to first order each root is within 2^-(wp +
    4) sum |a_i| |x|^i / |p'(x)| + |p''(x) / p'(x)| tol^2 of a root of
    p - z, before its rounding to wp bits."""
    wp, rnd = prec + 32, round_nearest
    point = wp + 8 + p.degree.bit_length() + p.degree
    raw = [x._mpc_ if hasattr(x, "_mpc_") else (from_float(x.real), from_float(x.imag))
           for x in starts]
    exps = [_root_exponent(x) for x in raw]
    top = max((e for e in exps if e is not None), default=0)
    twins = {}
    if z._mpc_[1] == fzero:
        index = {x: i for i, x in enumerate(raw)}
        twins = {i: index[re, mpf_neg(im)] for i, (re, im) in enumerate(raw)
                 if im[0] and (re, mpf_neg(im)) in index}
    # the least gap of the starts, squared, at the scale 2^top
    at_top = [[_mpf_fixed(v, point - top) for v in x] for x in raw]
    gap = min(((a - c) ** 2 + (b - d) ** 2 for i, (a, b) in enumerate(at_top)
               for c, d in at_top[i + 1:]), default=None)
    reach = None if gap is None else math.floor(gap * MOVE_LIMIT ** 2)
    cache, out = {}, [None] * len(starts)
    for i, (x0, e) in enumerate(zip(raw, exps)):
        if i in twins:
            continue
        e = top if e is None else e
        if e not in cache:
            cache[e] = _scaled_fixed(p, e, point, z._mpc_)
        coeffs, imag, _ = cache[e]
        r0, i0 = ur, ui = [_mpf_fixed(v, point - e) for v in x0]
        for _ in range(64):
            (vr, vi), (dr, di) = horner_fixed(coeffs, (ur, ui), point, derivative=True)
            vi += imag
            norm = dr * dr + di * di
            if not norm:
                return None
            sr = ((vr * dr + vi * di) << point) // norm
            si = ((vi * dr - vr * di) << point) // norm
            ur, ui = ur - sr, ui - si
            if reach is not None and (ur - r0) ** 2 + (ui - i0) ** 2 > reach << 2 * (top - e):
                return None
            if (sr * sr + si * si) << (2 * prec + 18) <= max(ur * ur + ui * ui,
                                                             1 << 2 * (point - 1)):
                break
        else:
            return None
        out[i] = mp.make_mpc((from_man_exp(ur, e - point, wp, rnd),
                              from_man_exp(ui, e - point, wp, rnd)))
    for i, j in twins.items():
        re, im = out[j]._mpc_
        out[i] = mp.make_mpc((re, mpf_neg(im)))
    return out


def fiber_values(q: RatPoly, fibers, prec: int) -> list:
    """q at every root of every fiber (lists of mpc), each value a triple of
    ints (re, im, x) standing for (re + i im) 2^x: one evaluation of q
    serves the residuals of any number of cycles (`solver.cycle_residual`
    sums them exactly).  Each root is scaled by its own power of two as in
    `newton_fixed`, and q(2^e u) is floored once to F = wp + 8 + bits(d) +
    d fractional bits, wp = prec + 32 and d = max(deg q, 1), so each value
    is within 2^-(wp + 4) sum |q_j| |x|^j of q at the root."""
    wp, d = prec + 32, max(q.degree, 1)
    point = wp + 8 + d.bit_length() + d
    cache, rows = {}, []
    for fiber in fibers:
        row = []
        for x in fiber:
            e = _root_exponent(x._mpc_) or 0      # any scale serves a root at 0
            if e not in cache:
                cache[e] = _scaled_fixed(q, e, point)
            coeffs, _, s = cache[e]
            u = tuple(_mpf_fixed(v, point - e) for v in x._mpc_)
            row.append((*horner_fixed(coeffs, u, point), s - point))
        rows.append(row)
    return rows


def nstr_det(x, prec: int) -> str:
    """Deterministic decimal rendering at the precision's digit budget."""
    digits = max(8, int(prec * 0.30103) - 2)
    with mp.workprec(prec):
        return mpmath.nstr(mp.mpf(mp.re(x)) if mp.im(mp.mpc(x)) == 0 else x, digits)


def min_pairwise_distance(points: list):
    """min |a - b| over pairs of distinct indices, or None for fewer than two
    points, at the current working precision.  A real point counts as
    (x, 0); with points of at most that precision, as every fiber here is,
    the bits are those of `abs(a - b)` on mp objects.

    `mpc_abs` rounds sqrt(re^2 + im^2) with the sum rounded at prec+4 bits
    (or returns |re|, |im| when the other part is 0), so the pair with the
    smallest such square has the smallest distance: one square root per
    call instead of one per pair, with the same bits.
    """
    prec = mp.prec
    rnd = round_nearest
    pts = [x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero) for x in points]
    best = best_key = None
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            d = mpc_sub(a, b, prec, rnd)
            re, im = d
            if im == fzero:
                key = mpf_mul(re, re)
            elif re == fzero:
                key = mpf_mul(im, im)
            else:
                key = mpf_add(mpf_mul(re, re), mpf_mul(im, im), prec + 4)
            if best is None or mpf_lt(key, best_key):
                best, best_key = d, key
    return None if best is None else mp.make_mpf(mpc_abs(best, prec, rnd))
