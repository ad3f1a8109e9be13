"""mpmath-backed numeric primitives shared by the tracking and quadrature code.

Helpers take an explicit precision in bits, or use the caller's working
precision (`min_pairwise_distance`, `newton`), and never change mpmath's
global state.  The hot leaves of tracking and quadrature (`eval_poly` and
its raw core `eval_poly_raw`, `min_pairwise_distance`, `newton`) run on
mpmath's raw libmp values and round exactly as the same code on mpf/mpc
objects does.  Every root finding is `fiber_roots`: a double-precision
start refined by `newton`, with `mpmath.polyroots` as its fallback.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import (fone, from_int, fzero, mpc_abs, mpc_add_mpf, mpc_div,
                          mpc_mul, mpc_mul_int, mpc_sub, mpf_add, mpf_div,
                          mpf_gt, mpf_le, mpf_lt, mpf_mul, mpf_mul_int,
                          round_nearest)

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

    `_machine_roots` starts them in doubles on x = 2^k u, with 2^k near the
    Fujiwara bound of the monic coefficients (found in mp, so no coefficient
    needs to fit in a double).  `newton` refines each at `prec` bits to
    2^-(prec - 24) of max(|x|, 1), or of 2^k if that is below 1 (the mp
    tier's tolerance at prec = precision_bits + 32), with a move limit of
    0.35 x the start's gap, so the n results are n distinct roots.  Without
    such a start, or when a refine fails, `mpmath.polyroots` sweeps at
    2 x prec bits; near a multiple root it gains about one bit per step, so
    its step budget grows with prec."""
    with mp.workprec(prec):
        z = to_mpc(z, prec)
        coeffs = poly_mpc_coeffs(p, prec)
        coeffs[-1] -= z
        monic = [c / coeffs[0] for c in coeffs[1:]]
        k = max((-(-mp.mag(c) // j) for j, c in enumerate(monic, 1) if c), default=None)
        rts = None
        if k is not None:
            scaled = [c * mp.ldexp(1, -j * k) for j, c in enumerate(monic, 1)]
            start = _machine_roots([float(c.real) for c in scaled] if z.imag == 0
                                   else [complex(c) for c in scaled])
            if start is not None:
                gap, unit = pair_gap(start), mp.ldexp(1, k)
                limit = None if gap is None else mp.mpf(gap) * unit * mp.mpf("0.35")
                eps, dp = mp.ldexp(1, min(k, 0) + 24 - prec), p.derivative()
                rts = [newton(p, dp, z, mp.mpc(u) * unit, limit, eps) for u in start]
        if rts is None or None in rts:
            try:
                rts = map(mp.mpc, mpmath.polyroots(coeffs, maxsteps=max(200, 4 * prec),
                                                   extraprec=prec))
            except mpmath.libmp.NoConvergence as exc:
                raise ComputationError(f"root finding did not converge: {exc}")
        return sorted(rts, key=lambda r: (mp.re(r), mp.im(r)))


def _machine_roots(monic: list) -> list | None:
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
    real = [x for x in roots if x.imag == 0]
    upper = [x for x in roots if x.imag > 0]
    if len(real) + 2 * len(upper) != n:
        return None
    return real + upper + [x.conjugate() for x in upper]


def pair_gap(fiber):
    """min |a - b| over pairs of Python complex values, or None."""
    return min((abs(a - b) for i, a in enumerate(fiber) for b in fiber[i + 1:]),
               default=None)


def newton(p: RatPoly, dp: RatPoly, z, x0, move_limit, eps):
    """Newton's method for p(x) = z from x0, on raw libmp values rounded to
    nearest at the working precision (the same operations as on mpc
    objects).  None when p' vanishes, the accumulated move exceeds
    `move_limit`, or 64 steps do not converge to `eps` relative."""
    prec, rnd = mp.prec, round_nearest
    z, eps = z._mpc_, eps._mpf_
    limit = None if move_limit is None else move_limit._mpf_
    x = x0
    total = fzero
    for _ in range(64):
        d = eval_poly(dp, x, prec)._mpc_
        if d == (fzero, fzero):
            return None
        step = mpc_div(mpc_sub(eval_poly(p, x, prec)._mpc_, z, prec, rnd), d,
                       prec, rnd)
        xv = mpc_sub(x._mpc_, step, prec, rnd)
        x = mp.make_mpc(xv)
        size = mpc_abs(step, prec, rnd)
        if limit is not None:
            total = mpf_add(total, size, prec, rnd)
            if mpf_gt(total, limit):
                return None
        ax = mpc_abs(xv, prec, rnd)
        if mpf_le(size, mpf_mul(eps, ax, prec, rnd) if mpf_gt(ax, fone) else eps):
            return x
    return None


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
