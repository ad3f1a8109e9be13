"""mpmath-backed numeric primitives shared by the tracking and quadrature code.

Helpers take an explicit precision in bits, or use the caller's working
precision (`min_pairwise_distance`), and never change mpmath's global
state.  The hot leaves of tracking and quadrature
(`eval_poly` and its raw core `eval_poly_raw`, `min_pairwise_distance`) run
on mpmath's raw libmp values and round exactly as the same code on mpf/mpc
objects does.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import (from_int, fzero, mpc_abs, mpc_add_mpf, mpc_mul,
                          mpc_mul_int, mpc_sub, mpf_add, mpf_div, mpf_lt,
                          mpf_mul, mpf_mul_int, round_nearest)

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
    return _sorted_roots(poly_mpc_coeffs(p, prec), prec, "root finding")


def roots_of_shifted(p: RatPoly, z, prec: int) -> list:
    """Roots of p(x) - z for a numeric z (generically squarefree)."""
    coeffs = poly_mpc_coeffs(p, prec)
    with mp.workprec(prec):
        coeffs[-1] -= to_mpc(z, prec)
    return _sorted_roots(coeffs, prec, "fiber root finding")


def _sorted_roots(coeffs: list, prec: int, what: str) -> list:
    """Durand-Kerner roots at prec bits.  Near a multiple root it gains
    about one bit per step, so the step budget grows with prec; polyroots
    stops once it converges, so a larger budget never changes a result."""
    with mp.workprec(prec):
        try:
            rts = mpmath.polyroots(coeffs, maxsteps=max(200, 4 * prec), extraprec=prec)
        except mpmath.libmp.NoConvergence as exc:
            raise ComputationError(f"{what} did not converge: {exc}")
        return sorted(rts, key=lambda r: (mp.re(r), mp.im(r)))


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
