"""mpmath-backed numeric primitives shared by the tracking and quadrature code.

All helpers take an explicit precision in bits and run inside a local
mpmath working-precision block, so callers never mutate global state.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp

from .errors import ComputationError, InputError
from .ratpoly import RatPoly, squarefree_part


def to_mpf(x, prec: int):
    """Conversion of str/Fraction/number to mpf at `prec` bits; a Fraction
    is divided by its exact denominator, as in `eval_poly`."""
    with mp.workprec(prec):
        if isinstance(x, Fraction):
            return mp.mpf(x.numerator) / x.denominator
        return mp.mpf(x)


def to_mpc(x, prec: int):
    with mp.workprec(prec):
        if isinstance(x, Fraction):
            return mp.mpc(x.numerator) / x.denominator
        return mp.mpc(x)


def poly_mpc_coeffs(p: RatPoly, prec: int) -> list:
    """Coefficients of p as mpc, highest power first (mpmath convention)."""
    with mp.workprec(prec):
        return [to_mpc(c, prec) for c in reversed(p.coeffs)]


def eval_poly(p: RatPoly, z, prec: int):
    """Horner evaluation of an exact polynomial at an mp number.

    The result type follows the argument: real stays real.
    """
    with mp.workprec(prec):
        acc = z * 0
        for c in reversed(p.coeffs):
            acc = acc * z + mp.mpf(c.numerator) / c.denominator
        return acc


def roots_of(p: RatPoly, prec: int, squarefree: bool = True) -> list:
    """All complex roots of p at `prec` bits, sorted by (re, im).

    With squarefree=True the exact squarefree part is factored out first,
    so clustered roots of the input cannot spoil convergence; each distinct
    root then appears once.
    """
    if p.is_zero():
        raise InputError("cannot take roots of the zero polynomial")
    target = squarefree_part(p) if squarefree else p
    if target.degree == 0:
        return []
    with mp.workprec(prec):
        coeffs = poly_mpc_coeffs(target, prec)
        try:
            rts = mpmath.polyroots(coeffs, maxsteps=200, extraprec=prec)
        except mpmath.libmp.NoConvergence as exc:  # pragma: no cover
            raise ComputationError(f"root finding did not converge: {exc}")
        return sorted(rts, key=lambda r: (mp.re(r), mp.im(r)))


def roots_of_shifted(p: RatPoly, z, prec: int) -> list:
    """Roots of p(x) - z for a numeric z (generically squarefree)."""
    with mp.workprec(prec):
        coeffs = poly_mpc_coeffs(p, prec)
        coeffs[-1] -= to_mpc(z, prec)
        try:
            rts = mpmath.polyroots(coeffs, maxsteps=200, extraprec=prec)
        except mpmath.libmp.NoConvergence as exc:
            raise ComputationError(f"fiber root finding did not converge: {exc}")
        return sorted(rts, key=lambda r: (mp.re(r), mp.im(r)))


def cluster_points(points: list, tol) -> list[list[int]]:
    """Group indices of near-coincident points (union-find on distance<tol)."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) < tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


def nstr_det(x, prec: int) -> str:
    """Deterministic decimal rendering at the precision's digit budget."""
    digits = max(8, int(prec * 0.30103) - 2)
    with mp.workprec(prec):
        return mpmath.nstr(mp.mpf(x) if mp.im(mp.mpc(x)) == 0 else x, digits)


def min_pairwise_distance(points: list):
    best = None
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = abs(points[i] - points[j])
            if best is None or d < best:
                best = d
    return best
