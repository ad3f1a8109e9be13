"""Exact isolation and correctly rounded refinement of the real roots of an
exact polynomial.

`RealRoots(p)` clears p's denominators and isolates the distinct real roots
of its squarefree part s by Sturm bisection at dyadic points, in integer
arithmetic only.  A root that is a bisection point is found exactly; every
other root gets an open dyadic interval with s of opposite nonzero signs at
its ends and no other root inside.  Multiplicities come from the gcd chain
p, gcd(p, p'), ... evaluated on those intervals.

`root(i, prec)` refines only the root asked for: Newton in floats inside the
isolating interval, then Newton on fixed-point integers, each iterate
bracketed by its exact sign.  The result is certified by the exact sign of s
halfway to the two neighbouring floats, so it is the root rounded to nearest
(ties to even) at `prec` bits, whatever the iteration did to get there.

`level_roots(f, p, q, kept)` gives the same `RealRoots` for f + p/q at
each of many levels without a Sturm chain per level: the roots are
bracketed between the turning points of f, isolated once in f's exact
picture (`level_picture`), which the caller keeps in `kept`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_man_exp, round_ceiling, round_floor, round_nearest

from .errors import ConsistencyError, InputError
from .ratpoly import RatPoly

# An integer polynomial is a list of ints, constant term first.  A dyadic
# point is a pair (n, e) standing for n / 2^e with e >= 0.


def _derivative(c: list) -> list:
    return [j * c[j] for j in range(1, len(c))]


def _primitive(c: list) -> list:
    g = math.gcd(*c)
    return c if g == 1 else [x // g for x in c]


def _prem(a: list, b: list) -> list:
    """The pseudo-remainder r of lc(b)^(deg a - deg b + 1) a = q b + r."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    for k in range(len(a) - len(b), -1, -1):
        top = r.pop()
        r = [x * lb for x in r]
        for j in range(db):
            r[k + j] -= top * b[j]
    while r and r[-1] == 0:
        r.pop()
    return r


def _sturm(c: list) -> list:
    """The Sturm sequence c, c', -rem, ... as primitive integer polynomials
    (each a positive multiple of the classical one).  It ends in a constant,
    or in gcd(c, c') when that is not constant."""
    seq = [c, _primitive(_derivative(c))]
    while len(seq[-1]) > 1:
        a, b = seq[-2], seq[-1]
        r = _prem(a, b)
        if not r:
            break
        # -rem(a, b) is -r / lc(b)^(deg a - deg b + 1)
        if b[-1] > 0 or (len(a) - len(b)) % 2:
            r = [-x for x in r]
        seq.append(_primitive(r))
    return seq


def _divide(a: list, b: list) -> list:
    """a / b for primitive a and b with b dividing a over the rationals (the
    quotient is then integral and primitive)."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(b) - 1] // b[-1]
        for j, x in enumerate(b):
            r[k + j] -= q[k] * x
    return q


def _value(c: list, n: int, e: int) -> int:
    """2^(e deg c) c(n / 2^e): the value's sign, in integers."""
    acc = c[-1]
    for k, x in enumerate(reversed(c[:-1]), 1):
        acc = acc * n + (x << (e * k))
    return acc


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _variations(seq: list, n: int, e: int) -> tuple:
    """(sign of seq[0], sign changes along seq with zeros dropped) at n/2^e."""
    head = _value(seq[0], n, e)
    count, last = 0, head
    for c in seq[1:]:
        v = _value(c, n, e)
        if v:
            if last and (v > 0) != (last > 0):
                count += 1
            last = v
    return _sign(head), count


def _root_bound(c: list) -> int:
    """k with every root of c strictly inside (-2^k, 2^k): Fujiwara's bound
    2 max |c_(d-j) / c_d|^(1/j), read off bit lengths."""
    d, top = len(c) - 1, abs(c[-1]).bit_length()
    k = 0
    for j in range(1, d + 1):
        if c[d - j]:
            k = max(k, -((top - 1 - abs(c[d - j]).bit_length()) // j))
    return k + 1


def _isolate(seq: list) -> list:
    """The distinct real roots of the squarefree seq[0], in increasing order,
    as (a, b, e, sign of seq[0] at a/2^e): a == b for an exact root a/2^e,
    otherwise the open interval (a/2^e, b/2^e), whose ends are not roots and
    do not straddle 0."""
    k = _root_bound(seq[0])
    out = []
    stack = [(-(1 << k), 1 << k, 0) + _variations(seq, -(1 << k), 0)
             + _variations(seq, 1 << k, 0)]
    while stack:
        a, b, e, sa, va, sb, vb = stack.pop()
        if a == b:
            out.append((a, b, e, 0))
            continue
        count = va - vb - (sb == 0)          # roots in the open (a, b)
        if count == 0:
            continue
        if count == 1 and sa and sb and not a < 0 < b:
            out.append((a, b, e, sa))
            continue
        m = a + b                           # the midpoint, at exponent e + 1
        sm, vm = _variations(seq, m, e + 1)
        stack.append((m, 2 * b, e + 1, sm, vm, sb, vb))
        if sm == 0:
            stack.append((m, m, e + 1, 0, 0, 0, 0))
        stack.append((2 * a, m, e + 1, sa, va, sm, vm))
    return out


def _vanishes(seq: list, root: tuple) -> bool:
    """Whether seq[0], a divisor of the polynomial whose isolated root this
    is, vanishes there; seq is its Sturm sequence."""
    a, b, e, _ = root
    if a == b:
        return _value(seq[0], a, e) == 0
    return _variations(seq, a, e)[1] > _variations(seq, b, e)[1]


def _dyadic(x) -> tuple:
    """An mpf as an exact dyadic point (n, e)."""
    sign, man, exp, _ = x._mpf_
    n = -man if sign else man
    return (n << exp, 0) if exp >= 0 else (n, -exp)


def _horner_float(c: list, x: float) -> tuple:
    f, g = c[-1], 0.0
    for a in reversed(c[:-1]):
        g = g * x + f
        f = f * x + a
    return f, g


def _horner_int(c: list, x: int) -> tuple:
    f, g = c[-1], 0
    for a in reversed(c[:-1]):
        g = g * x + f
        f = f * x + a
    return f, g


class RealRoots:
    """The real roots of an exact nonzero polynomial, isolated exactly and
    listed in increasing order with multiplicity."""

    @classmethod
    def _simple(cls, poly: list, roots: list) -> "RealRoots":
        """The roots of the primitive integer polynomial `poly`, all simple
        and given as `_isolate` lists them."""
        self = cls.__new__(cls)
        self._poly = self._s = poly
        self._roots, self._index = roots, list(range(len(roots)))
        return self

    def __init__(self, p: RatPoly):
        if p.is_zero():
            raise InputError("cannot take roots of the zero polynomial")
        poly = _primitive(p.over_integers()[0])
        self._poly = poly
        if len(poly) == 1:
            self._roots, self._index = [], []
            return
        seq = last = _sturm(poly)
        chain = []          # Sturm sequences of g1 = gcd(p, p'), gcd(g1, g1'), ...
        while len(last[-1]) > 1:
            last = _sturm(last[-1])
            chain.append(last)
        if chain:
            seq = _sturm(_divide(poly, chain[0][0]))
        self._s = seq[0]
        self._roots = _isolate(seq)
        self._index = []
        for j, root in enumerate(self._roots):
            mult = 1
            for g in chain:
                if not _vanishes(g, root):
                    break
                mult += 1
            self._index += [j] * mult

    @property
    def count(self) -> int:
        """The number of real roots, counted with multiplicity."""
        return len(self._index)

    def root(self, i: int, prec: int):
        """Root i (0-based, with multiplicity) rounded to nearest at prec bits."""
        return mp.make_mpf(self._refine(self._roots[self._index[i]], prec))

    def sign_between(self, i: int) -> int:
        """The sign of p strictly between roots i and i + 1: 0 when the two
        are one multiple root."""
        j = self._index[i]
        if self._index[i + 1] == j:
            return 0
        (_, b, e, _), (a, _, e2, _) = self._roots[j], self._roots[j + 1]
        top = max(e, e2)
        n, e = (b << (top - e)) + (a << (top - e2)), top + 1
        return _sign(_value(self._poly, n, e))

    def rank(self, x: Fraction) -> int:
        """The number of distinct roots strictly below the rational x."""
        u, q = x.numerator, x.denominator
        below = 0
        for a, b, e, sa in self._roots:
            ux = u << e                 # x against a/2^e and b/2^e, scaled
            if a == b or not a * q < ux < b * q:
                below += b * q <= ux and a * q < ux
            else:                       # x inside: the sign of s(x) decides
                s = self._s
                v = sum(c * u ** k * q ** (len(s) - 1 - k) for k, c in enumerate(s))
                below += v != 0 and (v > 0) != (sa > 0)
        return below

    def between(self, lo, hi, prec: int) -> list:
        """The distinct roots strictly between the mpf lo and hi, rounded to
        nearest at prec bits."""
        lo, hi = _dyadic(lo), _dyadic(hi)
        return [mp.make_mpf(self._refine(r, prec)) for r in self._roots
                if self._compare(r, *lo) > 0 and self._compare(r, *hi) < 0]

    # -- exact comparisons ----------------------------------------------

    def _compare(self, root: tuple, n: int, e: int) -> int:
        """The sign of (root - n/2^e)."""
        a, b, ea, sa = root
        if e < 0:
            n, e = n << -e, 0
        top = max(e, ea)
        u, a, b = n << (top - e), a << (top - ea), b << (top - ea)
        if a == b:
            return (a > u) - (a < u)
        if u <= a or u >= b:
            return 1 if u <= a else -1
        v = _value(self._s, n, e)
        return 0 if v == 0 else (1 if (v > 0) == (sa > 0) else -1)

    def _halve(self, j: int) -> None:
        """Halve the isolating interval of distinct root j in place, by the
        sign of s at its midpoint."""
        a, b, e, sa = self._roots[j]
        m = a + b
        v = _value(self._s, m, e + 1)
        if v == 0:
            self._roots[j] = (m, m, e + 1, 0)
        elif (v > 0) == (sa > 0):
            self._roots[j] = (m, 2 * b, e + 1, sa)
        else:
            self._roots[j] = (2 * a, m, e + 1, sa)

    # -- refinement -------------------------------------------------------

    def _refine(self, root: tuple, prec: int, newton: bool = True) -> tuple:
        """The raw mpf of the isolated root, rounded to nearest at prec bits.
        Without `newton`, the interval is only bisected; when that result
        does not certify either, the interval holds no root (an internal
        fault), which is a ConsistencyError."""
        a, b, e, sa = root
        if a == b:
            return from_man_exp(a, -e, prec, round_nearest)
        s = self._s
        if a == 0 or b == 0:
            # keep 0 off the ends, so that they bound the root's magnitude:
            # the first t >= 1 with far / 2^(e + t) between 0 and the root,
            # by galloping t = 1, 2, 4, ... and bisecting between the last
            # two steps.  Past `top` the point is below the bound 2^-k on the
            # root's magnitude, k from the reversed s (s(0) != 0 here)
            far, s0 = a + b, sa if a == 0 else -sa      # s0: the sign of s(0)
            top = max(1, _root_bound(s[::-1]) - e + abs(far).bit_length())
            lo, hi, t = 0, top, 1       # far / 2^(e + lo) lies past the root
            while lo + 1 < hi:
                v = _value(s, far, e + t)
                if v == 0:
                    return from_man_exp(far, -(e + t), prec, round_nearest)
                if (v > 0) == (s0 > 0):
                    hi = t
                else:
                    lo = t
                t = 2 * t if hi == top and 2 * t < top else (lo + hi) // 2
            a, b = (far, 2 * far) if far > 0 else (2 * far, far)
            e += hi
        # fixed point at scale 2^-w: at least 12 bits below the root's ulp
        w = max(e, prec + 13 + e - min(abs(a), abs(b)).bit_length())
        lo, hi = a << (w - e), b << (w - e)
        # a float seed for the root scaled by 2^-k, with k = 0 where both
        # ends fit in a double
        k = max(abs(a), abs(b)).bit_length() - e
        k = 0 if k < 1024 else k
        scale = 1 << (e + k)
        x = self._float_newton(a / scale, b / scale, k) if newton else None
        if x is not None:
            m, ex = math.frexp(x)
            shift = w + ex + k - 53
            x = int(m * (1 << 53))
            x = x << shift if shift >= 0 else x >> -shift
        if x is None or not lo < x < hi:
            x = (lo + hi) >> 1
        d = len(s) - 1
        scaled = [c << (w * (d - j)) for j, c in enumerate(s)]
        up, last = sa > 0, None
        while hi - lo > 1:
            f, g = _horner_int(scaled, x)
            if f == 0:
                return from_man_exp(x, -w, prec, round_nearest)
            if (f > 0) == up:
                lo = x
            else:
                hi = x
            # a root far past 2^prec (its ends have e >= 0) gets a fixed
            # point finer than 2^-16 of its ulp; those excess bits are left
            # out of the step and of the stop test
            excess = max(0, x.bit_length() - prec - 16)
            step = (f // (g << excess)) << excess if newton and g else None
            if step is not None and (lo < x - step < hi or abs(step) <= 1):
                x -= step
                # converging quadratically, the error left is about
                # step^3 / last^2: stop once that is a few units
                bits = abs(step).bit_length()
                if last is not None and 3 * bits - 2 * last <= 4 + excess:
                    break
                last = bits
            else:
                x, last = (lo + hi) >> 1, None
        raw = self._certify(root, from_man_exp(x, -w, prec, round_nearest), prec)
        if raw is None and newton:      # Newton stopped more than a few ulps away
            return self._refine(root, prec, newton=False)
        if raw is None:
            raise ConsistencyError("no root certified in the isolating interval "
                                   "({0}/2^{2}, {1}/2^{2})".format(*root))
        return raw

    def _float_newton(self, fa: float, fb: float, k: int):
        """A root u in (fa, fb) of s(2^k u) to about double precision, or
        None."""
        if not fa < fb:
            return None
        s = [c << (j * k) for j, c in enumerate(self._s)]
        big = max(abs(c) for c in s)
        cs = [c / big for c in s]
        x = (fa + fb) / 2
        for _ in range(60):
            f, g = _horner_float(cs, x)
            if not (g and math.isfinite(f) and math.isfinite(g)):
                return None
            step = f / g
            if not fa < x - step < fb:
                return None
            x -= step
            if abs(step) <= abs(x) * 2.0 ** -50:
                return x
        return None

    def _certify(self, root: tuple, raw: tuple, prec: int):
        """raw, or its neighbour one ulp at a time toward the root, once the
        root lies between the two points halfway to the adjacent floats;
        None after four steps."""
        for _ in range(5):
            sign, man, exp, bc = raw
            n = man << (prec - bc)
            n = -n if sign else n
            e = prec - bc - exp + 2         # raw = 4n / 2^e
            edge = 1 << (prec - 1)          # the spacing halves below 2^k
            below = 4 * n - (1 if n == edge else 2)
            above = 4 * n + (1 if n == -edge else 2)
            c_lo, c_hi = self._compare(root, below, e), self._compare(root, above, e)
            if c_lo == 0:                   # a tie: round half to even
                return from_man_exp(below, -e, prec, round_nearest)
            if c_hi == 0:
                return from_man_exp(above, -e, prec, round_nearest)
            if c_lo > 0 and c_hi < 0:
                return raw
            if c_hi > 0:
                raw = from_man_exp(4 * n + 1, -e, prec, round_ceiling)
            else:
                raw = from_man_exp(4 * n - 1, -e, prec, round_floor)
        return None


# -- levels of one polynomial --------------------------------------------------

def level_picture(f: RatPoly, kept: dict) -> tuple:
    """f's exact picture for `level_roots`: (F, den, turning, curvature)
    with f = F / den, F integers and den > 0, turning = `RealRoots(F')`,
    the turning points of f, and curvature the coefficients of |F''|.  It
    is built on first use and kept in `kept` beside f itself, which later
    calls match by identity, since hashing f costs more than a level's
    signs; another f replaces it.  f is not constant."""
    if kept.get("f") is not f:
        big_f, den = f.over_integers()
        slope = _derivative(big_f)
        kept.update(f=f, picture=(big_f, den, RealRoots(RatPoly(slope)),
                                  [abs(c) for c in _derivative(slope)]))
    return kept["picture"]


def level_roots(f: RatPoly, p: int, q: int, kept: dict) -> RealRoots:
    """`RealRoots(f + p/q)`, q > 0, read from f's turning points in its
    picture (`level_picture`, kept in `kept`), with no Sturm chain: the
    level polynomial is G = F q + p den, over the integers.

    The sign of G at a turning point c is exact when c is dyadic.  When c
    is isolated in (a, b) instead, G'(c) = 0, so by Taylor's theorem |G(x)
    - G(c)| <= (x - c)^2 M / 2 on [a, b], for M >= max |G''| there.  Once
    2 |G(a)| > (b - a)^2 M, with M = q sum_k |F''_k| max(|a|, |b|)^k, all
    in integers, |G(c)| > ((b - a)^2 - (c - a)^2) M / 2 >= (b - c)^2 M / 2,
    so G has the sign of G(a) at c and on all of [a, b], and both ends of
    c's interval can end a bracket.  Until then c's interval is halved, by
    the sign of the squarefree part of F' at its midpoint, in place on the
    picture, where later levels start from it.

    G is strictly monotone between neighbouring turning points, so each
    such piece, and each piece out to -+infinity (where G has the sign of
    its leading term), holds one simple root exactly when its end signs
    differ.  That root's bracket runs between the neighbouring turning
    intervals, out to -+2^B (`_root_bound` of G) at the outer ends, and is
    split at 0 when it straddles 0, as `_refine` needs.  `root` then
    refines and certifies each root as for `RealRoots(f + p/q)`, so the
    roots are the same bits.

    The one fallback is `RealRoots(f + p/q)` itself, taken when a turning
    point's sign does not settle within 64 halvings in one call: at a
    level on, or within about 2^-120 of, a critical value, so for every
    multiple root, and for a constant f, where every level is critical."""
    if f.degree >= 1:
        big_f, den, turning, curvature = level_picture(f, kept)
        g = [c * q for c in big_f]
        g[0] += p * den
        signs = [_turning_sign(turning, j, g, q, curvature)
                 for j in range(len(turning._roots))]
        if None not in signs:
            return RealRoots._simple(_primitive(g), _brackets(g, turning._roots, signs))
    return RealRoots(f + RatPoly.constant(Fraction(p, q)))


def _brackets(g: list, turning: list, signs: list) -> list:
    """The real roots of g, all simple, as `_isolate` lists them, given the
    isolating intervals of its turning points, at whose ends g has the
    signs `signs`: one root on each monotone piece whose end signs differ,
    bracketed between the neighbouring turning intervals, or out to
    -+2^B (`_root_bound`), and split at 0 when the bracket straddles it."""
    top = _sign(g[-1])
    signs = [top if len(g) % 2 else -top] + signs + [top]      # from -infinity
    far = 1 << _root_bound(g)
    ends = [(-far, 0)] + [(b, e) for _, b, e, _ in turning]
    starts = [(a, e) for a, _, e, _ in turning] + [(far, 0)]
    roots = []
    for (lo, e_lo), (hi, e_hi), sa, sb in zip(ends, starts, signs, signs[1:]):
        if sa == sb:
            continue
        e = max(e_lo, e_hi)
        lo, hi = lo << (e - e_lo), hi << (e - e_hi)
        if lo < 0 < hi:
            if g[0] == 0:
                roots.append((0, 0, 0, 0))
                continue
            lo, hi = (0, hi) if _sign(g[0]) == sa else (lo, 0)
        roots.append((lo, hi, e, sa))
    return roots


def _turning_sign(turning: RealRoots, j: int, g: list, q: int, curvature: list):
    """The nonzero sign of g at turning point j, and on all of its interval
    (`level_roots`), or None after 64 halvings."""
    for halvings in range(65):
        if halvings:
            turning._halve(j)
        a, b, e, _ = turning._roots[j]
        va = _value(g, a, e)
        if a == b:
            return _sign(va) or None
        if 2 * abs(va) > (b - a) ** 2 * q * _value(curvature, max(abs(a), abs(b)), e):
            return _sign(va)
    return None
