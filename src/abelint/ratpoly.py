"""Exact univariate polynomial algebra over the rationals.

A polynomial is a dense tuple of Fractions, constant term first, with no
trailing zero coefficient.  Everything in this module is exact: no floats
enter any computation.  The degree of the zero polynomial is the dedicated
sentinel NEG_INF rather than an integer, so accidental integer comparisons
cannot make a zero polynomial look like a constant.

Besides arithmetic this module provides the compositional machinery used
throughout the package: complete functional decomposition into left/right
factors, W-adic expansion, fiber traces via Newton's identities, Chebyshev
generators and exact cyclotomic divisibility.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ConsistencyError, InputError

NEG_INF = float("-inf")   # degree sentinel of the zero polynomial

_RatLike = Fraction | int | str


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise InputError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class RatPoly:
    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs=()):
        cs = [_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(*coeffs: _RatLike) -> "RatPoly":
        return RatPoly(coeffs)

    @staticmethod
    def zero() -> "RatPoly":
        return RatPoly(())

    @staticmethod
    def one() -> "RatPoly":
        return RatPoly((1,))

    @staticmethod
    def x() -> "RatPoly":
        return RatPoly((0, 1))

    @staticmethod
    def constant(c: _RatLike) -> "RatPoly":
        return RatPoly((_rat(c),))

    @staticmethod
    def monomial(k: int, c: _RatLike = 1) -> "RatPoly":
        if k < 0:
            raise InputError("monomial exponent must be nonnegative")
        return RatPoly((0,) * k + (_rat(c),))

    # -- basic queries ------------------------------------------------

    @property
    def degree(self):
        """Degree, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def over_integers(self) -> tuple:
        """(c, den): self = sum c_i x^i / den, with integers c (lowest
        first) and the least den > 0."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (den // c.denominator) for c in self.coeffs], den

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return RatPoly(a + b for a, b in
                       itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=Fraction(0)))

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return RatPoly(a - b for a, b in
                       itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=Fraction(0)))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return RatPoly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly(c * other for c in self.coeffs)
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = _rat(scalar)
        if scalar == 0:
            raise ZeroDivisionError("division of a polynomial by zero")
        return RatPoly(c / scalar for c in self.coeffs)

    def __pow__(self, k: int):
        if k < 0:
            raise InputError("negative polynomial power")
        result = RatPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quot = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlc = other.lc
        dn = len(other.coeffs)
        while len(rem) >= dn and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < dn:
                break
            c = rem[-1] / dlc
            k = len(rem) - dn
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
            rem.pop()
        return RatPoly(quot), RatPoly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    # -- evaluation / composition ------------------------------------

    def __call__(self, x):
        """Evaluate by Horner's rule.

        Works over any ring with +,* against Fractions: exact rationals,
        mpmath numbers, or another RatPoly (which yields composition).
        """
        if not self.coeffs:
            return x * 0
        acc = x * 0 + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    # -- calculus -----------------------------------------------------

    def derivative(self) -> "RatPoly":
        return RatPoly(k * c for k, c in enumerate(self.coeffs) if k >= 1)

    def primitive(self) -> "RatPoly":
        """Antiderivative with zero constant term."""
        return RatPoly([Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    # -- normalisation ------------------------------------------------

    def normalized(self) -> "RatPoly":
        """The monic, zero-constant-term representative (p - p(0)) / lc."""
        if self.is_constant():
            raise InputError("cannot normalize a constant polynomial")
        return (self - RatPoly.constant(self.coeff(0))) / self.lc

    # -- display ------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            if k == 0:
                body = f"{mag}"
            else:
                var = "x" if k == 1 else f"x^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append(f"{sign} {body}" if parts else f"{sign}{body}")
        return " ".join(parts)

    def __repr__(self):
        return f"RatPoly({str(self)})"


def _coerce(p) -> RatPoly:
    if isinstance(p, RatPoly):
        return p
    if isinstance(p, (int, Fraction)):
        return RatPoly((p,))
    raise InputError(f"cannot interpret {p!r} as a polynomial")


X = RatPoly.x()


# ---------------------------------------------------------------------------
# gcd / squarefree part
# ---------------------------------------------------------------------------

def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd over the rationals."""
    while not b.is_zero():
        a, b = b, a % b
    if a.is_zero():
        return a
    return a / a.lc


def squarefree_part(p: RatPoly) -> RatPoly:
    """p divided by gcd(p, p'): same roots, all simple."""
    if p.degree is NEG_INF or p.degree == 0:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p
    return p // g


# ---------------------------------------------------------------------------
# composition and decomposition
# ---------------------------------------------------------------------------

def compose(a: RatPoly, b: RatPoly) -> RatPoly:
    """The composition a(b(x)), expanded exactly."""
    return a(b)


@dataclass(frozen=True)
class Decomposition:
    """A functional decomposition p = left(right(x)).

    `right` is the canonical class representative: monic with zero
    constant term, so decompositions can be compared by equality.
    """
    left: RatPoly
    right: RatPoly

    def check_against(self, p: RatPoly) -> bool:
        return compose(self.left, self.right) == p


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _right_factor_candidate(p: RatPoly, m: int) -> RatPoly:
    """The unique monic, zero-constant candidate W of degree m with
    p = A(W) for some A, if such a decomposition exists.

    The coefficients of W are read off the top m-1 coefficients of p:
    with W = x^m + c_{m-1} x^{m-1} + ... + c_1 x, the coefficient of
    x^{n-k} in lc(p) * W^d depends linearly (slope d) on c_{m-k} and
    otherwise only on the already determined c's, so the system is
    triangular.  Whether A exists is checked separately via the W-adic
    expansion.
    """
    n = p.degree
    d = n // m
    if m == 1:
        return RatPoly.x()
    if m == n:
        return p.normalized()
    lc = p.lc
    w = RatPoly.monomial(m)
    for k in range(1, m):
        current = (w ** d).coeff(n - k)
        delta = (p.coeff(n - k) / lc - current) / d
        if delta != 0:
            w = w + RatPoly.monomial(m - k, delta)
    return w


def w_adic(q: RatPoly, w: RatPoly) -> list[RatPoly]:
    """Coefficients q_j with q = sum_j q_j(x) * w(x)^j and deg q_j < deg w."""
    if w.degree is NEG_INF or w.degree < 1:
        raise InputError("w_adic requires deg w >= 1")
    out = []
    r = q
    while not r.is_zero():
        r, rem = divmod(r, w)
        out.append(rem)
    return out


def from_w_adic(coeffs: list[RatPoly], w: RatPoly) -> RatPoly:
    acc = RatPoly.zero()
    for q_j in reversed(coeffs):
        acc = acc * w + q_j
    return acc


def decompose_all(p: RatPoly) -> list[Decomposition]:
    """All functional decompositions p = A(W), one canonical representative
    per linear-equivalence class of right factors, trivial ones included.

    Returned in increasing degree of the left factor (so W = normalized p
    first, W = x last).  For polynomials, two decompositions with equal
    left degree are equivalent, hence at most one entry per divisor.
    """
    n = p.degree
    if n is NEG_INF or n < 1:
        raise InputError("decompose_all requires a nonconstant polynomial")
    out = []
    for d in divisors(n):           # d = degree of the left factor
        m = n // d
        w = _right_factor_candidate(p, m)
        parts = w_adic(p, w)
        if not all(part.is_constant() for part in parts):
            continue
        left = RatPoly([part.coeff(0) for part in parts])
        dec = Decomposition(left, w)
        if not dec.check_against(p):
            raise ConsistencyError(f"decomposition candidate failed for d={d}")
        out.append(dec)
    return out


# ---------------------------------------------------------------------------
# fiber traces via Newton's identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TracePoly:
    """The sum of q over the fiber of w: sum_i q(w_i^{-1}(z)), as an exact
    polynomial in z.  Constant whenever deg q < deg w."""
    value: RatPoly

    def is_zero(self) -> bool:
        return self.value.is_zero()


def power_sums(w: RatPoly, count: int,
               sums: list[list[int]] | None = None) -> tuple[int, list[list[int]]]:
    """Power sums p_e = sum_i x_i^e of the roots of w(x) - z, e = 0..count,
    on integers: (D, P) with p_e = P[e] / D^e, P[e] the integer coefficients
    of a polynomial in z of degree at most e // m.  A table P of w from an
    earlier call, given as `sums`, is extended in place to e = count.

    w(x) - z is normalized to the monic x^m + c_1 x^(m-1) + ... + c_m, whose
    coefficients are rationals except c_m = (w_0 - z)/lc, which is linear in
    z.  With D the lcm of the denominators of the w_j/lc and of 1/lc, the
    y_i = D x_i are the roots of y^m + C_1 y^(m-1) + ... + C_m, C_i = D^i c_i,
    whose coefficients (in z too) are integers.  Newton's identities give
    their power sums P_k = -(C_1 P_(k-1) + ... + C_(k-1) P_1 + k C_k) for
    k <= m and P_k = -(C_1 P_(k-1) + ... + C_m P_(k-m)) beyond, and
    p_e = P_e / D^e.
    """
    m = w.degree
    if m is NEG_INF or m < 1:
        raise InputError("power_sums requires deg w >= 1")
    lc = w.lc
    scale = lcm(lc.numerator, *((a / lc).denominator for a in w.coeffs))
    c = [int(w.coeff(m - i) / lc * scale ** i) for i in range(m + 1)]  # c[m]: z-free
    zc = int(scale ** m / lc)                     # C_m = c[m] - zc * z
    p = sums or [[m]]
    for k in range(len(p), count + 1):
        acc = [0] * (k // m + 1)
        for i in range(1, min(k, m) + 1):
            ci = c[i]
            for j, a in enumerate(p[k - i] if i < k else [k]):
                if a:
                    acc[j] -= ci * a
                    if i == m:
                        acc[j + 1] += zc * a
        p.append(acc)
    return scale, p


def critical_value_poly(p: RatPoly) -> RatPoly:
    """The monic squarefree R whose roots are the distinct critical values of
    p: with d the squarefree part of p', Newton's identities turn s_k =
    Tr(p^k mod d) = sum p(c)^k over the distinct roots c of p', k = 1..deg d,
    into prod (z - p(c)), and R is its squarefree part."""
    if p.degree is NEG_INF or p.degree < 2:
        raise InputError("critical_value_poly requires deg p >= 2")
    dp = squarefree_part(p.derivative())
    m = dp.degree
    scale, sums = power_sums(dp, m - 1)
    traces = [Fraction(ps[0], scale ** j) for j, ps in enumerate(sums)]  # sum c^j
    rho, r, s, e = p % dp, RatPoly.one(), [], [Fraction(1)]  # e_0..e_m
    for k in range(1, m + 1):
        r = r * rho % dp
        s.append(sum(c * t for c, t in zip(r.coeffs, traces)))
        e.append(sum((-1) ** (i - 1) * e[k - i] * s[i - 1]
                     for i in range(1, k + 1)) / k)
    r = squarefree_part(RatPoly((-1) ** (m - j) * e[m - j] for j in range(m + 1)))
    return r / r.lc


def trace_poly(q: RatPoly, w: RatPoly) -> TracePoly:
    """sum_i q(w_i^{-1}(z)) over all deg(w) branches, exactly."""
    if w.degree is NEG_INF or w.degree < 1:
        raise InputError("trace_poly requires deg w >= 1")
    if q.is_zero():
        return TracePoly(RatPoly.zero())
    scale, sums = power_sums(w, len(q.coeffs) - 1)
    acc = [Fraction(0)] * len(sums[-1])
    for k, (c, ps) in enumerate(zip(q.coeffs, sums)):
        for j, a in enumerate(ps):
            acc[j] += c * a / scale ** k
    return TracePoly(RatPoly(acc))


# ---------------------------------------------------------------------------
# Chebyshev polynomials
# ---------------------------------------------------------------------------

def chebyshev(n: int) -> RatPoly:
    """T_n with T_0 = 1, T_1 = x, T_{n+1} = 2x T_n - T_{n-1}."""
    if n < 0:
        raise InputError("chebyshev index must be nonnegative")
    if n == 0:
        return RatPoly.one()
    prev, cur = RatPoly.one(), RatPoly.x()
    for _ in range(n - 1):
        prev, cur = cur, RatPoly.of(0, 2) * cur - prev
    return cur


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

_cyclotomic_cache: dict[int, RatPoly] = {}


def cyclotomic(n: int) -> RatPoly:
    """The n-th cyclotomic polynomial, computed by exact division of x^n - 1."""
    if n < 1:
        raise InputError("cyclotomic index must be positive")
    if n in _cyclotomic_cache:
        return _cyclotomic_cache[n]
    num = RatPoly.monomial(n) - RatPoly.one()
    for d in divisors(n)[:-1]:
        quot, rem = divmod(num, cyclotomic(d))
        assert rem.is_zero()
        num = quot
    _cyclotomic_cache[n] = num
    return num


def cyclotomic_remainder(n: int, coeffs: list | tuple) -> list:
    """The remainder of sum_i coeffs[i] x^i modulo the monic integer Phi_n,
    constant term first: integer coefficients stay integers."""
    phi = [c.numerator for c in cyclotomic(n).coeffs]
    e, rem = len(phi) - 1, list(coeffs)
    for i in range(len(rem) - 1, e - 1, -1):
        q = rem[i]
        rem[i - e:i + 1] = [r - q * c for r, c in zip(rem[i - e:i + 1], phi)]
    return rem[:e]


def cyclotomic_divides(n: int, u: RatPoly) -> bool:
    """Whether Phi_n divides u; equivalently u vanishes at a primitive
    n-th root of unity.  Requires deg u < n."""
    if not u.is_zero() and u.degree >= n:
        raise InputError("cyclotomic_divides requires deg u < n")
    return not any(cyclotomic_remainder(n, u.coeffs))
