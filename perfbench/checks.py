"""Independent checks of the program's answers.

Everything here is the benchmark's own arithmetic: exact `Fraction`
moments and ranks, double-precision fibers from numpy, closed-form Beta
integrals and Gauss-Legendre quadrature.  Nothing from `abelint` is called;
the checks read only the plain data of the program's answers (coefficient
lists, cycle vectors, the labelled base fiber).  Each check has a negative
control in `selftest.py` and in the workloads, which it must reject.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from mpmath import mp

# -- exact polynomials: little-endian lists of Fractions ----------------------


def p_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def p_add(a, b):
    n = max(len(a), len(b))
    return p_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                   for i in range(n)])


def p_scale(a, c):
    return p_trim([c * x for x in a])


def p_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return p_trim(out)


def p_compose(a, b):
    """a(b(x))."""
    out = []
    for c in reversed(a):
        out = p_add(p_mul(out, b), [Fraction(c)])
    return out


def p_deriv(a):
    return p_trim([i * a[i] for i in range(1, len(a))])


def p_integrate(a):
    """Primitive with zero constant term."""
    return p_trim([Fraction(0)] + [Fraction(c) / (i + 1) for i, c in enumerate(a)])


def p_eval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def p_divmod(a, b):
    a, b = p_trim(a), p_trim(b)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    r = list(a)
    while len(r) >= len(b) and r:
        c = r[-1] / b[-1]
        s = len(r) - len(b)
        q[s] = c
        for i, y in enumerate(b):
            r[s + i] -= c * y
        r = p_trim(r)
    return p_trim(q), r


def in_pullback_ring(q, r) -> bool:
    """Whether q = A(r) for some polynomial A (repeated division by r)."""
    q = p_trim(q)
    while q:
        q, rem = p_divmod(q, r)
        if len(rem) > 1:
            return False
    return True


# -- exact linear algebra ------------------------------------------------------


def echelon(rows):
    """Reduced row echelon form over the rationals (list of nonzero rows)."""
    m = [list(map(Fraction, r)) for r in rows if any(r)]
    out = []
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i, r in enumerate(m) if r[c] != 0), None)
        if piv is None:
            continue
        pr = m.pop(piv)
        inv = 1 / pr[c]
        pr = [x * inv for x in pr]
        for r in m + out:
            f = r[c]
            if f:
                for j in range(c, ncols):
                    r[j] -= f * pr[j]
        m = [r for r in m if any(r)]
        out.append(pr)
    return out


def rank(rows) -> int:
    return len(echelon(rows)) if rows else 0


def poly_row(p, length):
    p = p_trim(p)
    if len(p) > length:
        raise ValueError("polynomial exceeds the row length")
    return [Fraction(c) for c in p] + [Fraction(0)] * (length - len(p))


def spans_contain(basis_polys, polys, length) -> bool:
    rows = [poly_row(b, length) for b in basis_polys]
    r0 = rank(rows)
    return rank(rows + [poly_row(p, length) for p in polys]) == r0


def low_degree_part(basis_polys, bound, low):
    """Basis of span(basis) intersected with polynomials of degree <= low."""
    rows = [list(reversed(poly_row(b, bound + 1))) for b in basis_polys]
    return [list(reversed(r)) for r in echelon(rows)
            if all(x == 0 for x in r[:bound - low])]


def same_span(a, b, length) -> bool:
    ra = [poly_row(p, length) for p in a]
    rb = [poly_row(p, length) for p in b]
    r = rank(ra)
    return r == rank(rb) and rank(ra + rb) == r


# -- problem (a): exact moments on interval systems ----------------------------


class MomentKernel:
    """The moments m_k(Q) = sum_w w * int_a^b P^k Q' dx, k = 0..K, exactly.

    `kernel_dim` is the dimension of {Q : deg Q <= D, m_0..m_K = 0}, constants
    included; it can only shrink as K grows, down to the true solution space.
    """

    def __init__(self, p, system, bound: int, order: int):
        self.p = [Fraction(c) for c in p]
        self.system = [(Fraction(a), Fraction(b), Fraction(w)) for a, b, w in system]
        self.bound = bound
        deg = len(self.p) - 1
        top = order * deg + bound
        # J_m = sum_w w * int_a^b x^m dx
        self.J = [sum(w * (b ** (m + 1) - a ** (m + 1)) / (m + 1)
                      for a, b, w in self.system) for m in range(top + 1)]
        self.powers = [[Fraction(1)]]
        for _ in range(order):
            self.powers.append(p_mul(self.powers[-1], self.p))
        # rows: moment k; columns: Q = x^e, e = 1..D
        self.matrix = [[e * sum(c * self.J[j + e - 1] for j, c in enumerate(pk))
                        for e in range(1, bound + 1)] for pk in self.powers]

    def moments(self, q) -> list[Fraction]:
        q = [Fraction(c) for c in q] + [Fraction(0)] * (self.bound + 1 - len(q))
        return [sum(row[e - 1] * q[e] for e in range(1, self.bound + 1))
                for row in self.matrix]

    def kernel_dim(self) -> int:
        return self.bound + 1 - rank(self.matrix)


def check_moment_answer(p, system, bound, basis) -> list[str]:
    """Problems with a returned moment basis; empty when the answer holds."""
    order = 2 * bound + 2
    mk = MomentKernel(p, system, bound, order)
    errors = []
    for i, q in enumerate(basis):
        if len(p_trim(q)) > bound + 1:
            errors.append(f"basis element {i} exceeds the degree bound")
        elif any(mk.moments(q)):
            errors.append(f"basis element {i} has a nonzero moment")
    span_dim = rank([poly_row(q, bound + 1) for q in basis]
                    + [poly_row([Fraction(1)], bound + 1)])
    kdim = mk.kernel_dim()
    if span_dim != kdim:
        errors.append(f"span(basis + 1) has dimension {span_dim}, the exact "
                      f"moment kernel at K={order} has {kdim}")
    return errors


def moment_rejects(p, system, bound, q) -> bool:
    """Negative control: q must have a nonzero moment."""
    mk = MomentKernel(p, system, bound, 2 * bound + 2)
    return any(mk.moments(q))


# -- problem (b): fibers in double precision -----------------------------------


def _match(prev, roots):
    """Labelled continuation: each previous root to its nearest new root."""
    out = []
    used = set()
    for x in prev:
        d = [abs(x - r) for r in roots]
        j = min(range(len(roots)), key=d.__getitem__)
        if j in used:
            raise ArithmeticError("fiber continuation lost a root")
        used.add(j)
        out.append(roots[j])
    return out


def fiber_at(p, base_point: float, base_fiber, z: float, steps: int = 16):
    """Roots of p(x) = z for real z >= base_point, labelled by continuation
    along the real axis from the program's labelled base fiber."""
    coeffs = [float(c) for c in reversed(p)]

    def roots(level):
        c = list(coeffs)
        c[-1] -= level
        return list(np.roots(c))

    fiber = _match([complex(x) for x in base_fiber], roots(base_point))
    for j in range(1, steps + 1):
        fiber = _match(fiber, roots(base_point + (z - base_point) * j / steps))
    return fiber


def max_cycle_residual(basis, cycles, fibers, bound) -> float:
    """Worst |sum_i v_i q(x_i)| over its condition scale
    sum_i |v_i| sum_j |q_j| |x_i|^j, over basis elements, cycles and fibers."""
    if not basis:
        return 0.0
    q = np.array([[float(c) for c in b] + [0.0] * (bound + 1 - len(b)) for b in basis])
    v = np.array([[float(c) for c in s] for s in cycles])
    worst = 0.0
    for fiber in fibers:
        x = np.array(fiber)
        powers = x[None, :] ** np.arange(bound + 1)[:, None]       # (B+1, n)
        num = np.abs((q @ powers) @ v.T)                            # (basis, cycles)
        den = (np.abs(q) @ np.abs(powers)) @ np.abs(v).T
        worst = max(worst, float(np.max(num / np.where(den > 0, den, 1.0))))
    return worst


def residue_class_vectors(n, d):
    """The indicator vectors of the residue classes mod d (a basis of V_d)."""
    return [[Fraction(1) if (i - k) % d == 0 else Fraction(0) for i in range(n)]
            for k in range(d)]


def orthogonal_to_classes(vectors, n, d) -> bool:
    return all(sum(a * b for a, b in zip(v, e)) == 0
               for v in vectors for e in residue_class_vectors(n, d))


def u_d_vectors(n, d, covered):
    """Exact basis of V_d orthogonal to every V_d' with d' covered by d."""
    vd = residue_class_vectors(n, d)
    cond = [[sum(a * b for a, b in zip(e, w)) for e in vd]
            for dt in covered for w in residue_class_vectors(n, dt)]
    if not cond:
        return vd
    ech = echelon(cond)
    pivots = [next(i for i, x in enumerate(r) if x != 0) for r in ech]
    free = [i for i in range(d) if i not in pivots]
    out = []
    for f in free:
        coef = [Fraction(0)] * d
        coef[f] = Fraction(1)
        for r, pc in zip(ech, pivots):
            coef[pc] = -r[f]
        out.append([sum(coef[k] * vd[k][i] for k in range(d)) for i in range(n)])
    return out


# -- problem (c): oval integrals ------------------------------------------------

REF_PREC = 256


def _mp(x):
    """mpf of a Fraction, int or float at the current precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def oval_roots(f, t, pair_index):
    """The adjacent real roots x1 < x2 of f + t bounding the oval, at REF_PREC."""
    with mp.workprec(REF_PREC):
        c = [mp.mpf(x.numerator) / x.denominator for x in f]
        c[0] += _mp(t)
        rts = mp.polyroots(list(reversed(c)), maxsteps=400, extraprec=REF_PREC)
        real = sorted(mp.re(r) for r in rts if abs(mp.im(r)) < mp.mpf(2) ** -100)
        return real[pair_index], real[pair_index + 1]


GL_ORDERS = (40, 56)     # nodes per panel; their difference estimates the error
GL_PANELS = 4
_GL_CACHE: dict = {}


def _gl_nodes(n):
    """n Gauss-Legendre nodes and weights on [-1, 1] at REF_PREC: double
    precision nodes from numpy, refined by Newton steps on P_n."""
    if n not in _GL_CACHE:
        with mp.workprec(REF_PREC + 16):
            out = []
            for x0 in np.polynomial.legendre.leggauss(n)[0]:
                x = mp.mpf(float(x0))
                for _ in range(5):
                    p0, p1 = mp.mpf(1), x
                    for k in range(2, n + 1):
                        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                    dp = n * (x * p1 - p0) / (x * x - 1)
                    x -= p1 / dp
                out.append((x, 2 / ((1 - x * x) * dp * dp)))
            _GL_CACHE[n] = out
    return _GL_CACHE[n]


def oval_reference(f, k, t, pair_index, kind, z=None):
    """Reference value of the program's oval integrals, with error estimate.

    kind "I": 2 int k y dx; "J": 2 int k y/(y^2-z) dx, over [x1, x2] with
    y = sqrt(f + t).  I on a quadratic f uses closed-form Beta integrals.
    Otherwise the substitution
    x = mid - (L/2) cos(phi) and f + t = (x - x1)(x2 - x) g(x) make the
    integrand smooth and periodic in phi, and composite Gauss-Legendre on
    GL_PANELS panels at two orders gives the value and its error estimate.
    """
    with mp.workprec(REF_PREC):
        x1, x2 = oval_roots(f, t, pair_index)
        span = x2 - x1
        kc = [mp.mpf(c.numerator) / c.denominator for c in k]
        fc = [mp.mpf(c.numerator) / c.denominator for c in f]
        fc[0] += _mp(t)
        if len(f) == 3 and kind == "I":
            a = -fc[2]                                 # f + t = a (x-x1)(x2-x)
            # k(x1 + L s) = sum_j e_j s^j
            e = [mp.mpf(0)] * len(kc)
            for i, c in enumerate(kc):
                for j in range(i + 1):
                    e[j] += c * mp.binomial(i, j) * x1 ** (i - j) * span ** j
            val = 2 * mp.sqrt(a) * span ** 2 * sum(
                ej * mp.beta(j + mp.mpf(3) / 2, mp.mpf(3) / 2) for j, ej in enumerate(e))
            return val, mp.mpf(0)
        # g = (f + t) / ((x - x1)(x2 - x)) by synthetic division
        g = _divide_root(_divide_root(list(fc), x1), x2)
        g = [-c for c in g]
        half = span / 2
        mid = (x1 + x2) / 2
        zc = mp.mpc(z) if z is not None else None

        def integrand(phi):
            s = mp.sin(phi)
            x = mid - half * mp.cos(phi)
            gx = _horner(g, x)
            kx = _horner(kc, x)
            root_g = mp.sqrt(gx)
            if kind == "I":
                return 2 * kx * half * half * s * s * root_g
            y = half * s * root_g
            return 2 * kx * y / (y * y - zc) * half * s

        vals = []
        width = mp.pi / GL_PANELS
        for order in GL_ORDERS:
            acc = 0
            for panel in range(GL_PANELS):
                for xn, w in _gl_nodes(order):
                    acc += w * integrand(width * (panel + (xn + 1) / 2))
            vals.append(acc * width / 2)
        return vals[1], abs(vals[1] - vals[0])


def _divide_root(c, r):
    """Coefficients (little-endian) of c(x) / (x - r), remainder dropped."""
    n = len(c) - 1
    out = [mp.mpf(0)] * n
    acc = mp.mpf(0)
    for i in range(n, 0, -1):
        acc = acc * r + c[i]
        out[i - 1] = acc
    return out


def _horner(c, x):
    acc = 0
    for v in reversed(c):
        acc = acc * x + v
    return acc


def oval_scale(f, k, t, pair_index, kind="I", z=None):
    """Natural size of an oval integral of k: the same integral of 1, times
    the largest |k| on the oval.  Double precision is plenty for a scale."""
    fc = np.array([float(x) for x in reversed(f)])
    fc[-1] += float(t)
    roots = sorted(r.real for r in np.roots(fc) if abs(r.imag) < 1e-9)
    x1, x2 = roots[pair_index], roots[pair_index + 1]
    nodes, weights = np.polynomial.legendre.leggauss(64)
    phi = (nodes + 1) * np.pi / 2
    x = (x1 + x2) / 2 - (x2 - x1) / 2 * np.cos(phi)
    y = np.sqrt(np.maximum(np.polyval(fc, x), 0.0))
    dx = (x2 - x1) / 2 * np.sin(phi) * np.pi / 2
    kernel = 2 * y if kind == "I" else 2 * y / (y * y - complex(z))
    one = abs(np.sum(weights * kernel * dx))
    kmax = max(abs(np.polyval([float(c) for c in reversed(k)], x1 + (x2 - x1) * j / 16))
               for j in range(17))
    return mp.mpf(one * kmax)


def relative_deviation(value, ref, scale):
    with mp.workprec(REF_PREC):
        return abs(mp.mpc(value) - ref) / scale


# -- one-forms -------------------------------------------------------------------


def _biv_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c != 0}


def expand_reduced_form(k, a_part, b_part, f):
    """dx and dy coefficients of k(x) y dx + dA + B d(y^2 - f)."""
    dx = {(i, 1): Fraction(c) for i, c in enumerate(k) if c != 0}
    dy = {}
    fprime = p_deriv([Fraction(c) for c in f])
    for (i, j), c in a_part.items():
        if i:
            dx = _biv_add(dx, {(i - 1, j): c * i})
        if j:
            dy = _biv_add(dy, {(i, j - 1): c * j})
    for (i, j), c in b_part.items():
        dy = _biv_add(dy, {(i, j + 1): 2 * c})
        dx = _biv_add(dx, {(i + m, j): -c * fm for m, fm in enumerate(fprime) if fm})
    return dx, dy


def form_matches(omega_dx, omega_dy, k, a_part, b_part, f) -> bool:
    dx, dy = expand_reduced_form(k, a_part, b_part, f)
    canon = lambda d: {key: Fraction(c) for key, c in d.items() if c != 0}
    return dx == canon(omega_dx) and dy == canon(omega_dy)


# -- the exth witness --------------------------------


def exth_witness_holds(f, k, r, t_values, pair_index) -> bool:
    """r is nontrivial, K = int k lies in C[r], and r(x1(t)) = r(x2(t))."""
    if len(p_trim(r)) < 3:
        return False
    if not in_pullback_ring(p_integrate(k), r):
        return False
    with mp.workprec(REF_PREC):
        rc = [mp.mpf(c.numerator) / c.denominator for c in r]
        for t in t_values:
            x1, x2 = oval_roots(f, t, pair_index)
            a, b = _horner(rc, x1), _horner(rc, x2)
            if abs(a - b) > mp.mpf(2) ** -100 * (1 + abs(a)):
                return False
    return True
