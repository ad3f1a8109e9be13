"""Numerical monodromy of a polynomial via root tracking along loops.

The group is computed from one petal loop per finite critical value plus a
large circle for the loop around infinity, all tracked with an adaptive
predictor-corrector (predictor: previous fiber, corrector: Newton on the
whole fiber), each step sized by how far the fiber can safely move (its
reach, `_reach`).  The step control runs on one of two tiers: the working
precision throughout, with `numerics.newton_fixed` as its corrector
(`track_fiber`, the reference), or machine complex arithmetic that hands
near-collision segments to the working precision (`_walk`, which every
loop, walk and oracle sample runs on).  A loop's permutation is read
at the foot of its circle.  The base fiber is numbered right after the
infinity loop, so that its permutation is the standard cycle (1 2 ... n),
which every downstream module relies on; the petal loops start from that
numbered fiber, so their permutations come out in the same numbering.
The petal loops run only when a generator is first read.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from typing import Callable, NamedTuple

from mpmath import mp

from .config import Config, DEFAULT_CONFIG
from .errors import ComputationError, ConsistencyError, InputError, TrackingError
from .numerics import (MOVE_LIMIT, eval_poly, fiber_roots, min_pairwise_distance,
                       newton_fixed, pair_gap, roots_of, to_mpc)
from .ratpoly import Decomposition, RatPoly, critical_value_poly, decompose_all
from .realroots import RealRoots


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, stored as the tuple of images of 1..n."""
    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise InputError(f"not a permutation of 1..{n}: {self.images}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def cycle(n: int) -> "Permutation":
        """The standard cycle (1 2 ... n)."""
        return Permutation(tuple(list(range(2, n + 1)) + [1]))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def then(self, other: "Permutation") -> "Permutation":
        """Apply self first, then other (path-concatenation order)."""
        return Permutation(tuple(other.images[j - 1] for j in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        seen, out = set(), []
        for i in range(1, self.n + 1):
            cyc, j = [], i
            while j not in seen:
                seen.add(j)
                cyc.append(j)
                j = self(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        result = 1
        for cyc in self.cycles():
            result = result * len(cyc) // math.gcd(result, len(cyc))
        return result


def generated_group_order(generators: list[Permutation]) -> int:
    """Exact order of <generators>, by deterministic Schreier-Sims (Seress,
    *Permutation Group Algorithms*, 2003, ch. 4).

    The base is 1, 2, ..., n.  Level k keeps the orbit of k under the strong
    generators that fix 1, ..., k - 1, each orbit point with a coset
    representative carrying k to it.  An element that does not sift to the
    identity joins the strong generators at the level where it stopped, and
    every orbit pair (point, strong generator) this adds queues its Schreier
    generator.  Once everything queued sifts to the identity, the chain is
    complete and the order is the product of the orbit lengths.
    """
    if not generators:
        return 1
    n = generators[0].n
    reps = {k: {k: Permutation.identity(n)} for k in range(1, n + 1)}
    strong = []                   # (level, strong generator)
    pending = list(generators)
    while pending:
        g = pending.pop()
        for k in range(1, n + 1):
            if g(k) not in reps[k]:
                break
            g = g.then(reps[k][g(k)].inverse())
        else:
            continue              # sifted to the identity
        strong.append((k, g))
        for j in range(1, k + 1):
            gens = [s for level, s in strong if level >= j]
            orbit = reps[j]
            old = set(orbit)
            todo = list(orbit)
            while todo:
                y = todo.pop()
                for s in gens:
                    if y in old and s is not g:
                        continue  # this pair was queued before
                    u = orbit[y].then(s)
                    if s(y) in orbit:
                        pending.append(u.then(orbit[s(y)].inverse()))
                    else:
                        orbit[s(y)] = u
                        todo.append(s(y))
    return math.prod(len(orbit) for orbit in reps.values())


# ---------------------------------------------------------------------------
# critical values
# ---------------------------------------------------------------------------

def exact_picture(p: RatPoly, kept: dict) -> tuple:
    """P's exact picture: `critical_value_poly(p)`, its `RealRoots` and the
    turning points `RealRoots(p')`, built on first use and kept in `kept`
    under p (a rep's `MonodromyRep.exact`, which `monodromy` fills)."""
    if p not in kept:
        r = critical_value_poly(p)
        kept[p] = r, RealRoots(r), RealRoots(p.derivative())
    return kept[p]


def critical_values(p: RatPoly, config: Config = DEFAULT_CONFIG,
                    exact: dict | None = None) -> list:
    """Distinct finite critical values of p, sorted by (re, im): the roots of
    `critical_value_poly(p)`, the real ones exactly real and correctly
    rounded at precision_bits + 32 bits, the others from `roots_of`.  The
    exact picture is kept in `exact` when given."""
    if p.is_zero() or p.degree < 2:
        raise InputError("critical_values requires deg p >= 2")
    prec = config.precision_bits + 32
    r, real, _ = exact_picture(p, {} if exact is None else exact)
    with mp.workprec(prec):
        values = [mp.mpc(real.root(i, prec)) for i in range(real.count)]
        if real.count < r.degree:
            rest = [v for v in roots_of(r, prec) if mp.im(v) != 0]
            if len(rest) != r.degree - real.count:
                # a non-real root was rounded onto the real axis
                raise ComputationError(
                    "a non-real critical value is too near the real axis to resolve")
            values += rest
        return sorted(values, key=lambda v: (mp.re(v), mp.im(v)))


# ---------------------------------------------------------------------------
# root tracking
# ---------------------------------------------------------------------------

class _Tier(NamedTuple):
    """The leaves `_track_segment`'s step control runs on."""
    num: Callable        # number constructor for the step arithmetic
    newton: Callable     # (z, fiber) -> the roots of p = z near fiber, or None
    gap: Callable        # fiber -> min pairwise distance, or None
    reach: Callable      # fiber -> `_reach` of it, or None
    collapse: Callable   # (z0, z1, t, gap, coll) -> raises


def _reach(gap, slopes):
    """The fiber's least gap times the least |p'| at its roots, or None for
    a lone root: to first order the distance in z over which its fastest
    root moves one gap, about 4 |z - c| next to a simple critical value c."""
    return None if gap is None else gap * min(map(abs, slopes))


def _mp_collapse(z0, z1, t, gap, coll):
    rel_gap = "none" if gap is None else mp.nstr(gap / coll, 8)
    raise TrackingError(
        f"step collapse on the segment {mp.nstr(z0, 8)} -> "
        f"{mp.nstr(z1, 8)} at t = {mp.nstr(t, 12)}: tracked roots "
        f"collided (last fiber gap {rel_gap} x collision_tol); "
        "path passes too near a critical value")


def _mp_tier(p: RatPoly, config: Config) -> _Tier:
    """The working precision, precision_bits + 32 in every caller: Newton in
    fixed point (`newton_fixed`), the gaps and the step arithmetic in mp."""
    dp = p.derivative()
    return _Tier(mp.mpf, lambda z, fiber: newton_fixed(p, z, fiber, config.precision_bits),
                 min_pairwise_distance, lambda fiber: _reach(
                     min_pairwise_distance(fiber), (eval_poly(dp, x, mp.prec) for x in fiber)),
                 _mp_collapse)


# Below this fiber gap relative to the fiber's scale, double-precision
# Newton (good to about 2^-53 / gap) hands the segment to the mp tier.
MACHINE_GAP_FLOOR = 2.0 ** -20
_MACHINE_EPS = 2.0 ** -44
_MACHINE_MOVE = float(MOVE_LIMIT)


class _Escalate(Exception):
    """The machine tier gives its segment up to the mp tier."""


def _escalate(*_):
    raise _Escalate


def _machine_gap(fiber):
    gap = pair_gap(fiber)
    if gap is not None and not gap >= MACHINE_GAP_FLOOR * max(1.0, *map(abs, fiber)):
        raise _Escalate      # near a collision, or not finite
    return gap


def _horner(coeffs, x):
    """The polynomial with coefficients `coeffs`, highest power first, at x."""
    v = 0j
    for c in coeffs:
        v = v * x + c
    return v


def _machine_newton(cp, cdp, z, fiber):
    """Newton on Python complex values for each root of `fiber`, stopping
    at 2^-44 relative, with MOVE_LIMIT x the fiber's gap as the limit on
    each root's path length; None when p' vanishes, a root moves too far or 64 steps do not
    converge.  A fiber gap under MACHINE_GAP_FLOOR or a value out of the
    double range escalates."""
    gap = _machine_gap(fiber)
    limit = None if gap is None else gap * _MACHINE_MOVE
    out = []
    for x in fiber:
        total = 0.0
        for _ in range(64):
            d = _horner(cdp, x)
            if d == 0:
                return None
            step = (_horner(cp, x) - z) / d
            x -= step
            size, ax = abs(step), abs(x)
            if not (size < math.inf and ax < math.inf):
                raise _Escalate
            if limit is not None:
                total += size
                if total > limit:
                    return None
            if size <= (_MACHINE_EPS * ax if ax > 1 else _MACHINE_EPS):
                out.append(x)
                break
        else:
            return None
    return out


def _double(x):
    """float(x) when x is 0 or lands on a finite, normal double; else None."""
    try:
        v = float(x)
    except OverflowError:
        return None
    return v if x == 0 or sys.float_info.min <= abs(v) < math.inf else None


def _machine_tier(p: RatPoly, dp: RatPoly, points: list) -> _Tier | None:
    """Python complex floats, or None when a coefficient of p or p' or a
    part of a path point is neither 0 nor a normal double."""
    cp = [_double(c) for c in reversed(p.coeffs)]
    cdp = [_double(c) for c in reversed(dp.coeffs)]
    if None in cp or None in cdp or any(_double(part) is None for z in points
                                        for part in (mp.re(z), mp.im(z))):
        return None
    return _Tier(float, lambda z, fiber: _machine_newton(cp, cdp, z, fiber),
                 _machine_gap,
                 lambda fiber: _reach(_machine_gap(fiber), (_horner(cdp, x) for x in fiber)),
                 _escalate)


def _track_segment(z0, z1, fiber, config: Config, tier: _Tier):
    """Continue `fiber` from z0 to z1 in steps h of the segment that move the
    fastest root about beta = `track_step` of the fiber's gap: h starts at
    beta x reach / |z1 - z0|, at most 1, and an accepted step scales it by
    beta x gap / move, at most 2, unless the step before was rejected.  A
    rejection halves h and fails below 2^-30; a reach of 0 or not finite
    fails at once."""
    length = abs(z1 - z0)
    if length == 0:
        return list(fiber)
    num = tier.num
    coll = num(config.collision_tol)
    beta = num(config.track_step)
    t = num(0)
    fiber = list(fiber)
    reach = tier.reach(fiber)
    if reach is not None and not 0 < reach < math.inf:
        tier.collapse(z0, z1, t, tier.gap(fiber), coll)
    h = beta if reach is None else min(num(1), beta * reach / length)
    grow = True
    while t < 1:
        step = min(h, 1 - t)
        z = z0 + (t + step) * (z1 - z0)
        new = tier.newton(z, fiber)
        ok = new is not None
        gap_new = None
        if ok and len(new) > 1:
            scale = max(num(1), max(abs(x) for x in new))
            gap_new = tier.gap(new)
            if gap_new < 10 * coll * scale:
                ok = False
        if ok:
            if grow:
                move = max(abs(a - b) for a, b in zip(new, fiber))
                h *= 2 if gap_new is None or 2 * move <= beta * gap_new else beta * gap_new / move
            fiber, t, grow = new, t + step, True
        else:
            h, grow = h / 2, False
            if h < num(2) ** -30:
                tier.collapse(z0, z1, t, tier.gap(fiber), coll)
    return fiber


def _refine(tier: _Tier, z, fiber, what: str) -> list:
    out = tier.newton(z, [to_mpc(x, mp.prec) for x in fiber])
    if out is None:
        raise TrackingError(f"{what} failed to refine")
    return out


def track_fiber(p: RatPoly, path: list, start_fiber: list,
                config: Config = DEFAULT_CONFIG) -> list:
    """Analytic continuation of a full fiber along a polyline, at the
    working precision precision_bits + 32, every step refined by
    `newton_fixed`.

    The i-th output is the continuation of the i-th input; deterministic
    for a fixed Config.  Raises TrackingError on root collision.
    """
    if len(path) < 1:
        raise InputError("path must contain at least one point")
    with mp.workprec(config.precision_bits + 32):
        tier = _mp_tier(p, config)
        points = [to_mpc(z, mp.prec) for z in path]
        fiber = _refine(tier, points[0], start_fiber, "start fiber")
        for a, b in zip(points, points[1:]):
            fiber = _track_segment(a, b, fiber, config, tier)
        return fiber


def _on_machine(fiber) -> bool:
    """Whether `fiber` holds machine floats, as the machine tier leaves it."""
    return isinstance(fiber[0], complex)


def _walk(points: list, fiber: list, config: Config, tier_mp: _Tier,
          tier_machine: _Tier | None) -> list:
    """Continue `fiber` along the polyline `points`, each segment on the
    machine tier when there is one and it does not escalate, else on the mp
    tier.  An escalation refines a fiber of machine floats at the working
    precision first.  The end holds Python complex values when the last
    segment ran on the machine tier, mpc values otherwise."""
    for a, b in zip(points, points[1:]):
        if tier_machine is not None:
            try:
                fiber = _track_segment(complex(a), complex(b),
                                       [complex(x) for x in fiber],
                                       config, tier_machine)
                continue
            except (_Escalate, OverflowError):
                if _on_machine(fiber):
                    fiber = _refine(tier_mp, a, fiber, "escalated fiber")
        fiber = _track_segment(a, b, fiber, config, tier_mp)
    return fiber


def walk_fiber(p: RatPoly, path: list, start_fiber: list,
               config: Config = DEFAULT_CONFIG) -> list:
    """`track_fiber`'s continuation, tracked in machine complex arithmetic.

    `start_fiber` is not refined, so it should be accurate at the working
    precision, as `fiber_roots` at it and `MonodromyRep.base_fiber` are.  A
    segment on which the fiber gap falls below MACHINE_GAP_FLOOR of its
    scale, the step below 2^-30, or a value out of the double range is
    tracked again from its start by the mp tier, which raises
    `track_fiber`'s errors.  A path whose polynomial or points do not fit
    in normal doubles runs on the mp tier throughout.  The end fiber is
    index-aligned with the start and not refined: Python complex values
    good to about 2^-53 / gap of the fiber's scale when the last segment
    ran on the machine tier, else mpc values good to
    2^-(precision_bits + 8).
    """
    if len(path) < 1:
        raise InputError("path must contain at least one point")
    dp = p.derivative()
    with mp.workprec(config.precision_bits + 32):
        points = [to_mpc(z, mp.prec) for z in path]
        return _walk(points, [to_mpc(x, mp.prec) for x in start_fiber], config,
                     _mp_tier(p, config), _machine_tier(p, dp, points))


def continue_fiber(p: RatPoly, path: list, start_fiber: list,
                   config: Config = DEFAULT_CONFIG) -> list:
    """`walk_fiber` with a machine-tier end refined by `newton_fixed`, the
    Newton of `track_fiber`'s own steps: the end agrees with `track_fiber`'s
    to its tolerance, and bit for bit when every segment ran on the mp tier
    and `start_fiber` is the refined fiber `track_fiber` starts from.  The
    start is not refined: the base fiber is refined once, in `monodromy`
    (`MonodromyRep.base_fiber`).  The oracle's residuals are sums over
    such fibers; a machine-tier end would put an error near 2^-44 into them.
    """
    fiber = walk_fiber(p, path, start_fiber, config)
    if not _on_machine(fiber):
        return fiber
    end = newton_fixed(p, to_mpc(path[-1], config.precision_bits + 32), fiber,
                       config.precision_bits)
    if end is None:
        raise TrackingError("end fiber failed to refine")
    return end


def match_permutation(start_fiber: list, end_fiber: list) -> Permutation:
    """Permutation sigma with end[i] ~ start[sigma(i)], verified bijective."""
    n = len(start_fiber)
    gap = min_pairwise_distance(start_fiber)
    images = []
    for i in range(n):
        best, j = min((abs(end_fiber[i] - start_fiber[j]), j) for j in range(n))
        if gap is not None and best > gap / 4:
            raise TrackingError("fiber endpoint does not match any start root")
        images.append(j + 1)
    if sorted(images) != list(range(1, n + 1)):
        raise TrackingError("fiber matching is not a bijection")
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# petal loop geometry
# ---------------------------------------------------------------------------

def _dist_point_segment(pt, a, b):
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0:
        return abs(pt - a)
    t = ((mp.re(pt - a) * mp.re(ab)) + (mp.im(pt - a) * mp.im(ab))) / denom
    t = max(0, min(1, t))
    return abs(pt - (a + t * ab))


def route(z0, z1, blockers, depth=0):
    """Polyline from z0 to z1 avoiding each blocker's standoff disk.

    Blocked segments detour around the offending point on a fixed side
    (direction rotated by -90 degrees, the upper side for rightward
    real-axis traffic).
    """
    if depth > 8:
        raise TrackingError("could not route a loop between critical values")
    near, wide = mp.mpf("1.6"), mp.mpf("1.5")     # at the caller's precision
    for b, r in blockers:
        if abs(b - z0) < near * r or abs(b - z1) < near * r:
            continue
        if _dist_point_segment(b, z0, z1) < wide * r:
            direction = (z1 - z0) / abs(z1 - z0)
            w = b + 3 * r * direction * mp.mpc(0, -1)
            left = route(z0, w, blockers, depth + 1)
            right = route(w, z1, blockers, depth + 1)
            return left[:-1] + right
    return [z0, z1]


def standoffs(cvs, base_radius):
    """Radius of each critical value's disk that paths keep out of: a
    quarter of the distance to the nearest other one (base_radius / 8 for a
    lone critical value)."""
    return [min((abs(c - d) for j, d in enumerate(cvs) if j != i),
                default=base_radius / 2) / 4 for i, c in enumerate(cvs)]


def _projection_gap(points, u):
    """The smallest gap between the sorted real parts of the points * u."""
    projs = sorted((p * u).real for p in points)
    return min((b - a for a, b in zip(projs, projs[1:])), default=1)


def _sweep_rotation(cvs, c0):
    """A deterministic rotation making the sweep projections of all
    critical values (and the base point) pairwise distinct, chosen with
    the best separation margin among a fixed candidate list (the first of
    equal margins), with that margin.

    The candidates are scored in doubles, whose gaps are good to about
    2^-49 of the points' scale; only the chosen rotation's gap is computed
    again in mp.  When the best two double gaps are within 2^-40 of that
    scale, or a point is not a finite double, every candidate is scored in
    mp, so the choice is always the one of the mp scan.
    """
    points = list(cvs) + [mp.mpc(c0)]

    def phi(j):
        return mp.pi * j / mp.mpf(149)

    def gap(j):
        return _projection_gap(points, mp.exp(mp.mpc(0, -1) * phi(j)))

    floats = [complex(p) for p in points]
    scale = max(map(abs, floats))
    if scale < math.inf:
        scores = [_projection_gap(floats, cmath.exp(-1j * math.pi * j / 149))
                  for j in range(48)]
        second, best = sorted(scores)[-2:]
        if best - second > 2.0 ** -40 * scale:
            j = scores.index(best)
            return phi(j), gap(j)
    gaps = [gap(j) for j in range(48)]
    j = gaps.index(max(gaps))
    if gaps[j] <= 0:
        raise ComputationError("could not separate critical values by a sweep")
    return phi(j), gaps[j]


def polygon(center, radius, turn, count: int = 16) -> list:
    """The count-gon center + radius e^(i pi (turn + 2j/count)), j = 0 ...
    count - 1, closed on its first node: every loop and arc is built here.
    A loop only has to keep its homotopy class, so the unit turns are
    `mp.expjpi` at 53 bits at any working precision, and with a dyadic turn
    and a power-of-two count a node on an axis is exact.  A complex radius
    turns the polygon by its argument."""
    with mp.workprec(53):
        units = [mp.expjpi(turn + 2 * j / count) for j in range(count)]
    ring = [center + radius * u for u in units]
    return ring + ring[:1]


def _petal_paths(c0, cvs):
    """Non-crossing petal loops via a sweep, each an (approach, circle) pair:
    the approach descends from the base point to a highway below the
    critical disk, runs to the target's sweep abscissa and climbs to the
    foot w - i*r of the standoff circle, which winds once counterclockwise
    from that foot back to it.  The loop closes along the approach
    reversed, which is never built: its continuation only undoes the
    approach's.

    The corridors (one vertical climb per critical value, at pairwise
    distinct abscissas) cannot cross, so the loops form a geometric basis;
    their product in descending-abscissa order is the loop around infinity.
    """
    radius = abs(mp.mpc(c0))
    offs = standoffs(cvs, radius)
    phi, gap = _sweep_rotation(cvs, c0)
    u = mp.exp(mp.mpc(0, -1) * phi)       # frame rotation w = z*u
    back = mp.exp(mp.mpc(0, 1) * phi)
    w0 = mp.mpc(c0) * u
    ws = [c * u for c in cvs]
    highway = min(min(mp.im(w) for w in ws), mp.im(w0)) - radius / 2
    loops = []
    order_keys = []
    for i, w in enumerate(ws):
        r = min(offs[i], gap / 3)
        circle = polygon(w, r, -0.5)
        # a climb far longer than r is split geometrically (each point 2^10
        # times farther below w than the next), so no segment is long next
        # to its distance from the critical value
        climb, d = circle[:1], r * 2 ** 10
        while d <= (mp.im(w) - highway) / 2 ** 10:
            climb.insert(0, w - mp.mpc(0, 1) * d)
            d *= 2 ** 10
        # from c0 itself: w0 * back is c0 plus an imaginary noise below doubles
        approach = [mp.mpc(mp.re(w0), highway), mp.mpc(mp.re(w), highway)] + climb
        loops.append(([mp.mpc(c0)] + [pt * back for pt in approach],
                      [pt * back for pt in circle]))
        order_keys.append(mp.re(w))
    return loops, order_keys


# ---------------------------------------------------------------------------
# the monodromy representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonodromyRep:
    """Monodromy data of one polynomial, numbered so infinity = (1 2 ... n).

    base_fiber[k - 1] is root k: root 1 has the largest (re, im), and the
    loop around infinity carries root k to root k + 1.  base_fiber comes
    refined from `fiber_roots` at precision_bits + 32 bits, once per
    polynomial: every continuation from the base point starts from it.
    generators[i], the permutation of the petal loop around
    critical_values[i], and petal_order, the sweep order in which their
    product is the infinity cycle, come from `_petals` on the first read of
    either; ==, hash and repr read neither.  From `monodromy`, `_petals`
    tracks each petal loop from the numbered base fiber and checks the
    product; from JSON, it returns the printed values, and base_fiber is
    the printed one.
    """
    n: int
    base_point: object            # mpmath mpc
    critical_values: tuple
    infinity: Permutation
    base_fiber: tuple
    precision_bits: int
    _petals: Callable[[], tuple] = field(compare=False, repr=False)
    # P's exact picture (`exact_picture`): filled by `monodromy`, else on first use
    exact: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def _petal_data(self) -> tuple:
        return self._petals()

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self._petal_data[0]

    @property
    def petal_order(self) -> tuple[int, ...]:
        return self._petal_data[1]

    def product_in_petal_order(self) -> Permutation:
        return _product(self.generators, self.petal_order, self.n)


def _product(gens, order, n: int) -> Permutation:
    return reduce(Permutation.then, (gens[i] for i in order), Permutation.identity(n))


def _infinity_loop(cvs):
    """Base point and the loop around infinity, at the working precision:
    out from the base point R to 2R, then once around the circle of radius
    2R.  The loop is an (approach, circle) pair: the approach runs from the
    base point to the circle's foot, where the circle starts and ends."""
    radius = 2 * (1 + max(abs(c) for c in cvs))
    c0 = mp.mpf(radius)
    circle = polygon(0, 2 * radius, 0)
    return c0, ([c0, circle[0]], circle)


def _loop_permutation(p: RatPoly, dp: RatPoly, loop: tuple, start: list,
                      config: Config, tier: _Tier, name: str) -> Permutation:
    """Monodromy permutation of one (approach, circle) loop, read at the
    circle's foot; a failure names the loop.

    `start`, the refined base fiber, is continued along the approach to F
    and on around the circle to G.  Continuation keeps indices, so retracing
    the approach would carry F[j] back to start[j]: the loop's permutation
    is match_permutation(F, G).  G needs no refinement for that match: a
    machine-tier end is good to about 2^-53 / gap of the fiber's scale, the
    gap stays near or above MACHINE_GAP_FLOOR of it, and an mp-tier end is
    good to 2^-(precision_bits + 8); each is far inside the gap / 4 margin.
    """
    approach, circle = ([to_mpc(z, mp.prec) for z in part] for part in loop)
    machine = _machine_tier(p, dp, approach + circle)
    try:
        foot = _walk(approach, start, config, tier, machine)
        end = _walk(circle, foot, config, tier, machine)
        return match_permutation([mp.mpc(x) for x in foot],
                                 [mp.mpc(x) for x in end])
    except TrackingError as exc:
        raise TrackingError(f"{name}: {exc}") from exc


def _petal_generators(p: RatPoly, cvs: list, c0, fiber: list,
                      config: Config) -> tuple:
    """(generators, petal_order) of `MonodromyRep`: each petal loop tracked
    from the numbered base fiber, so its permutation comes out in that
    numbering, and the product in petal order checked against the infinity
    cycle."""
    n = len(fiber)
    with mp.workprec(config.precision_bits + 32):
        petals, order_keys = _petal_paths(c0, cvs)
        dp = p.derivative()
        tier = _mp_tier(p, config)
        gens = tuple(_loop_permutation(
                         p, dp, loop, fiber, config, tier,
                         f"petal loop {i} (critical value {mp.nstr(cvs[i], 8)})")
                     for i, loop in enumerate(petals))
        order = tuple(sorted(range(len(cvs)), key=lambda i: (-order_keys[i], i)))
    if _product(gens, order, n) != Permutation.cycle(n):
        raise ConsistencyError(
            "petal-order product does not reproduce the infinity cycle")
    return gens, order


def monodromy(p: RatPoly, config: Config = DEFAULT_CONFIG) -> MonodromyRep:
    """Monodromy representation of p at the configured precision: the
    critical values, the base fiber, found and refined once (`fiber_roots`),
    the loop around infinity, read at its circle's foot
    (`_loop_permutation`) and checked to be an n-cycle, and the fiber
    numbered by it.  The petal loops run on the first read of
    `generators` or `petal_order` (`_petal_generators`), with no segment
    tracked twice."""
    n = p.degree
    if p.is_zero() or n < 2:
        raise InputError("monodromy requires deg p >= 2")
    exact = {}
    cvs = critical_values(p, config, exact)
    with mp.workprec(config.precision_bits + 32):
        c0, loop_inf = _infinity_loop(cvs)
        dp = p.derivative()
        start = fiber_roots(p, c0, mp.prec)
        sigma_inf = _loop_permutation(p, dp, loop_inf, start, config,
                                      _mp_tier(p, config), "the infinity loop")
        if len(sigma_inf.cycles()) != 1 or len(sigma_inf.cycles()[0]) != n:
            raise ComputationError("infinity permutation is not an n-cycle")

        # number the fiber so sigma_inf becomes (1 2 ... n): root "1" is the
        # fiber point with the largest real part (ties: largest imaginary
        # part), and the infinity loop carries root k to root k + 1
        cur = max(range(n), key=lambda i: (mp.re(start[i]), mp.im(start[i])))
        fiber = []
        for _ in range(n):
            fiber.append(start[cur])
            cur = sigma_inf(cur + 1) - 1

        return MonodromyRep(
            n=n, base_point=mp.mpc(c0), critical_values=tuple(cvs),
            infinity=Permutation.cycle(n), base_fiber=tuple(fiber),
            precision_bits=config.precision_bits,
            _petals=partial(_petal_generators, p, cvs, c0, fiber, config), exact=exact)


# ---------------------------------------------------------------------------
# block systems and the divisor lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DivisorLattice:
    """The left degrees d of the decompositions p = A(W), with one witness
    (deg A = d) per member.  By Ritt's first theorem these are the block
    systems of the monodromy group; with infinity = (1 2 ... n), the blocks
    of d are the residue classes mod d."""
    n: int
    members: tuple[int, ...]
    covers: dict[int, tuple[int, ...]]
    witness: dict[int, Decomposition]
    # bound-free exact data (`solver._LatticeSpans`): power sums, T_d, h_dt, powers
    tables: dict = field(default_factory=dict, compare=False, repr=False)

    def covered_by(self, d: int) -> tuple[int, ...]:
        return self.covers.get(d, ())

    def require_member(self, d: int):
        if d not in self.members:
            raise InputError(f"{d} is not in the divisor lattice of n={self.n}")


def divisor_lattice(rep: MonodromyRep, p: RatPoly) -> DivisorLattice:
    """The lattice of p's decompositions, checked on the labelled base
    fiber: for each witness A(W), the values W(x_i) at precision_bits + 32
    bits must agree within each residue class of i mod d to under a quarter
    of the smallest distance between the d class values (the margin of
    `match_permutation`)."""
    n = rep.n
    decs = {dec.left.degree: dec for dec in decompose_all(p)}
    with mp.workprec(rep.precision_bits + 32):
        for d, dec in decs.items():
            w = [eval_poly(dec.right, x, mp.prec) for x in rep.base_fiber]
            gap = min_pairwise_distance(w[:d])
            if gap is not None and not max(abs(w[i] - w[i % d])
                                           for i in range(n)) < gap / 4:
                raise ConsistencyError("the labelled base fiber does not split "
                                       f"into the blocks of d={d}")
    members = tuple(sorted(decs))
    covers = {}
    for d in members:
        cands = [e for e in members if e < d and d % e == 0]
        covers[d] = tuple(e for e in cands
                          if not any(e < l < d and l % e == 0 and d % l == 0
                                     for l in cands))
    if any(math.gcd(a, b) not in decs or math.lcm(a, b) not in decs
           for a in members for b in members):
        raise ConsistencyError("divisor set is not gcd/lcm closed")
    return DivisorLattice(n=n, members=members, covers=covers, witness=decs)


# ---------------------------------------------------------------------------
# symmetric-group test
# ---------------------------------------------------------------------------

def is_full_symmetric(rep: MonodromyRep) -> bool:
    """Whether the generated group is all of S_n: its exact order (see
    `generated_group_order`) equals n!.  The answer is exact for every
    degree."""
    return generated_group_order(list(rep.generators)) == math.factorial(rep.n)
