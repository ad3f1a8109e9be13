"""0-cycles on polynomial fibers: vectors, constellations and real walks.

A 0-cycle is a rational combination of the n branches of P^{-1}, stored as
the vector of its coefficients in the normalized branch numbering (the one
that makes the loop around infinity the standard cycle).  This module
builds such vectors from two sources: weighted real interval systems
(moment problems) and vanishing-cycle combinations at a confluence.  Inside
a gap between consecutive real critical values the real roots of P - z
never collide, so a real walk labels its pieces from exact root ranks and
one fiber per gap.  The constellation graph of the covering is read off the
monodromy generators alone: no fiber is tracked and no root is found for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import to_rational

from .config import Config, DEFAULT_CONFIG
from .errors import ComputationError, InputError
from .monodromy import MonodromyRep, exact_picture, polygon, standoffs, walk_fiber
from .numerics import eval_poly, to_mpf
from .ratpoly import RatPoly
from .realroots import RealRoots


# ---------------------------------------------------------------------------
# cycle vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleVector:
    """Coefficients (v_1..v_n) of a 0-cycle on the fiber of a degree-n map.

    `reduced` records whether the coefficients sum to zero and is checked
    against the actual sum on construction.
    """
    n: int
    v: tuple[Fraction, ...]
    reduced: bool

    def __init__(self, n: int, v, reduced: bool | None = None):
        vv = tuple(Fraction(x) for x in v)
        if len(vv) != n:
            raise InputError(f"cycle vector must have length {n}")
        is_reduced = sum(vv) == 0
        if reduced is not None and reduced != is_reduced:
            raise InputError("reduced flag disagrees with the coefficient sum")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "v", vv)
        object.__setattr__(self, "reduced", is_reduced)

    @staticmethod
    def zero(n: int) -> "CycleVector":
        return CycleVector(n, (Fraction(0),) * n)

    @staticmethod
    def ones(n: int) -> "CycleVector":
        return CycleVector(n, (Fraction(1),) * n)

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.v)

    def dot(self, other: "CycleVector") -> Fraction:
        if other.n != self.n:
            raise InputError("dimension mismatch")
        return sum(a * b for a, b in zip(self.v, other.v))

    def __add__(self, other: "CycleVector") -> "CycleVector":
        if other.n != self.n:
            raise InputError("dimension mismatch")
        return CycleVector(self.n, tuple(a + b for a, b in zip(self.v, other.v)))

    def __sub__(self, other: "CycleVector") -> "CycleVector":
        return self + (-1) * other

    def __rmul__(self, c) -> "CycleVector":
        c = Fraction(c)
        return CycleVector(self.n, tuple(c * x for x in self.v))

    def proportional_to(self, other: "CycleVector") -> bool:
        """Whether one vector is a rational multiple of the other."""
        if self.n != other.n:
            return False
        if self.is_zero() or other.is_zero():
            return True
        pairs = list(zip(self.v, other.v))
        ratio = None
        for a, b in pairs:
            if (a == 0) != (b == 0):
                return False
            if a != 0:
                r = b / a
                if ratio is None:
                    ratio = r
                elif r != ratio:
                    return False
        return True


def nontrivial_cycle_exists(vectors) -> bool:
    """Whether some produced cycle vector is nonzero."""
    for item in vectors:
        vec = item.cycle if isinstance(item, LevelCycle) else item
        if not vec.is_zero():
            return True
    return False


# ---------------------------------------------------------------------------
# vanishing-cycle combinations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VanishingCycleCombo:
    """Integer combination of the standard vanishing cycles at a confluence
    of n_local roots; coefficients are indexed by pairs (i, j), i < j."""
    n_local: int
    coefficients: dict[tuple[int, int], Fraction]

    def __post_init__(self):
        if self.n_local < 1:
            raise InputError(f"n_local must be at least 1, not {self.n_local}")
        for (i, j) in self.coefficients:
            if not (1 <= i < j <= self.n_local):
                raise InputError(f"vanishing-cycle index ({i},{j}) out of range")


def vanishing_combo_to_cycle(combo: VanishingCycleCombo,
                             root_order: list[int],
                             n: int | None = None) -> CycleVector:
    """The 0-cycle sum n_ij (e_i - e_j) placed at global branch indices.

    root_order[k-1] is the global branch index of the k-th confluent root
    in the local cyclic order of the monodromy action.
    """
    if len(root_order) != combo.n_local:
        raise InputError("root_order length must equal n_local")
    if n is None:
        n = max(root_order)
    v = [Fraction(0)] * n
    for (i, j), c in combo.coefficients.items():
        v[root_order[i - 1] - 1] += Fraction(c)
        v[root_order[j - 1] - 1] -= Fraction(c)
    vec = CycleVector(n, tuple(v))
    assert vec.reduced
    return vec


# ---------------------------------------------------------------------------
# branch identification over the real line
# ---------------------------------------------------------------------------

def _real_criticals(rep: MonodromyRep):
    """The real critical values, in increasing order."""
    return sorted(mp.re(c) for c in rep.critical_values if mp.im(c) == 0)


def continue_fiber_to_real(p: RatPoly, rep: MonodromyRep, z_target,
                           config: Config = DEFAULT_CONFIG):
    """The fiber over a real regular z, continued from the base point down
    the real axis with upper-semicircle detours around real critical values,
    each of radius at most the critical value's standoff (`standoffs`, the
    keep-out radius of the petal loops), which encloses no other one.

    This is the branch numbering of the base fiber, carried along the
    standard cut system; the interval walks read it once per gap
    (`_rank_labels`).  The walk starts from `rep.base_fiber`, refined
    once in `monodromy`, and its end is not refined (`walk_fiber`): its
    only use is a nearest-point match against correctly rounded roots with
    a 4x margin, and a machine-tier end is good to about 2^-53 / gap of
    the fiber's scale.
    """
    with mp.workprec(config.precision_bits + 32):
        z_target = to_mpf(z_target, mp.prec)
        c0 = mp.re(rep.base_point)
        keep_out = standoffs(rep.critical_values, abs(rep.base_point))
        arcs = sorted(((mp.re(c), s) for c, s in zip(rep.critical_values, keep_out)
                       if mp.im(c) == 0), reverse=True)
        path = [mp.mpc(c0)]
        for c, s in arcs:
            if not (z_target < c < c0):
                continue
            r = min(s, (c0 - c) / 3, (c - z_target) / 3)
            path += polygon(c, r, 0)[:9]     # from c + r over the top to c - r
        path.append(mp.mpc(z_target))
        return [mp.mpc(x) for x in walk_fiber(p, path, rep.base_fiber, config)]


def _piece_probe(p: RatPoly, cv_poly: RatPoly, xl, xr) -> Fraction:
    """A dyadic x in the monotone piece (xl, xr) with p(x) no critical value:
    the middle rounded to the coarsest grid 2^-e finer than a quarter of the
    piece, moved halfway to xr while p(x) is a root of cv_poly (at most once
    per critical value)."""
    lo, hi = (Fraction(*to_rational(v._mpf_)) for v in (xl, xr))
    w = hi - lo
    e = (4 * w.denominator // w.numerator).bit_length()     # 2^-e < w/4
    x = Fraction(round((lo + hi) / 2 * 2 ** e), 2 ** e)
    while cv_poly(p(x)) == 0:
        x = (x + hi) / 2
    return x


def _rank_labels(p: RatPoly, rep: MonodromyRep, z: Fraction, roots: RealRoots,
                 config: Config) -> list[int]:
    """The 1-based branch label of each real root of p - z (`roots`), by
    rank, for a regular real z: one fiber continued to z, each root matched
    to its nearest fiber entry with a 4x margin."""
    fiber = continue_fiber_to_real(p, rep, z, config)
    labels = []
    for r in (roots.root(i, mp.prec) for i in range(roots.count)):
        (best, i), (second, _) = sorted((abs(x - r), i)
                                        for i, x in enumerate(fiber))[:2]
        if not best * 4 < second:
            raise ComputationError("ambiguous branch identification on the walk "
                                   f"at level {mp.nstr(to_mpf(z, 53), 8)}")
        labels.append(i + 1)
    return labels


# ---------------------------------------------------------------------------
# weighted interval systems and their walk cycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedInterval:
    a: object           # decimal string / Fraction / mpf
    b: object
    weight: Fraction

    def __post_init__(self):
        if Fraction(self.weight) == 0:
            raise InputError("interval weights must be nonzero")


@dataclass(frozen=True)
class IntervalSystem:
    intervals: tuple[WeightedInterval, ...]

    @staticmethod
    def of(*items) -> "IntervalSystem":
        out = []
        for a, b, w in items:
            out.append(WeightedInterval(a, b, Fraction(w)))
        return IntervalSystem(tuple(out))


@dataclass(frozen=True)
class LevelCycle:
    """The walk cycle attached to one cut level (a critical value, or an
    interval endpoint value when that is not a critical value)."""
    level: object       # mpf
    is_critical: bool
    cycle: CycleVector


def _snap_index(levels, z, tol):
    # a tolerance on purpose: a decimal approximation of an irrational
    # endpoint (the turning points ±√3/2 of T6) must land on its critical level
    near = [(abs(z - lv), i) for i, lv in enumerate(levels)
            if abs(z - lv) < tol * (1 + abs(lv))]
    return min(near)[1] if near else None


def real_interval_to_coefficients(p: RatPoly, system: IntervalSystem,
                                  rep: MonodromyRep,
                                  config: Config = DEFAULT_CONFIG) -> list[LevelCycle]:
    """Signed branch-appearance vectors of the walk of each interval.

    Each interval [a, b] is cut at the interior turning points; every
    monotone piece runs between two cut levels and contributes its weight,
    signed by direction, to the vectors of both touched levels (+ toward
    the level, - away from it).  Cut levels are the real critical values
    plus any endpoint values that are not critical; the resulting
    conditions are jointly equivalent to the per-gap vanishing conditions.
    A piece's branch is the label of its probe's rank among the real roots
    of p - z, z the probe's level, in the rank table of z's gap.
    """
    n = rep.n
    prec = config.precision_bits
    with mp.workprec(prec + 32):
        snap = mp.mpf(2) ** (-(prec // 3))
        levels = [mp.mpf(c) for c in _real_criticals(rep)]
        if not levels:
            raise ComputationError(
                "no real critical values: the real-walk regime does not apply")
        critical_count = len(levels)
        if any(_snap_index(levels[:i], c, snap) is not None
               for i, c in enumerate(levels)):
            # an end could not tell which of the two levels it lies on
            raise ComputationError("critical levels too close for endpoint snapping")

        walks = []          # (left end, right end, weight signed by direction)
        for itv in system.intervals:
            a, b = to_mpf(itv.a, mp.prec), to_mpf(itv.b, mp.prec)
            if a == b:
                raise InputError("interval endpoints must differ")
            for z in (eval_poly(p, a, mp.prec), eval_poly(p, b, mp.prec)):
                if _snap_index(levels, z, snap) is None:
                    levels.append(z)    # an endpoint level that is not critical
            w = Fraction(itv.weight)
            walks.append((a, b, w) if a < b else (b, a, -w))

        vectors = [[Fraction(0)] * n for _ in levels]
        cv_poly, critical, turning_points = exact_picture(p, rep.exact)
        gap_labels = {}     # gap -> the label of each rank, filled lazily
        for a, b, w in walks:
            cuts = [a] + turning_points.between(a, b, mp.prec) + [b]
            for xl, xr in zip(cuts, cuts[1:]):
                ia = _snap_index(levels, eval_poly(p, xl, mp.prec), snap)
                ib = _snap_index(levels, eval_poly(p, xr, mp.prec), snap)
                if ia is None or ib is None:
                    raise ComputationError(
                        "walk piece endpoints failed to land on cut levels")
                if ia == ib:    # an end a hair from a turning point: +-w cancel
                    continue
                x = _piece_probe(p, cv_poly, xl, xr)
                z = p(x)
                roots = RealRoots(p - z)
                gap = critical.rank(z)
                if gap not in gap_labels:
                    gap_labels[gap] = _rank_labels(p, rep, z, roots, config)
                branch = gap_labels[gap][roots.rank(x)]
                vectors[ia][branch - 1] -= w    # away from its start level
                vectors[ib][branch - 1] += w    # toward its end level

        return [LevelCycle(level=levels[i], is_critical=i < critical_count,
                           cycle=CycleVector(n, tuple(vectors[i])))
                for i in sorted(range(len(levels)), key=lambda i: levels[i])]


# ---------------------------------------------------------------------------
# constellations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Constellation:
    """The preimage graph of the petal star that `monodromy` tracks, from
    the base point to each finite critical value: one star per branch, one
    marked vertex per cycle of a generator (fixed points included), and an
    edge from each star to the vertex of its branch's cycle."""
    star_center: object
    rays: tuple                     # critical values
    stars: tuple[dict[int, int], ...]   # per branch: ray index -> vertex id
    vertex_ray: dict[int, int]

    @property
    def n(self) -> int:
        return len(self.stars)

    def adjacency(self) -> list[tuple[int, int]]:
        out = []
        for i, star in enumerate(self.stars, start=1):
            for s in sorted(star):
                out.append((i, star[s]))
        return out

    def vertex_count(self) -> int:
        return len(self.vertex_ray)

    def edge_count(self) -> int:
        return len(self.adjacency())

    def face_count_via_euler(self) -> int:
        # V - E + F = 2 on the sphere; star centers count as vertices too
        return 2 - (self.n + self.vertex_count()) + self.edge_count()

    def sharing_graph_edges(self) -> set[tuple[int, int]]:
        """Pairs of stars sharing a marked vertex (the dessin skeleton)."""
        out = set()
        for i in range(1, self.n + 1):
            for j in range(i + 1, self.n + 1):
                if set(self.stars[i - 1].values()) & set(self.stars[j - 1].values()):
                    out.add((i, j))
        return out


def build_constellation(rep: MonodromyRep) -> Constellation:
    """Read the constellation off the monodromy generators.  The petal
    approach to c_s carries each branch to a preimage of c_s, and the small
    loop around c_s permutes cyclically the branches that meet at one
    preimage, so the marked vertices over c_s are the cycles of
    generators[s], fixed points included.  Vertices are numbered ray by ray
    in critical-value order and, within a ray, by each cycle's smallest
    branch."""
    stars: list[dict[int, int]] = [dict() for _ in range(rep.n)]
    vertex_ray: dict[int, int] = {}
    for s, gen in enumerate(rep.generators):
        for first in range(1, rep.n + 1):
            if s in stars[first - 1]:
                continue
            vid = len(vertex_ray)
            vertex_ray[vid] = s
            i = first
            while s not in stars[i - 1]:    # the cycle of gen through first
                stars[i - 1][s] = vid
                i = gen(i)
    return Constellation(star_center=rep.base_point, rays=rep.critical_values,
                         stars=tuple(stars), vertex_ray=vertex_ray)


# ---------------------------------------------------------------------------
# SVG export
# ---------------------------------------------------------------------------

_RAY_COLORS = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#d35400",
               "#16a085", "#7f8c8d"]


def constellation_svg(con: Constellation, size: int = 480) -> str:
    """Deterministic SVG rendering: stars on a circle ordered by branch
    index, marked vertices at the barycenters of their stars."""
    import math
    n = con.n
    cx = cy = size / 2
    r_star = size * 0.38
    star_pos = {}
    for i in range(1, n + 1):
        ang = 2 * math.pi * (i - 1) / n - math.pi / 2
        star_pos[i] = (cx + r_star * math.cos(ang), cy + r_star * math.sin(ang))
    vert_members: dict[int, list[int]] = {}
    for i, star in enumerate(con.stars, start=1):
        for vid in star.values():
            vert_members.setdefault(vid, []).append(i)
    vert_pos = {}
    for vid, members in sorted(vert_members.items()):
        xs = [star_pos[i][0] for i in members]
        ys = [star_pos[i][1] for i in members]
        fx, fy = sum(xs) / len(xs), sum(ys) / len(ys)
        # pull single-star vertices outward so they do not sit on the star
        if len(members) == 1:
            fx = cx + (fx - cx) * 1.25
            fy = cy + (fy - cy) * 1.25
        vert_pos[vid] = (fx, fy)
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for i, vid in con.adjacency():
        color = _RAY_COLORS[con.vertex_ray[vid] % len(_RAY_COLORS)]
        x1, y1 = star_pos[i]
        x2, y2 = vert_pos[vid]
        lines.append(f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" '
                     f'y2="{y2:.2f}" stroke="{color}" stroke-width="1.5"/>')
    for vid, (x, y) in sorted(vert_pos.items()):
        color = _RAY_COLORS[con.vertex_ray[vid] % len(_RAY_COLORS)]
        lines.append(f'<rect x="{x - 4:.2f}" y="{y - 4:.2f}" width="8" height="8" '
                     f'fill="{color}"/>')
    for i in range(1, n + 1):
        x, y = star_pos[i]
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="10" fill="#2c3e50"/>')
        lines.append(f'<text x="{x:.2f}" y="{y + 4:.2f}" font-size="11" '
                     f'fill="white" text-anchor="middle">{i}</text>')
    lines.append("</svg>")
    return "\n".join(lines)
