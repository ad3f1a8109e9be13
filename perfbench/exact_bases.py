"""Workload `exact-bases`: problem (b) on the exact side, in a library
session.

Set-up computes the group data (`monodromy` and `divisor_lattice`) of T6,
x^8 and the degree-8 composite (x^2 + x)(x^2 - x)(x^2 + x/2), whose divisor
lattices have four members each.  Each problem is one `z_delta_basis`,
`z_ud_basis` or `z_vd_basis` call at a seeded cycle or lattice member and a
seeded degree bound; the timed part does no tracking.  Problems come in
pairs that differ only in the bound (one of 12, 16, 20, 24 and one of 28,
32, 36, 40), so the check can test that the bases are nested.  Over the
rounds each polynomial and function walks the bounds and the lattice
members from a seeded start, so four rounds hold every bound and member
once and every run holds the same mix.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks
from harness import FAILED, bits

NAME = "exact-bases"
ROUND_SECONDS = 3.0           # one round on the reference host
RESIDUAL_TOL = 1e-8           # scaled double-precision residual of a member
CONTROL_MIN = 1e-6            # a non-member must show at least this residual
LOW_BOUNDS = (12, 16, 20, 24)
HIGH_BOUNDS = (28, 32, 36, 40)


def _polys():
    t6 = [Fraction(c) for c in (-1, 0, 18, 0, -48, 0, 32)]
    x8 = [Fraction(0)] * 8 + [Fraction(1)]
    tower = checks.p_compose(
        checks.p_compose([Fraction(0), Fraction(1), Fraction(1)],
                         [Fraction(0), Fraction(-1), Fraction(1)]),
        [Fraction(0), Fraction(1, 2), Fraction(1)])
    return [("T6", t6), ("x8", x8), ("tower8", tower)]


class Workload:
    name = NAME
    ref_loops = 1

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.rounds = max(1, round(seconds / ROUND_SECONDS))
        self.data = []
        self.items = []

    def group_data(self):
        from abelint import Config, RatPoly, divisor_lattice, monodromy
        self.cfg = Config()
        self.data = []
        for name, p in _polys():
            rp = RatPoly(p)
            rep = monodromy(rp, self.cfg)
            self.data.append({"name": name, "p": p, "rp": rp, "rep": rep,
                              "lattice": divisor_lattice(rep, rp)})

    def prepare(self):
        import abelint.solver
        from abelint import CycleVector
        self.solver = abelint.solver
        rng = random.Random(f"{NAME}:{self.seed}")
        funcs = ("z_delta_basis", "z_ud_basis", "z_vd_basis")
        # stratified: over the rounds each (polynomial, function) walks the bound
        # ladders and the lattice members from a seeded offset
        offsets = {(gd["name"], func): (rng.randrange(4), rng.randrange(4), rng.randrange(4))
                   for gd in self.data for func in funcs}
        items = []
        for rnd in range(self.rounds):
            for gd in self.data:
                n = len(gd["p"]) - 1
                members = list(gd["lattice"].members)
                while True:
                    v = [rng.randint(-3, 3) for _ in range(n)]
                    if any(v):
                        break
                for func in funcs:
                    lo, hi, m = offsets[(gd["name"], func)]
                    if func == "z_delta_basis":
                        arg = CycleVector(n, v)
                    else:
                        arg = members[(m + rnd) % len(members)]
                    group = len(items)
                    for b in (LOW_BOUNDS[(lo + rnd) % 4], HIGH_BOUNDS[(hi + rnd) % 4]):
                        items.append({"gd": gd, "func": func, "arg": arg,
                                      "bound": b, "group": group,
                                      "label": f"{func}:{gd['name']}"})
        self.items = items
        self.z_rng_seed = f"{NAME}:z:{self.seed}"
        # warm-up: one small call of each kind
        gd = self.data[0]
        self._call({"gd": gd, "func": "z_delta_basis", "bound": 6,
                    "arg": CycleVector(6, (0, -1, -1, 0, 1, 1))})
        self._call({"gd": gd, "func": "z_ud_basis", "bound": 6, "arg": 2})
        self._call({"gd": gd, "func": "z_vd_basis", "bound": 6, "arg": 3})

    def _call(self, item):
        gd = item["gd"]
        fn = getattr(self.solver, item["func"])
        if item["func"] == "z_delta_basis":
            return fn(gd["rp"], item["arg"], item["bound"], self.cfg,
                      gd["rep"], gd["lattice"])
        return fn(gd["rp"], item["arg"], gd["lattice"], item["bound"])

    def problems(self):
        return [(item["label"], lambda item=item: self._call(item))
                for item in self.items]

    def answer_key(self, answer):
        if answer is FAILED:
            return None
        return (tuple(tuple(q.coeffs) for q in answer.basis), answer.provenance)

    # -- checks -----------------------------------------------------------------

    def _cycles(self, item):
        """The cycles every basis element must kill."""
        gd = item["gd"]
        n = len(gd["p"]) - 1
        if item["func"] == "z_delta_basis":
            return [list(item["arg"].v)]
        d = item["arg"]
        if item["func"] == "z_vd_basis":
            return checks.residue_class_vectors(n, d)
        return checks.u_d_vectors(n, d, gd["lattice"].covered_by(d))

    def _fibers(self, gd, zs):
        rep = gd["rep"]
        c0 = float(rep.base_point.real)
        base = [complex(x) for x in rep.base_fiber]
        return [checks.fiber_at(gd["p"], c0, base, z) for z in zs]

    def check(self, answers):
        """Returns (failed, wrong, controls_ok, accuracy_bits)."""
        rng = random.Random(self.z_rng_seed)
        fibers = {}
        for gd in self.data:
            c0 = float(gd["rep"].base_point.real)
            zs = [c0 * (1 + rng.random()) for _ in range(2)]
            fibers[gd["name"]] = self._fibers(gd, zs)
        failed, wrong = 0, []
        controls_ok = True
        worst = 0.0
        for idx, (item, ans) in enumerate(zip(self.items, answers)):
            if ans is FAILED:
                failed += 1
                continue
            gd = item["gd"]
            bound = item["bound"]
            basis = [list(q.coeffs) for q in ans.basis]
            cycles = self._cycles(item)
            fib = fibers[gd["name"]]
            res = checks.max_cycle_residual(basis, cycles, fib, bound)
            worst = max(worst, res)
            label = f"{item['label']} bound {bound}"
            if res > RESIDUAL_TOL:
                wrong.append(f"{label}: residual {res:.3g}")
            # negative control: a random polynomial outside the span
            if len(basis) < bound + 1:
                q = _outside(basis, bound, rng)
                if checks.max_cycle_residual([q], cycles, fib, bound) < CONTROL_MIN:
                    controls_ok = False
                    wrong.append(f"{label}: a non-member passed the residual test")
            # pullback rings the theory predicts: C[W_d'] whenever every cycle
            # sums to zero on the residue classes mod d'
            n = len(gd["p"]) - 1
            lattice = gd["lattice"]
            for dp in lattice.members:
                dec = lattice.witness[dp]
                left, right = list(dec.left.coeffs), list(dec.right.coeffs)
                if checks.p_compose(left, right) != checks.p_trim(gd["p"]):
                    wrong.append(f"{label}: witness for {dp} does not compose to P")
                    continue
                if not checks.orthogonal_to_classes(cycles, n, dp):
                    continue
                powers, w = [], [Fraction(1)]
                while len(w) - 1 <= bound:
                    powers.append(w)
                    w = checks.p_mul(w, right)
                if not checks.spans_contain(basis, powers, bound + 1):
                    wrong.append(f"{label}: C[W_{dp}] is not in the span")
            # nesting: the lower bound's basis is the low-degree part of the
            # higher bound's
            if idx > 0 and self.items[idx - 1]["group"] == item["group"]:
                low_item, low = self.items[idx - 1], answers[idx - 1]
                if low is not FAILED:
                    lo_b = low_item["bound"]
                    part = checks.low_degree_part(basis, bound, lo_b)
                    if not checks.same_span(part, [list(q.coeffs) for q in low.basis],
                                            lo_b + 1):
                        wrong.append(f"{label}: bases at bounds {lo_b} and {bound} "
                                     f"are not nested")
        return failed, wrong, controls_ok, bits(worst, 64)


def _outside(basis, bound, rng):
    """A random integer polynomial of degree <= bound outside span(basis)."""
    while True:
        q = [Fraction(rng.randint(-3, 3)) for _ in range(bound + 1)]
        if any(q) and not checks.spans_contain(basis, [q], bound + 1):
            return q
