"""Workload `hyper-periods`: problem (c), hyperelliptic periods over oval
families y^2 = f(x) + t, in a library session.

Every round draws five fiber polynomials f of degree 2 to 4, even and not
even (an even and a generic quadratic, a cubic, an even and a generic
quartic), with seeded parameters.  For each f the problems are
`integral_I` at three seeded levels t, `cauchy_J` at two seeded t, each
with a seeded complex z off the oval's range of y^2, and `reduce_form` of a
seeded one-form.  `check_exth` runs on both quartics, and `loop_integral`
of k y dx around the oval's two branch points runs at two levels on both
quadratics.
`integral_I_prime` and `main4_limit_check` are left out because they fail
on some seeds (see CHANGES.md).
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
from mpmath import mp

import checks
from harness import FAILED, bits, exact_decimal

NAME = "hyper-periods"
ROUND_SECONDS = 2.8                # one round on the reference host
VALUE_BITS = 256                   # cap of accuracy_bits: the reference precision
VALUE_TOL = mp.mpf(2) ** -64       # relative deviation accepted from the reference
LOOP_TOL = mp.mpf(2) ** -56        # a loop integral against +-I, relative to I's scale


def _q(k, e=3):
    return Fraction(k, 2 ** e)


def _pick_t(rng, lo, hi):
    """A dyadic level strictly inside (lo, hi), away from both ends."""
    span = hi - lo
    k = rng.randint(3, 13)
    return Fraction(round((lo + span * k / 16) * 256), 256)


def _oval_ok(f, t, pair):
    """Whether f + t has the root pair and is positive between them."""
    span = _oval_span(f, t, pair)
    if span is None:
        return False
    return checks.p_eval([float(x) for x in f], sum(span) / 2) + float(t) > 1e-3


def _family(rng, kind):
    """(f, pair_index, t range) for one fiber family."""
    if kind == "quad-even":
        alpha, gamma = Fraction(rng.choice(["1/2", "1", "2"])), _q(rng.randint(2, 12))
        f = [gamma, Fraction(0), -alpha]
        return f, 0, (-gamma, -gamma + 2)
    if kind == "quad":
        alpha = Fraction(rng.choice(["1/2", "1", "2"]))
        beta = _q(rng.choice([-6, -4, -3, -2, 2, 3, 4, 6]))
        gamma = _q(rng.randint(-4, 8))
        top = gamma + beta * beta / (4 * alpha)
        return [gamma, beta, -alpha], 0, (-top, -top + 2)
    if kind == "cubic":
        a, b = _q(rng.randint(12, 36)), _q(rng.randint(-4, 4))
        ext = 2 * (float(a) / 3) ** 1.5
        return [b, a, Fraction(0), Fraction(-1)], 1, (-float(b) - ext, -float(b) + ext)
    alpha, s = Fraction(rng.choice(["1/4", "1/2", "1"])), _q(rng.randint(8, 14))
    f = checks.p_scale(checks.p_mul([-s * s, Fraction(0), Fraction(1)],
                                    [-s * s, Fraction(0), Fraction(1)]), alpha)
    if kind == "quartic":
        f = checks.p_add(f, [Fraction(0), _q(rng.choice([-3, -2, -1, 1, 2, 3]), 4)])
    return f, 1, (-float(alpha * s ** 4), 0.0)


def _oval_span(f, t, pair):
    """The real roots pair and pair + 1 of f + t in double precision, or None."""
    c = [float(x) for x in reversed(f)]
    c[-1] += float(t)
    roots = sorted(r.real for r in np.roots(c) if abs(r.imag) < 1e-9)
    if pair + 1 >= len(roots):
        return None
    return roots[pair], roots[pair + 1]


def _y2_max(f, t, pair):
    """Largest value of f + t on the oval, sampled in double precision."""
    x1, x2 = _oval_span(f, t, pair)
    return max(checks.p_eval([float(x) for x in f], x1 + (x2 - x1) * j / 64) + float(t)
               for j in range(65))


def _poly_k(rng, odd=None):
    deg = rng.randint(0, 3)
    k = [_q(rng.randint(-8, 8)) for _ in range(deg + 1)]
    k[-1] = k[-1] or Fraction(1)
    if odd is not None:
        k = [c if (i % 2 == 1) == odd else Fraction(0) for i, c in enumerate(k)]
        if not any(k):
            k = [Fraction(0), Fraction(1)] if odd else [Fraction(1)]
    return checks.p_trim(k)


def _one_form(rng):
    def side():
        return {(rng.randint(0, 3), rng.randint(0, 3)): _q(rng.randint(-8, 8))
                for _ in range(rng.randint(1, 3))}
    return side(), side()


class Workload:
    name = NAME
    ref_loops = 1

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.rounds = max(1, round(seconds / ROUND_SECONDS))
        self.items = []

    def group_data(self):
        pass

    def prepare(self):
        import abelint
        self.ab = abelint
        rng = random.Random(f"{NAME}:{self.seed}")
        items = []
        for rnd in range(self.rounds):
            for kind in ("quad-even", "quad", "cubic", "quartic-even", "quartic"):
                f, pair, (lo, hi) = _family(rng, kind)
                ts = []
                while len(ts) < 5:
                    t = _pick_t(rng, lo, hi)
                    if _oval_ok(f, t, pair):
                        ts.append(t)
                even = kind.endswith("-even")
                fam = self.ab.OvalFamily(f=self.ab.RatPoly(f), pair_index=pair,
                                         t_min=exact_decimal(min(ts)), t_max=exact_decimal(max(ts)))
                base = {"f": f, "pair": pair, "fam": fam, "kind": kind, "even": even}
                for j, t in enumerate(ts):
                    odd_k = even and rng.random() < 0.5
                    item = dict(base, func="integral_I" if j < 3 else "cauchy_J", t=t,
                                k=_poly_k(rng, True if odd_k else None))
                    if j >= 3:
                        # z = max(y^2) (a + b i) keeps the kernel's poles clear of the oval
                        top = max(_y2_max(f, t, pair), 0.25)
                        a = rng.choice([-2, -1.5, -1, -0.5])
                        b = rng.choice([0.75, 1, 1.25])
                        item["z"] = mp.mpc(round(top * a * 256) / 256, round(top * b * 256) / 256)
                    items.append(item)
                dx, dy = _one_form(rng)
                items.append(dict(base, func="reduce_form", dx=dx, dy=dy))
                if kind.startswith("quartic"):
                    items.append(dict(base, func="check_exth",
                                      k=_poly_k(rng, rng.random() < 0.5)))
                if kind.startswith("quad"):
                    # f + t has no other roots, so any ellipse around the oval works
                    for t in ts[:2]:
                        items.append(dict(base, func="loop_integral", t=t, k=_poly_k(rng)))
        for item in items:
            item["label"] = f"{item['func']}:{item['kind']}"
        self.items = items
        # warm-up: one short quadrature and one reduction
        fam = self.ab.OvalFamily(f=self.ab.RatPoly([1, 0, -1]), pair_index=0,
                                 t_min="0.5", t_max="0.5")
        self.ab.integral_I(fam, self.ab.RatPoly([1]), "0.5")
        self.ab.reduce_form(self.ab.OneForm.of(dx={(1, 1): 1}), self.ab.RatPoly([1, 0, -1]))

    def _call(self, item):
        ab, func = self.ab, item["func"]
        if func == "integral_I":
            return ab.integral_I(item["fam"], ab.RatPoly(item["k"]), exact_decimal(item["t"]))
        if func == "cauchy_J":
            return ab.cauchy_J(item["fam"], ab.RatPoly(item["k"]), exact_decimal(item["t"]), item["z"])
        if func == "check_exth":
            return ab.check_exth(item["fam"], ab.RatPoly(item["k"]))
        if func == "reduce_form":
            return ab.reduce_form(ab.OneForm.of(dx=item["dx"], dy=item["dy"]),
                                  ab.RatPoly(item["f"]))
        x1, x2 = _oval_span(item["f"], item["t"], item["pair"])
        return ab.loop_integral(ab.RatPoly(item["f"]), ab.RatPoly(item["k"]), exact_decimal(item["t"]),
                                (x1 + x2) / 2, 0.75 * (x2 - x1), semi_minor=0.5 * (x2 - x1))

    def problems(self):
        return [(item["label"], lambda item=item: self._call(item))
                for item in self.items]

    def answer_key(self, answer):
        if answer is None or answer is FAILED or isinstance(answer, (mp.mpf, mp.mpc)):
            return repr(answer)
        if hasattr(answer, "a_part"):
            return (tuple(answer.k.coeffs), sorted(answer.a_part.items()),
                    sorted(answer.b_part.items()))
        return (tuple(answer.r.coeffs), answer.exact)

    # -- checks -----------------------------------------------------------------

    def check(self, answers):
        """Returns (failed, wrong, controls_ok, accuracy_bits)."""
        failed, wrong = 0, []
        controls_ok = True
        worst_bits = float(VALUE_BITS)
        for item, ans in zip(self.items, answers):
            func = item["func"]
            if ans is FAILED:
                failed += 1
                continue
            label = item["label"]
            if func in ("integral_I", "cauchy_J"):
                kind = "I" if func == "integral_I" else "J"
                ref, err = checks.oval_reference(item["f"], item["k"], item["t"],
                                                 item["pair"], kind, item.get("z"))
                # measured against max|k| times the same integral of 1, which
                # bounds it and does not cancel; k odd about the vertex of a
                # quadratic, or odd on an even f, gives 0
                odd = item["even"] and not any(item["k"][0::2])
                scale = checks.oval_scale(item["f"], item["k"], item["t"], item["pair"],
                                          kind, item.get("z"))
                if odd and abs(ref) > VALUE_TOL * scale:
                    wrong.append(f"{label}: reference of odd k on even f is not 0")
                if err > VALUE_TOL * scale / 2**20:
                    wrong.append(f"{label}: reference quadrature did not converge")
                dev = checks.relative_deviation(ans, ref, scale)
                worst_bits = min(worst_bits, bits(dev, VALUE_BITS))
                if not dev < VALUE_TOL:
                    wrong.append(f"{label}: deviation {mp.nstr(dev, 3)} from the reference")
                if checks.relative_deviation(ref + scale * mp.mpf(2) ** -40, ref,
                                             scale) < VALUE_TOL:
                    controls_ok = False
            elif func == "reduce_form":
                if not checks.form_matches(item["dx"], item["dy"], list(ans.k.coeffs),
                                           ans.a_part, ans.b_part, item["f"]):
                    wrong.append(f"{label}: expansion differs from the input form")
                if checks.form_matches(item["dx"], item["dy"],
                                       checks.p_add(list(ans.k.coeffs), [Fraction(1)]),
                                       ans.a_part, ans.b_part, item["f"]):
                    controls_ok = False
            elif func == "check_exth":
                fam = item["fam"]
                ts = [Fraction(fam.t_min), Fraction(fam.t_max)]
                # x^2 is a witness exactly when k is odd on the even quartic
                expect = item["kind"] == "quartic-even" and not any(item["k"][0::2])
                if ans is not None and not checks.exth_witness_holds(
                        item["f"], item["k"], list(ans.r.coeffs), ts, item["pair"]):
                    wrong.append(f"{label}: the witness does not hold")
                if ans is None and expect:
                    wrong.append(f"{label}: a witness exists but none was reported")
                if ans is not None and not expect:
                    wrong.append(f"{label}: a witness was reported where none exists")
                if checks.exth_witness_holds(item["f"], item["k"],
                                             [Fraction(0), Fraction(1), Fraction(1)],
                                             ts, item["pair"]):
                    controls_ok = False
            else:                                   # loop_integral
                ref, _ = checks.oval_reference(item["f"], item["k"], item["t"],
                                               item["pair"], "I")
                scale = checks.oval_scale(item["f"], item["k"], item["t"], item["pair"])
                dev = min(checks.relative_deviation(ans, ref, scale),
                          checks.relative_deviation(ans, -ref, scale))
                worst_bits = min(worst_bits, bits(dev, VALUE_BITS))
                if not dev < LOOP_TOL:
                    wrong.append(f"{label}: loop differs from +-I by {mp.nstr(dev, 3)}")
                if checks.relative_deviation(abs(ref) + scale * mp.mpf(2) ** -40, abs(ref),
                                             scale) < LOOP_TOL:
                    controls_ok = False
        return failed, wrong, controls_ok, worst_bits
