"""Workload `moment-cli`: problem (a), weighted moment problems on real
intervals, each solved by one in-process `abelint solve` call.

Every round holds four fresh polynomials of fixed families, with seeded
parameters: a generic cubic with real critical points, a degree-4 composite
A(W) with W(a) = W(b), a Chebyshev T4 under an affine change on an interval
symmetric in the Chebyshev variable, and T6 under an affine change on a
generic interval.  Each family keeps the number of turning points inside
its interval fixed, so the seed moves the values, not the amount of work.
No polynomial repeats within a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction

import checks
from harness import FAILED, bits, exact_decimal

NAME = "moment-cli"
ROUND_SECONDS = 30.0          # one round on the reference host
PRECISION_BITS = 128          # the CLI default
RESIDUAL_BITS = PRECISION_BITS + 32   # the precision the residuals are computed at


def _dyadic(k: int, e: int = 3) -> Fraction:
    return Fraction(k, 2 ** e)


def _cheb(n):
    t = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for _ in range(n - 1):
        t.append(checks.p_add(checks.p_mul([Fraction(0), Fraction(2)], t[-1]),
                              checks.p_scale(t[-2], -1)))
    return t[n]


def _weight(rng):
    return Fraction(rng.choice(["1", "2", "1/2", "3", "-1", "2/3", "-3/2"]))


def _generic_cubic(rng):
    """A cubic with critical points r1 < 0 < r2, on an interval holding both."""
    r1, r2 = -_dyadic(rng.randint(2, 8)), _dyadic(rng.randint(2, 8))
    lead = Fraction(rng.choice(["1", "-1", "2", "1/2", "-2"]))
    dp = checks.p_scale(checks.p_mul([-r1, Fraction(1)], [-r2, Fraction(1)]), lead)
    p = checks.p_add(checks.p_integrate(dp), [_dyadic(rng.randint(-4, 4))])
    a = r1 - Fraction(rng.randint(1, 6), 16)
    b = r2 + Fraction(rng.randint(1, 6), 16)
    return p, [(a, b, _weight(rng))]


def _composite_quartic(rng):
    """A(W) with W = x^2 - (a + b) x, so W(a) = W(b), on [a, b].  The critical
    point of A lies above W([a, b]), so the midpoint is the only turning point."""
    a = -_dyadic(rng.randint(2, 8))
    b = a + _dyadic(rng.randint(6, 12))
    w = [Fraction(0), -(a + b), Fraction(1)]
    lead = Fraction(rng.choice(["1", "-1", "2", "1/2", "-2"]))
    w_crit = -a * b + _dyadic(rng.randint(1, 8))          # max of W on [a, b] is -ab
    outer = [Fraction(0), -2 * lead * w_crit, lead]
    return checks.p_compose(outer, w), [(a, b, _weight(rng))]


def _affine(rng):
    alpha = Fraction(rng.choice(["1/2", "-1/2", "1", "-1", "2", "-2"]))
    beta = _dyadic(rng.randint(-4, 4))
    return alpha, beta


def _chebyshev_pulled_back(rng, n, ua, ub):
    """T_n(alpha x + beta) on the preimage of [ua, ub]."""
    alpha, beta = _affine(rng)
    a, b = sorted(((ua - beta) / alpha, (ub - beta) / alpha))
    return checks.p_compose(_cheb(n), [beta, alpha]), [(a, b, _weight(rng))]


def _chebyshev4_symmetric(rng):
    """T4 on [-s, s] in the Chebyshev variable, s > 1/sqrt(2): three turning points."""
    s = Fraction(rng.randint(12, 18), 16)
    return _chebyshev_pulled_back(rng, 4, -s, s)


def _chebyshev6(rng):
    """T6 on [ua, ub] with ua in (-sqrt(3)/2, -1/2) and ub in (0, 1/2): two
    turning points, -1/2 and 0."""
    return _chebyshev_pulled_back(rng, 6, -Fraction(rng.randint(9, 13), 16),
                                  Fraction(rng.randint(1, 7), 16))


SLOTS = [
    ("generic-3", _generic_cubic),
    ("composite-4", _composite_quartic),
    ("chebyshev-4-symmetric", _chebyshev4_symmetric),
    ("chebyshev-6", _chebyshev6),
]


def generate(seed: int, rounds: int) -> list[dict]:
    """The run's problems: `rounds` rounds of the four slots, no repeats."""
    rng = random.Random(f"{NAME}:{seed}")
    seen = set()
    out = []
    for _ in range(rounds):
        for label, make in SLOTS:
            while True:
                p, system = make(rng)
                if tuple(p) not in seen:
                    break
            seen.add(tuple(p))
            bound = 2 * (len(p) - 1)
            text = json.dumps({
                "polynomial": [str(c) for c in p],
                "intervals": [{"a": exact_decimal(a), "b": exact_decimal(b), "weight": str(w)}
                              for a, b, w in system],
                "degree_bound": bound})
            out.append({"label": label, "p": p, "system": system,
                        "bound": bound, "input": text})
    return out


def solve_cli(cli, text: str):
    """One `abelint solve -` call in process: stdin in, stdout captured."""
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            rc = cli.main(["solve", "-"])
    finally:
        sys.stdin = old_stdin
    return rc, out.getvalue()


class Workload:
    name = NAME
    ref_loops = 8

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.rounds = max(1, round(seconds / ROUND_SECONDS))
        self.items = []

    def prepare(self):
        import abelint.cli
        self.cli = abelint.cli
        self.items = generate(self.seed, self.rounds)
        warm = json.dumps({"polynomial": ["0", "0", "1"], "degree_bound": 4,
                           "intervals": [{"a": "-0.5", "b": "0.75", "weight": "1"}]})
        rc, _ = solve_cli(self.cli, warm)
        if rc != 0:
            raise RuntimeError("warm-up solve failed")

    def group_data(self):
        pass

    def problems(self):
        return [(item["label"], lambda item=item: solve_cli(self.cli, item["input"]))
                for item in self.items]

    def answer_key(self, answer):
        return answer

    def check(self, answers):
        """Returns (failed, wrong, controls_ok, accuracy_bits)."""
        failed, wrong = 0, []
        controls_ok = True
        worst_bits = float(RESIDUAL_BITS)
        for item, ans in zip(self.items, answers):
            if ans is FAILED or ans[0] != 0:
                failed += 1
                continue
            out = json.loads(ans[1])
            basis = [[Fraction(c) for c in q] for q in out["basis"]]
            errors = checks.check_moment_answer(item["p"], item["system"],
                                                item["bound"], basis)
            if errors:
                wrong.append(f"{item['label']}: {errors[0]}")
            if not checks.moment_rejects(item["p"], item["system"], item["bound"],
                                         [Fraction(0), Fraction(1)]):
                controls_ok = False
            for r in out.get("residuals", []):
                worst_bits = min(worst_bits, bits(Fraction(r), RESIDUAL_BITS))
        return failed, wrong, controls_ok, worst_bits
