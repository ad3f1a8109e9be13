"""Exact identity of the form reduction omega = k y dx + dA + B d(y^2 - f).

`golden/reduce_form.json` holds 42 seeded pairs (f, omega) with f of degree
0 to 6, y-powers up to 10 and dy-terms of odd and even y-power, together
with the k, a_part and b_part that `reduce_form` returned for them, every
coefficient a "p/q" string.  The normal form is not unique (A and B may
trade any multiple of C (y^2 - f)), so the test pins the representative,
not only the identity that `ReducedForm.verify` checks.

To rewrite the file after a deliberate change of the representative:

    PYTHONPATH=src python tests/test_reduce_golden.py > tests/golden/reduce_form.json
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from abelint.hyperelliptic import OneForm, reduce_form
from abelint.ratpoly import RatPoly

GOLDEN = Path(__file__).parent / "golden" / "reduce_form.json"
CASES = 42
SEED = 23


def _coeff(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))


def _terms(rng, count, y_max):
    return {(rng.randint(0, 5), rng.randint(0, y_max)): _coeff(rng) for _ in range(count)}


def _cases():
    """Pair i has f of degree i mod 7; y-powers reach 10 in every third
    pair and 6 otherwise, and every dy side holds one odd and one even
    y-power besides its random terms."""
    rng = random.Random(SEED)
    out = []
    for i in range(CASES):
        f = RatPoly([_coeff(rng) for _ in range(i % 7 + 1)])
        y_max = 10 if i % 3 == 0 else 6
        dx = _terms(rng, rng.randint(1, 4), y_max)
        dy = _terms(rng, rng.randint(0, 2), y_max)
        dy[(rng.randint(0, 5), 2 * rng.randint(0, y_max // 2))] = _coeff(rng)
        dy[(rng.randint(0, 5), 2 * rng.randint(0, y_max // 2 - 1) + 1)] = _coeff(rng)
        out.append((f, OneForm.of(dx=dx, dy=dy)))
    return out


def _biv_json(biv):
    return [[i, j, str(c)] for (i, j), c in sorted(biv.items())]


def _case_json(f, omega):
    red = reduce_form(omega, f)
    return {"f": [str(c) for c in f.coeffs],
            "dx": _biv_json(omega.dx), "dy": _biv_json(omega.dy),
            "k": [str(c) for c in red.k.coeffs],
            "a_part": _biv_json(red.a_part), "b_part": _biv_json(red.b_part)}


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_cases_are_the_seeded_draw():
    rows = _golden()
    assert len(rows) == CASES
    for row, (f, omega) in zip(rows, _cases()):
        assert row["f"] == [str(c) for c in f.coeffs]
        assert (row["dx"], row["dy"]) == (_biv_json(omega.dx), _biv_json(omega.dy))
    assert {len(row["f"]) - 1 for row in rows} == set(range(7))
    assert max(j for row in rows for _, j, _ in row["dx"] + row["dy"]) == 10
    assert {j % 2 for row in rows for _, j, _ in row["dy"]} == {0, 1}


@pytest.mark.parametrize("index", range(CASES))
def test_reduce_form_matches_golden(index):
    f, omega = _cases()[index]
    assert _case_json(f, omega) == _golden()[index]


if __name__ == "__main__":
    rows = (json.dumps(_case_json(f, omega)) for f, omega in _cases())
    sys.stdout.write("[\n" + ",\n".join(rows) + "\n]\n")
