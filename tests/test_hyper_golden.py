"""Bit identity of the hyperelliptic quadrature.

Every value below was written by the nested trapezoid quadrature to
`golden/hyper_values.json`, to 2^-(prec + 8), on fixed-point integer
kernels whose exact sums are read once: oval integrands deflated in the
angle phi, a "y_dx" or "dx_over_2y" loop around exactly two branch points
collapsed onto their segment and deflated the same way, and every other
loop on the ellipse, in theta = 2 phi, with y's sign read off the
closed-form lift at each node.  The values are at 128 and 192 bits (the I'
case on the quadratic also at 160 bits, the 0.775 circle at 64 bits only),
and each was checked against a reference at prec + 128 bits when it was
written.  The ellipse loops and main4 moved to the integer kernel with
every nonzero part unchanged; only parts whose exact value is 0 were
rewritten, each within 2^-(prec + 34) (1 + |value|) of the value at twice
the precision, and the main4 deviations they feed, each below
2^-(prec + 24).  A value is stored as its raw libmp tuple(s), [sign, hex
mantissa, exponent, bitcount], so the comparison covers every bit and
whether the result is real or complex.

`golden/oval_integrand.json` holds values of the oval integrand itself, as
the fixed-point kernel `_oval_node` returns them, at fixed angles: phi = 0
and pi, where the nodes sit on the oval's endpoints, and five interior
angles.  A quadrature value carries 20 guard bits, which absorb a last-bit
change of the integrand at every node; these values do not.

To rewrite the files after a deliberate change of the numbers:

    PYTHONPATH=src python tests/test_hyper_golden.py > tests/golden/hyper_values.json
    PYTHONPATH=src python tests/test_hyper_golden.py integrand > tests/golden/oval_integrand.json
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp

import abelint.hyperelliptic as hyp
from abelint.config import Config
from abelint.cycles import VanishingCycleCombo
from abelint.hyperelliptic import (OneForm, OvalFamily, cauchy_J, check_exth,
                                   integral_I, integral_I_prime, loop_integral,
                                   main4_limit_check, oval_form_integral)
from abelint.ratpoly import RatPoly

from conftest import QUARTIC_F

GOLDEN = Path(__file__).parent / "golden" / "hyper_values.json"
INTEGRAND_GOLDEN = Path(__file__).parent / "golden" / "oval_integrand.json"
PRECS = (128, 192)

X = RatPoly.x()
ONE = RatPoly.one()
CENTRAL = OvalFamily(f=QUARTIC_F, pair_index=1, t_min="-0.85", t_max="-0.15")
# f + 1/2 = (x + 1/2)(1 - x), so g is constant and I' = 43 pi/32
# (test_i_prime_node_on_oval_endpoint)
ENDPOINT = OvalFamily(f=-X ** 2 + X / 2, pair_index=0, t_min="0.25", t_max="1")
OMEGA = OneForm.of(dx={(2, 4): Fraction(1, 2), (1, 1): 2, (3, 0): 1},
                   dy={(1, 3): -2, (0, 0): 1})
# coefficients that round at every precision
OMEGA_THIRDS = OneForm.of(dx={(1, 1): Fraction(1, 3), (2, 3): Fraction(-2, 7)},
                          dy={(0, 2): Fraction(5, 3)})
MORSE = VanishingCycleCombo(2, {(1, 2): Fraction(1)})
SQRT2 = "1.41421356237309504880168872420969807856967187537694807317667973799"
MINUS_HALF = Fraction(-1, 2)
QUARTER = Fraction(1, 4)
K2 = X ** 2 + 1
Z = complex(-1, 0.5)


def _loop(mode, a, b=None, z=None, k=X, center=0):
    return lambda cfg: loop_integral(QUARTIC_F, k, "-0.5", center, a, mode=mode,
                                     z=z, semi_minor=b, config=cfg)


def _main4(f, k, z_samples, critical_point):
    def run(cfg):
        report = main4_limit_check(f, k, MORSE, [mp.mpf(z) for z in z_samples],
                                   critical_point, cfg)
        rows = [[row[key] for key in ("z", "limit", "formula", "relative_deviation")]
                for row in report.per_sample]
        return rows + [report.max_relative_deviation]
    return run


def _exth(family, k):
    def run(cfg):
        witness = check_exth(family, k, cfg)
        assert witness.r == X ** 2 and witness.exact
        return witness.max_deviation
    return run


# name -> (function of a Config, precisions)
CASES = {
    "integral_I/central/1/-1/2": (
        lambda c: integral_I(CENTRAL, ONE, MINUS_HALF, c), PRECS),
    "integral_I/central/x^2+1/-0.3": (lambda c: integral_I(CENTRAL, K2, "-0.3", c), PRECS),
    "integral_I/endpoint/x^2+1/1/4": (lambda c: integral_I(ENDPOINT, K2, QUARTER, c), PRECS),
    "integral_I_prime/central/x^2+1/-1/2": (
        lambda c: integral_I_prime(CENTRAL, K2, MINUS_HALF, c), PRECS),
    "integral_I_prime/endpoint/x^2+1/1/2": (
        lambda c: integral_I_prime(ENDPOINT, K2, Fraction(1, 2), c), (128, 160, 192)),
    "cauchy_J/central/x^2/-1/2/-1+i/2": (
        lambda c: cauchy_J(CENTRAL, X ** 2, MINUS_HALF, Z, c), PRECS),
    "cauchy_J/central/1/-1/2/0": (lambda c: cauchy_J(CENTRAL, ONE, MINUS_HALF, 0, c), PRECS),
    "cauchy_J/endpoint/x^2+1/1/4/-1+i/2": (
        lambda c: cauchy_J(ENDPOINT, K2, QUARTER, Z, c), PRECS),
    "oval_form_integral/central/-0.45": (
        lambda c: oval_form_integral(CENTRAL, OMEGA, "-0.45", c), PRECS),
    "oval_form_integral/central/thirds/-0.45": (
        lambda c: oval_form_integral(CENTRAL, OMEGA_THIRDS, "-0.45", c), PRECS),
    "loop/circle-4/y_dx": (_loop("y_dx", 4), PRECS),
    "loop/circle-4/dx_over_2y": (_loop("dx_over_2y", 4), PRECS),
    "loop/circle-4/dx_over_y3": (_loop("dx_over_y3", 4), PRECS),
    "loop/circle-4/cauchy": (_loop("cauchy", 4, z=complex(0.25, 0.125)), PRECS),
    "loop/ellipse-1.2-0.4/y_dx": (_loop("y_dx", "1.2", "0.4", k=K2), PRECS),
    "loop/ellipse-1.2-0.4/dx_over_2y": (_loop("dx_over_2y", "1.2", "0.4", k=K2), PRECS),
    "loop/ellipse-1.2-0.4/dx_over_y3": (_loop("dx_over_y3", "1.2", "0.4", k=K2), PRECS),
    "loop/ellipse-1.2-0.4/cauchy": (
        _loop("cauchy", "1.2", "0.4", z=complex(-0.5, 0.25), k=K2), PRECS),
    # the circles 0.85 and 0.775 hold exactly the branch points +-0.765, so
    # in these modes they collapse onto the segment [-0.765, 0.765]
    "loop/circle-0.85/y_dx": (_loop("y_dx", "0.85", k=ONE), PRECS),
    "loop/circle-0.775/y_dx": (_loop("y_dx", "0.775", k=ONE), (64,)),
    # k/y^3 keeps them on the ellipse: 0.85 converges at 2048 nodes (128
    # bits) and 4096 (192 bits); 0.775 passes 0.01 from 0.765, and at 64
    # bits it converges at 16384
    "loop/circle-0.85/dx_over_y3": (_loop("dx_over_y3", "0.85", k=ONE), PRECS),
    "loop/circle-0.775/dx_over_y3": (_loop("dx_over_y3", "0.775", k=ONE), (64,)),
    # passes 0.003 from +-0.765, which lie outside it but within the
    # contour's margin, so it stays on the ellipse; with no branch point
    # inside and y even on the circle, the levels of 8 and 16 nodes both
    # sum to about 0
    "loop/circle-0.762/y_dx": (_loop("y_dx", "0.762", k=ONE), PRECS),
    "check_exth/central/x^3": (_exth(CENTRAL, X ** 3), PRECS),
    "main4/quartic/x": (_main4(QUARTIC_F, X, ["-0.015625", "-0.03125"], SQRT2), PRECS),
    "main4/even/x^3+2x": (
        _main4(X ** 2 * (X ** 2 / 4 + 1), X ** 3 + 2 * X, ["-0.015625"], "0"), PRECS),
}


def _raw_part(part):
    sign, man, exp, bc = part
    return [sign, hex(man), exp, bc]


def encode(value):
    """JSON of a value: {"mpf": part} or {"mpc": [re, im]}, lists elementwise."""
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if hasattr(value, "_mpc_"):
        return {"mpc": [_raw_part(p) for p in value._mpc_]}
    return {"mpf": _raw_part(value._mpf_)}


def compute(name, prec):
    func, _ = CASES[name]
    return encode(func(Config(precision_bits=prec)))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    for name, (_, precs) in CASES.items():
        assert sorted(golden[name]) == sorted(str(p) for p in precs), name


@pytest.mark.parametrize("name, prec", [(name, prec) for name, (_, precs) in CASES.items()
                                        for prec in precs])
def test_hyper_values_golden(golden, name, prec):
    assert compute(name, prec) == golden[name][str(prec)]


# `_oval_quadrature`'s integrand per case, sampled by the fixed-point kernel
# `_oval_node` at the angles j pi/n for these (j, n): 0, pi and five interior
# angles
INTEGRAND_CASES = {
    "y_dx/central/x^2+1/-1/2": lambda c: integral_I(CENTRAL, K2, MINUS_HALF, c),
    "y_dx/endpoint/x^2+1/1/4": lambda c: integral_I(ENDPOINT, K2, QUARTER, c),
    "dx_over_y/central/x^2+1/-1/2": lambda c: integral_I_prime(CENTRAL, K2, MINUS_HALF, c),
    "dx_over_y/endpoint/x^2+1/1/2": lambda c: integral_I_prime(ENDPOINT, K2, Fraction(1, 2), c),
    "cauchy/central/x^2/-1/2/-1+i/2": lambda c: cauchy_J(CENTRAL, X ** 2, MINUS_HALF, Z, c),
    "cauchy/endpoint/x^2+1/1/4/-1+i/2": lambda c: cauchy_J(ENDPOINT, K2, QUARTER, Z, c),
}
ANGLES = ((0, 1), (1, 1), (1, 1 << 20), (3, 16), (1, 2), (5, 8), (1023, 1024))


def integrand_values(name, prec):
    """[integrand at each of ANGLES] for one case, at the case's precision:
    the kernel's ints (pairs of ints) read at their binary point, exactly."""
    ovals = []
    fixed_oval = hyp._fixed_oval

    def recording(*args):
        ovals.append(fixed_oval(*args))
        return ovals[-1]

    hyp._fixed_oval = recording
    try:
        INTEGRAND_CASES[name](Config(precision_bits=prec))
    finally:
        hyp._fixed_oval = fixed_oval
    [(oval, point)] = ovals
    read = lambda v: from_man_exp(v, -point)
    return encode([mp.make_mpc(tuple(map(read, v))) if isinstance(v, tuple)
                   else mp.make_mpf(read(v))
                   for v in (hyp._oval_node(oval, j, n) for j, n in ANGLES)])


@pytest.mark.parametrize("name", sorted(INTEGRAND_CASES))
@pytest.mark.parametrize("prec", PRECS)
def test_oval_integrand_golden(name, prec):
    golden = json.loads(INTEGRAND_GOLDEN.read_text())
    assert integrand_values(name, prec) == golden[name][str(prec)]


if __name__ == "__main__":
    if sys.argv[1:] == ["integrand"]:
        out = {name: {str(prec): integrand_values(name, prec) for prec in PRECS}
               for name in INTEGRAND_CASES}
    else:
        out = {name: {str(prec): compute(name, prec) for prec in precs}
               for name, (_, precs) in CASES.items()}
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
