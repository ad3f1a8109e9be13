import json
from fractions import Fraction

import pytest
from mpmath import mp

from abelint import serialize as ser
from abelint.cycles import CycleVector, IntervalSystem, real_interval_to_coefficients
from abelint.errors import InputError
from abelint.hyperelliptic import OneForm
from abelint.ratpoly import RatPoly, chebyshev


def test_poly_roundtrip():
    p = chebyshev(6) / 3 - RatPoly.constant(Fraction(2, 7))
    data = ser.poly_to_json(p)
    assert all(isinstance(c, str) for c in data)
    assert ser.poly_from_json(data) == p
    # the documented example: T_2 = ["-1","0","2"]
    assert ser.poly_to_json(chebyshev(2)) == ["-1", "0", "2"]


def test_poly_rejects_non_rational():
    with pytest.raises(InputError):
        ser.poly_from_json(["1.5.2"])
    with pytest.raises(InputError):
        ser.poly_from_json({"a": 1})


def test_cycle_roundtrip():
    v = CycleVector(4, (1, Fraction(-1, 3), Fraction(-2, 3), 0))
    data = ser.cycle_to_json(v)
    assert data["reduced"] is True
    assert ser.cycle_from_json(data) == v
    assert ser.cycle_from_json(["1", "-1/3", "-2/3", "0"]) == v


def test_cycle_reduced_flag_validated():
    with pytest.raises(InputError):
        ser.cycle_from_json({"n": 2, "v": ["1", "0"], "reduced": True})


def test_interval_system_roundtrip():
    sys1 = IntervalSystem.of(("-1", "0.5", Fraction(2, 3)))
    data = ser.interval_system_to_json(sys1)
    back = ser.interval_system_from_json(data)
    assert back.intervals[0].weight == Fraction(2, 3)
    assert back.intervals[0].a == "-1"


def test_monodromy_roundtrip(t6, t6_rep, config):
    data = ser.monodromy_to_json(t6_rep)
    text = ser.dumps(data)
    back = ser.monodromy_from_json(json.loads(text))
    assert back.n == t6_rep.n
    assert back.generators == t6_rep.generators
    assert back.infinity == t6_rep.infinity
    assert back.petal_order == t6_rep.petal_order
    with mp.workprec(t6_rep.precision_bits):
        for a, b in zip(back.base_fiber, t6_rep.base_fiber):
            assert abs(a - b) < mp.mpf(10) ** -30
    # the record keeps no refined fiber: a walk starts from the printed one
    system = IntervalSystem.of(("-0.9", "0.3", 1), ("0.5", "1.25", -2))
    assert (real_interval_to_coefficients(t6, system, back, config)
            == real_interval_to_coefficients(t6, system, t6_rep, config))


def test_one_form_roundtrip():
    omega = OneForm.of(dx={(1, 1): Fraction(1), (0, 3): Fraction(-2, 5)},
                       dy={(2, 0): Fraction(7)})
    data = ser.one_form_to_json(omega)
    back = ser.one_form_from_json(data)
    assert back == omega


def test_config_validation():
    cfg = ser.config_from_json({"precision_bits": 96, "seed": 5})
    assert cfg.precision_bits == 96 and cfg.seed == 5
    with pytest.raises(InputError):
        ser.config_from_json({"unknown_knob": 1})


def test_dumps_deterministic(t6_rep):
    a = ser.dumps(ser.monodromy_to_json(t6_rep))
    b = ser.dumps(ser.monodromy_to_json(t6_rep))
    assert a == b
