"""JSON codecs for every value that crosses the CLI boundary.

Conventions: exact rationals are "p/q" strings, numeric values are decimal
strings tagged with the precision they were produced at, permutations are
1-based image arrays, polynomials are little-endian coefficient arrays.
All emitters sort keys so a fixed Config yields byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from mpmath import mp

from .config import CONFIG_OPTIONS, COUNT_LIMIT, Config
from .cycles import (CycleVector, IntervalSystem, LevelCycle,
                     VanishingCycleCombo, WeightedInterval)
from .errors import InputError
from .hyperelliptic import OneForm, OvalFamily
from .invariant import SubspaceDecomposition
from .monodromy import MonodromyRep, Permutation
from .numerics import nstr_det
from .ratpoly import RatPoly
from .solver import ClassificationReport, SolutionBasis


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _expect(cond, message):
    if not cond:
        raise InputError(message)


def count_from_json(value, what: str) -> int:
    """A nonnegative integer field up to COUNT_LIMIT, such as a degree bound:
    6, 6.0 or "6", but not true, 6.9 or Infinity."""
    try:
        if isinstance(value, bool) or (isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError
        count = int(value)
    except (TypeError, ValueError):
        raise InputError(f"{what} must be an integer, not {value!r}")
    _expect(count >= 0, f"{what} must be nonnegative, not {count}")
    _expect(count <= COUNT_LIMIT, f"{what} must be at most {COUNT_LIMIT}, not {count}")
    return count


def finite_decimal(value, what: str) -> str:
    """A finite decimal number field, as its string."""
    try:
        if mp.isfinite(mp.mpf(str(value))):
            return str(value)
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise InputError(f"{what} must be a finite decimal number, not {value!r}")


def decimals_from_json(data, what: str) -> list[str]:
    """A JSON array of finite decimal numbers, as their strings."""
    _expect(isinstance(data, list), f"{what} must be an array of decimal numbers")
    return [finite_decimal(value, f"each entry of {what}") for value in data]


# -- rationals --------------------------------------------------------------

def frac_to_str(c: Fraction) -> str:
    return str(Fraction(c))


def frac_from_str(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {s!r} ({exc})")


# -- polynomials ------------------------------------------------------------

def poly_to_json(p: RatPoly) -> list[str]:
    return [frac_to_str(c) for c in p.coeffs]


def poly_from_json(data) -> RatPoly:
    _expect(isinstance(data, list), "polynomial must be a JSON array")
    return RatPoly([frac_from_str(c) for c in data])


# -- complex numbers --------------------------------------------------------

def complex_to_json(z, prec: int) -> list[str]:
    with mp.workprec(prec):
        zc = mp.mpc(z)
        return [nstr_det(mp.re(zc), prec), nstr_det(mp.im(zc), prec)]


def complex_from_json(data, prec: int):
    _expect(isinstance(data, list) and len(data) == 2,
            "complex number must be a [re, im] array of decimal strings")
    real, imag = (finite_decimal(part, "each part of a complex number")
                  for part in data)
    with mp.workprec(prec):
        return mp.mpc(mp.mpf(real), mp.mpf(imag))


# -- monodromy --------------------------------------------------------------

def monodromy_to_json(rep: MonodromyRep) -> dict:
    prec = rep.precision_bits
    return {
        "degree": rep.n,
        "precision_bits": prec,
        "base_point": complex_to_json(rep.base_point, prec),
        "critical_values": [complex_to_json(c, prec) for c in rep.critical_values],
        "generators": [list(g.images) for g in rep.generators],
        "infinity": list(rep.infinity.images),
        "base_fiber": [complex_to_json(x, prec) for x in rep.base_fiber],
        "petal_order": list(rep.petal_order),
    }


def monodromy_from_json(data) -> MonodromyRep:
    _expect(isinstance(data, dict), "monodromy record must be an object")
    for key in ("degree", "base_point", "critical_values", "generators",
                "infinity", "base_fiber", "petal_order", "precision_bits"):
        _expect(key in data, f"monodromy record is missing {key!r}")
    prec = int(data["precision_bits"])
    petals = (tuple(Permutation(tuple(int(i) for i in g))
                    for g in data["generators"]),
              tuple(int(i) for i in data["petal_order"]))
    return MonodromyRep(
        n=int(data["degree"]),
        base_point=complex_from_json(data["base_point"], prec),
        critical_values=tuple(complex_from_json(c, prec)
                              for c in data["critical_values"]),
        infinity=Permutation(tuple(int(i) for i in data["infinity"])),
        base_fiber=tuple(complex_from_json(x, prec) for x in data["base_fiber"]),
        precision_bits=prec,
        _petals=lambda: petals,
    )


# -- cycles and intervals ---------------------------------------------------

def cycle_to_json(v: CycleVector) -> dict:
    return {"n": v.n, "v": [frac_to_str(c) for c in v.v], "reduced": v.reduced}


def cycle_from_json(data) -> CycleVector:
    if isinstance(data, list):
        coeffs = [frac_from_str(c) for c in data]
        return CycleVector(len(coeffs), coeffs)
    _expect(isinstance(data, dict) and isinstance(data.get("v"), list),
            "cycle must be a list or {v: [...]}")
    coeffs = [frac_from_str(c) for c in data["v"]]
    n = count_from_json(data.get("n", len(coeffs)), "cycle length n")
    reduced = data.get("reduced")
    return CycleVector(n, coeffs, reduced=reduced)


def interval_system_to_json(system: IntervalSystem) -> list[dict]:
    return [{"a": str(w.a), "b": str(w.b), "weight": frac_to_str(w.weight)}
            for w in system.intervals]


def interval_system_from_json(data) -> IntervalSystem:
    _expect(isinstance(data, list), "interval system must be a JSON array")
    out = []
    for item in data:
        _expect(isinstance(item, dict) and {"a", "b", "weight"} <= set(item),
                "each interval needs a, b, weight")
        out.append(WeightedInterval(finite_decimal(item["a"], "interval endpoint a"),
                                    finite_decimal(item["b"], "interval endpoint b"),
                                    frac_from_str(item["weight"])))
    return IntervalSystem(tuple(out))


def level_cycles_to_json(level_cycles: list[LevelCycle], prec: int) -> list[dict]:
    return [{"level": nstr_det(lc.level, prec),
             "is_critical": lc.is_critical,
             "cycle": cycle_to_json(lc.cycle)} for lc in level_cycles]


def combo_from_json(data) -> VanishingCycleCombo:
    _expect(isinstance(data, dict) and "n_local" in data
            and isinstance(data.get("coefficients"), list),
            "combo needs n_local and a coefficients array")
    coeffs = {}
    for item in data["coefficients"]:
        _expect(isinstance(item, dict) and {"i", "j", "c"} <= set(item),
                "each combo entry needs i, j, c")
        i, j = (count_from_json(item[key], f"combo index {key}") for key in "ij")
        coeffs[(i, j)] = frac_from_str(item["c"])
    return VanishingCycleCombo(count_from_json(data["n_local"], "n_local"), coeffs)


# -- solution bases and reports ----------------------------------------------

def basis_to_json(basis: SolutionBasis, residuals=None, prec: int | None = None) -> dict:
    out = {
        "degree_bound": basis.degree_bound,
        "dimension": basis.dim,
        "basis": [poly_to_json(p) for p in basis.basis],
        "provenance": list(basis.provenance),
    }
    if residuals is not None:
        out["residuals"] = [nstr_det(r, prec or 64) for r in residuals]
    return out


def subspaces_to_json(dec: SubspaceDecomposition) -> dict:
    return {"components": sorted(dec.components),
            "dims": {str(d): k for d, k in sorted(dec.dims.items())}}


def classification_to_json(report: ClassificationReport, prec: int) -> dict:
    certs = {}
    for key, val in report.certificates.items():
        certs[str(key)] = _certificate_to_json(val)
    return {
        "case": report.case,
        "vanishes": report.vanishes,
        "residual": nstr_det(report.residual, prec),
        "components": sorted(report.components),
        "certificates": certs,
    }


def _certificate_to_json(val):
    from .solver import PullbackPart
    if isinstance(val, RatPoly):
        return poly_to_json(val)
    if isinstance(val, Fraction):
        return frac_to_str(val)
    if isinstance(val, PullbackPart):
        return {"divisor": val.divisor,
                "outer": poly_to_json(val.outer),
                "inner": poly_to_json(val.inner),
                "inner_cycles_reduced": val.inner_cycles_reduced}
    if isinstance(val, tuple):
        return [_certificate_to_json(x) for x in val]
    if isinstance(val, dict):
        return {str(k): _certificate_to_json(v) for k, v in val.items()}
    return str(val)


# -- hyperelliptic inputs -----------------------------------------------------

def one_form_from_json(data) -> OneForm:
    _expect(isinstance(data, dict), "one-form must be an object")
    dx, dy = {}, {}
    for key, target in (("dx", dx), ("dy", dy)):
        terms = data.get(key, [])
        _expect(isinstance(terms, list), f"one-form {key} must be an array of terms")
        for item in terms:
            _expect(isinstance(item, dict) and {"px", "py", "coeff"} <= set(item),
                    f"each {key} term needs px, py, coeff")
            px, py = (count_from_json(item[e], f"{key} exponent {e}")
                      for e in ("px", "py"))
            target[(px, py)] = frac_from_str(item["coeff"])
    return OneForm.of(dx=dx, dy=dy)


def one_form_to_json(omega: OneForm) -> dict:
    def side(biv):
        return [{"px": i, "py": j, "coeff": frac_to_str(c)}
                for (i, j), c in sorted(biv.items())]
    return {"dx": side(omega.dx), "dy": side(omega.dy)}


def oval_family_from_json(data) -> OvalFamily:
    _expect(isinstance(data, dict) and {"f", "pair_index", "t_min", "t_max"}
            <= set(data), "oval family needs f, pair_index, t_min, t_max")
    return OvalFamily(f=poly_from_json(data["f"]),
                      pair_index=count_from_json(data["pair_index"], "pair_index"),
                      t_min=finite_decimal(data["t_min"], "t_min"),
                      t_max=finite_decimal(data["t_max"], "t_max"))


# -- config -------------------------------------------------------------------

def _config_number(key: str, val, integral: bool):
    """A numeric Config field: a JSON number or a decimal string; booleans,
    non-finite values and (for integer fields) fractions are input errors."""
    try:
        exact = Fraction(val.strip() if isinstance(val, str) else val)
        value = int(exact) if integral else float(exact)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        value = None
    _expect(value is not None and not isinstance(val, bool),
            f"config field {key} must be a finite number, not {val!r}")
    _expect(not integral or value == exact,
            f"config field {key} must be an integer, not {val!r}")
    return value


def config_from_json(data) -> Config:
    _expect(isinstance(data, dict), "config must be an object")
    unknown = set(data) - set(CONFIG_OPTIONS)
    _expect(not unknown, f"unknown config fields: {sorted(unknown)}")
    return Config(**{key: None if data[key] is None and nullable   # the Config default
                      else _config_number(key, data[key], kind is int)
                      for key, (kind, nullable) in CONFIG_OPTIONS.items() if key in data})
