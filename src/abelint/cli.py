"""Batch command-line interface: JSON in, JSON (or SVG) out.

Exit codes: 0 success, 1 computation failure (tracking, quadrature,
consistency), 2 input error (bad JSON, schema violation, bad parameters).
Every command validates its input against the documented schema before any
numeric work starts, and all output is deterministic for a fixed Config.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from mpmath import mp

from . import serialize as ser
from .config import CONFIG_OPTIONS, Config
from .cycles import build_constellation, constellation_svg, \
    real_interval_to_coefficients
from .errors import ComputationError, InputError
from .hyperelliptic import (check_exth, integral_I, integral_I_prime,
                            main4_limit_check, reduce_form,
                            vanishing_criterion)
from .invariant import decompose_v_delta, psi_set, u_d_dimension_table
from .monodromy import monodromy
from .numerics import fiber_values, nstr_det
from .ratpoly import RatPoly
from .solver import (classify, cycle_residual, group_data, tracked_fiber_samples,
                     vanishing_basis, verify_vanishing_numeric)


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read JSON input: {exc}")


def _read_object(path: str, command: str) -> dict:
    data = _read_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{command} input must be a JSON object")
    return data


def _write(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config_from_args(args) -> Config:
    cfg = Config()
    if args.config:
        cfg = ser.config_from_json(_read_json(args.config))
    return replace(cfg, **{name: getattr(args, name) for name in CONFIG_OPTIONS
                           if getattr(args, name) is not None})


def _poly_from_input(data) -> RatPoly:
    if isinstance(data, list):
        return ser.poly_from_json(data)
    if isinstance(data, dict) and "polynomial" in data:
        return ser.poly_from_json(data["polynomial"])
    raise InputError("expected a polynomial array or {polynomial: [...]}")


def _require_degree(p: RatPoly, at_least: int):
    if p.is_zero() or p.degree < at_least:
        raise InputError(f"polynomial must have degree >= {at_least}")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_monodromy(args, cfg):
    p = _poly_from_input(_read_json(args.input))
    _require_degree(p, 2)
    rep = monodromy(p, cfg)
    _write(ser.dumps(ser.monodromy_to_json(rep)), args.output)


def cmd_lattice(args, cfg):
    p = _poly_from_input(_read_json(args.input))
    _require_degree(p, 2)
    rep, lattice = group_data(p, cfg)
    out = {
        "n": lattice.n,
        "members": list(lattice.members),
        "covers": {str(d): list(lattice.covered_by(d)) for d in lattice.members},
        "witnesses": {str(d): {"left": ser.poly_to_json(dec.left),
                               "right": ser.poly_to_json(dec.right)}
                      for d, dec in sorted(lattice.witness.items())},
        "psi": {str(d): sorted(psi_set(d, lattice).psi) for d in lattice.members},
        "dims": {str(d): k for d, k in sorted(u_d_dimension_table(lattice).items())},
    }
    _write(ser.dumps(out), args.output)


def cmd_analyze_cycle(args, cfg):
    data = _read_json(args.input)
    p = _poly_from_input(data)
    _require_degree(p, 2)
    if "cycle" not in data:
        raise InputError("analyze-cycle needs a cycle")
    v = ser.cycle_from_json(data["cycle"])
    rep, lattice = group_data(p, cfg)
    if v.n != lattice.n:
        raise InputError("cycle length does not match the polynomial degree")
    _write(ser.dumps(ser.subspaces_to_json(decompose_v_delta(v, lattice))),
           args.output)


def _basis_with_residuals(p, basis, cycles, cfg, rep):
    """The basis as JSON with, per element, its worst oracle residual over
    the nonzero cycles, all read off one set of tracked sample fibers on
    which each element is evaluated once."""
    prec = cfg.precision_bits
    cycles = [v for v in cycles if not v.is_zero()]
    residuals = [mp.mpf(0)] * basis.dim
    if cycles and basis.dim:
        fibers = tracked_fiber_samples(p, rep, cfg)
        residuals = []
        for q in basis.basis:
            values = fiber_values(q, fibers, prec)
            residuals.append(max(cycle_residual(v, values, prec) for v in cycles))
    return ser.basis_to_json(basis, residuals=residuals, prec=prec)


def _solve(data, args, cfg):
    """`solve` on parsed input; every field is checked before any
    monodromy is computed."""
    p = _poly_from_input(data)
    _require_degree(p, 2)
    bound = (ser.count_from_json(data["degree_bound"], "degree_bound")
             if "degree_bound" in data else cfg.resolved_degree_bound(p.degree))
    if "cycle" in data:
        v = ser.cycle_from_json(data["cycle"])
        if v.n != p.degree:
            raise InputError("cycle length does not match the polynomial degree")
        rep, lattice = group_data(p, cfg)
        basis = vanishing_basis([v], lattice, bound)
        out = _basis_with_residuals(p, basis, [v], cfg, rep)
        if v.is_zero():
            out["note"] = ("cycle is zero: every polynomial up to the bound "
                           "vanishes trivially")
    elif "intervals" in data:
        system = ser.interval_system_from_json(data["intervals"])
        rep, lattice = group_data(p, cfg)
        level_cycles = real_interval_to_coefficients(p, system, rep, cfg)
        nonzero = [lc.cycle for lc in level_cycles if not lc.cycle.is_zero()]
        basis = vanishing_basis(nonzero, lattice, bound)
        out = _basis_with_residuals(p, basis, nonzero, cfg, rep)
        out["level_cycles"] = ser.level_cycles_to_json(level_cycles,
                                                       cfg.precision_bits)
    else:
        raise InputError("solve needs either a cycle or an interval system")
    _write(ser.dumps(out), args.output)


def cmd_solve(args, cfg):
    _solve(_read_object(args.input, "solve"), args, cfg)


def cmd_moment_problem(args, cfg):
    data = _read_object(args.input, "moment-problem")
    if "intervals" not in data:
        raise InputError("moment-problem needs an interval system")
    _solve(data, args, cfg)


def _cycle_and_q(args, command):
    data = _read_json(args.input)
    p = _poly_from_input(data)
    _require_degree(p, 2)
    for key in ("cycle", "q"):
        if key not in data:
            raise InputError(f"{command} needs {key!r}")
    return p, ser.cycle_from_json(data["cycle"]), ser.poly_from_json(data["q"])


def cmd_classify(args, cfg):
    p, v, q = _cycle_and_q(args, "classify")
    rep, lattice = group_data(p, cfg)
    report = classify(p, v, q, cfg, rep, lattice)
    _write(ser.dumps(ser.classification_to_json(report, cfg.precision_bits)),
           args.output)


def cmd_verify(args, cfg):
    p, v, q = _cycle_and_q(args, "verify")
    rep = monodromy(p, cfg)
    chk = verify_vanishing_numeric(p, v, q, config=cfg, rep=rep)
    out = {"vanishes": chk.vanishes,
           "residual": nstr_det(chk.residual, cfg.precision_bits),
           "tolerance": repr(chk.tolerance),
           "samples": chk.samples}
    _write(ser.dumps(out), args.output)


def cmd_hyper_check(args, cfg):
    data = _read_object(args.input, "hyper-check")
    if "f" not in data:
        raise InputError("hyper-check needs the fiber polynomial f")
    f = ser.poly_from_json(data["f"])
    _require_degree(f, 2)
    if "omega" in data:
        omega = ser.one_form_from_json(data["omega"])
        reduced = reduce_form(omega, f)
        k = reduced.k
    elif "k" in data:
        k = ser.poly_from_json(data["k"])
    else:
        raise InputError("hyper-check needs omega or k")
    out = {"k": ser.poly_to_json(k)}
    if "cycle" in data:
        v = ser.cycle_from_json(data["cycle"])
        report = vanishing_criterion(f, k, v, cfg)
        out["criterion"] = {
            "route": "main3",
            "constant": report.constant,
            "constant_value": (ser.frac_to_str(report.constant_value)
                               if report.constant_value is not None else None),
            "residual": nstr_det(report.residual, cfg.precision_bits),
        }
    if "family" in data:
        family = ser.oval_family_from_json(data["family"])
        witness = check_exth(family, k, cfg)
        out["exth"] = None if witness is None else {
            "witness": ser.poly_to_json(witness.r),
            "exact": witness.exact,
            "max_deviation": nstr_det(witness.max_deviation, cfg.precision_bits),
            "samples": witness.samples,
        }
    if "cycle" not in data and "family" not in data:
        raise InputError("hyper-check needs a cycle or an oval family")
    _write(ser.dumps(out), args.output)


def cmd_hyper_integrate(args, cfg):
    data = _read_object(args.input, "hyper-integrate")
    for key in ("family", "k"):
        if key not in data:
            raise InputError(f"hyper-integrate needs {key!r}")
    family = ser.oval_family_from_json(data["family"])
    k = ser.poly_from_json(data["k"])
    level = ser.finite_decimal(data["t"], "t") if "t" in data else None
    count = ser.count_from_json(data.get("t_samples", 8), "t_samples")
    with mp.workprec(cfg.precision_bits + 32):
        ts = family.t_samples(count, mp.prec) if level is None else [mp.mpf(level)]
        rows = []
        for t in ts:
            rows.append({"t": nstr_det(t, cfg.precision_bits),
                         "I": nstr_det(integral_I(family, k, t, cfg),
                                       cfg.precision_bits),
                         "I_prime": nstr_det(integral_I_prime(family, k, t, cfg),
                                             cfg.precision_bits)})
    _write(ser.dumps({"values": rows}), args.output)


def cmd_main4_check(args, cfg):
    data = _read_object(args.input, "main4-check")
    for key in ("f", "k", "combo", "z_samples", "critical_point"):
        if key not in data:
            raise InputError(f"main4-check needs {key!r}")
    f = ser.poly_from_json(data["f"])
    _require_degree(f, 2)
    k = ser.poly_from_json(data["k"])
    combo = ser.combo_from_json(data["combo"])
    z_samples = ser.decimals_from_json(data["z_samples"], "z_samples")
    with mp.workprec(cfg.precision_bits + 32):
        zs = [mp.mpf(z) for z in z_samples]
        crit = ser.complex_from_json(data["critical_point"], cfg.precision_bits)
        report = main4_limit_check(f, k, combo, zs, crit, cfg)
        rows = [{"z": nstr_det(row["z"], cfg.precision_bits),
                 "limit": [nstr_det(mp.re(row["limit"]), cfg.precision_bits),
                           nstr_det(mp.im(row["limit"]), cfg.precision_bits)],
                 "formula": [nstr_det(mp.re(row["formula"]), cfg.precision_bits),
                             nstr_det(mp.im(row["formula"]), cfg.precision_bits)],
                 "relative_deviation": nstr_det(row["relative_deviation"],
                                                cfg.precision_bits)}
                for row in report.per_sample]
        out = {"per_sample": rows,
               "max_relative_deviation": nstr_det(report.max_relative_deviation,
                                                  cfg.precision_bits)}
    _write(ser.dumps(out), args.output)


def cmd_plot_constellation(args, cfg):
    p = _poly_from_input(_read_json(args.input))
    _require_degree(p, 2)
    con = build_constellation(monodromy(p, cfg))
    _write(constellation_svg(con) + "\n", args.output)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

_COMMANDS = {
    "monodromy": cmd_monodromy,
    "lattice": cmd_lattice,
    "analyze-cycle": cmd_analyze_cycle,
    "solve": cmd_solve,
    "classify": cmd_classify,
    "verify": cmd_verify,
    "moment-problem": cmd_moment_problem,
    "hyper-check": cmd_hyper_check,
    "hyper-integrate": cmd_hyper_integrate,
    "main4-check": cmd_main4_check,
    "plot-constellation": cmd_plot_constellation,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abelint",
        description="Vanishing of zero-dimensional and hyperelliptic "
                    "Abelian integrals: exact solvers and numeric oracles.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cp = sub.add_parser(name)
        cp.add_argument("input", help="input JSON file, or - for stdin")
        cp.add_argument("-o", "--output", default=None,
                        help="output file (default: stdout)")
        cp.add_argument("--config", default=None,
                        help="JSON file with Config overrides")
        for name, (kind, _) in CONFIG_OPTIONS.items():
            cp.add_argument("--" + name.replace("_", "-"), dest=name, type=kind)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first `main` call; parsing
    leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        _COMMANDS[args.command](args, cfg)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
