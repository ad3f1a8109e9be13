import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from abelint import cli
from abelint.config import Config
from abelint.ratpoly import RatPoly, chebyshev
from abelint.serialize import COUNT_LIMIT, poly_to_json

T6_JSON = poly_to_json(chebyshev(6))
GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, input_data=None, tmp_path=None):
    cmd = [sys.executable, "-m", "abelint.cli"] + args
    stdin = json.dumps(input_data) if input_data is not None else None
    return subprocess.run(cmd, input=stdin, capture_output=True, text=True)


def test_monodromy_t6_output():
    res = run_cli(["monodromy", "-"], {"polynomial": T6_JSON})
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["degree"] == 6
    assert out["infinity"] == [2, 3, 4, 5, 6, 1]
    assert len(out["generators"]) == 2


def test_monodromy_x5_cyclic():
    res = run_cli(["monodromy", "-"], {"polynomial": poly_to_json(RatPoly.monomial(5))})
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["generators"] == [[2, 3, 4, 5, 1]]


def test_degree_one_is_usage_error():
    res = run_cli(["monodromy", "-"], {"polynomial": ["0", "1"]})
    assert res.returncode == 2
    assert "degree" in res.stderr


def test_invalid_json_exit_2():
    cmd = [sys.executable, "-m", "abelint.cli", "plot-constellation", "-"]
    res = subprocess.run(cmd, input="not json{", capture_output=True, text=True)
    assert res.returncode == 2


@pytest.mark.parametrize("bad", [{"seed": "zz"}, {"track_step": "x"}])
def test_config_file_input_contract(bad, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    res = run_cli(["monodromy", "-", "--config", str(path)],
                  {"polynomial": ["0", "0", "1"]})
    assert res.returncode == 2
    key = next(iter(bad))
    assert res.stderr.startswith(f"input error: config field {key} must be")
    assert res.stderr.count("\n") == 1


@pytest.mark.parametrize("flag", ["--track-step", "--collision-tol", "--oracle-tol"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_float_flags(flag, value, capsys):
    # in-process: main() rejects the Config before any tracking starts
    assert cli.main(["solve", "-", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {flag[2:].replace('-', '_')} must")
    assert err.count("\n") == 1


def test_lattice_t6():
    res = run_cli(["lattice", "-"], {"polynomial": T6_JSON})
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["members"] == [1, 2, 3, 6]
    assert sorted(out["covers"]["6"]) == [2, 3]
    assert out["psi"] == {"1": [6], "2": [3], "3": [2, 4], "6": [1, 5]}
    assert out["dims"] == {"1": 1, "2": 1, "3": 2, "6": 2}


def test_analyze_cycle():
    res = run_cli(["analyze-cycle", "-"],
                  {"polynomial": T6_JSON,
                   "cycle": ["0", "-1", "-1", "0", "1", "1"]})
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["components"] == [6]


def test_solve_with_intervals():
    payload = {
        "polynomial": T6_JSON,
        "degree_bound": 6,
        "intervals": [
            {"a": "-1", "b": "-0.5", "weight": "1"},
            {"a": "-0.5", "b": "0.5", "weight": "-1"},
            {"a": "0.5", "b": "1", "weight": "1"},
        ],
    }
    res = run_cli(["solve", "-"], payload)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["degree_bound"] == 6
    assert out["dimension"] == 6
    assert all(float(r) < 1e-9 for r in out["residuals"])
    levels = out["level_cycles"]
    assert len(levels) == 2
    assert all(lc["is_critical"] for lc in levels)
    assert res.stdout == (GOLDEN / "solve_intervals.json").read_text()


@pytest.mark.parametrize("a", ["-0.7071067811865475244008",
                               "-0.70710678118654752440084436210484903928483593768847"])
def test_endpoint_next_to_a_turning_point(a, tmp_path, capsys):
    # -0.7071067811865476 lies 7.6e-17 inside the turning point -1/sqrt(2) of
    # T4 = 8x^4 - 8x^2 + 1: the piece between them starts and ends on the
    # critical level -1 and adds nothing
    outputs = []
    for endpoint in ("-0.7071067811865476", a):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({
            "polynomial": ["1", "0", "-8", "0", "8"], "degree_bound": 6,
            "intervals": [{"a": endpoint, "b": "0.25", "weight": "1"}]}))
        assert cli.main(["solve", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    levels = json.loads(outputs[0])["level_cycles"]
    assert [lc["level"] for lc in levels] == ["-1.0", "0.53125", "1.0"]


def test_critical_levels_closer_than_the_endpoint_snap(tmp_path, capsys):
    # x^3 - 3e^2 x with e = 2^-23 has the critical values +-2e^3 = +-2^-68:
    # the monodromy separates them, but an interval end within the snap
    # tolerance of one lies within it of both
    e2 = f"-3/{2 ** 46}"
    path = tmp_path / "input.json"
    path.write_text(json.dumps({
        "polynomial": ["0", e2, "0", "1"], "degree_bound": 3,
        "intervals": [{"a": "-1", "b": "1", "weight": "1"}]}))
    assert cli.main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == (
        "computation failed: critical levels too close for endpoint snapping\n")


def test_interval_solve_refines_the_base_fiber_once(tmp_path, capsys, monkeypatch):
    # monodromy finds the refined base fiber once; the walk's fibers start
    # from it and end unrefined, and only the oracle's sample fibers refine
    # their end, in fixed point
    mono = importlib.import_module("abelint.monodromy")
    cycles = importlib.import_module("abelint.cycles")
    refines, walking = [], []
    refine, end, base, walk = (mono._refine, mono.newton_fixed, mono.fiber_roots,
                               cycles.continue_fiber_to_real)

    def refine_spy(tier, z, fiber, what):
        refines.append((what, bool(walking)))
        return refine(tier, z, fiber, what)

    def end_spy(p, z, starts, prec):
        refines.append(("end fiber", bool(walking)))
        return end(p, z, starts, prec)

    def base_spy(p, z, prec):
        refines.append(("base fiber", bool(walking)))
        return base(p, z, prec)

    def walk_spy(*args):
        walking.append(True)
        try:
            return walk(*args)
        finally:
            walking.pop()

    monkeypatch.setattr(mono, "_refine", refine_spy)
    monkeypatch.setattr(mono, "newton_fixed", end_spy)
    monkeypatch.setattr(mono, "fiber_roots", base_spy)
    monkeypatch.setattr(cycles, "continue_fiber_to_real", walk_spy)
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"polynomial": T6_JSON, "degree_bound": 6, "intervals": [
        {"a": "-1", "b": "-0.5", "weight": "1"}, {"a": "-0.5", "b": "0.5", "weight": "-1"},
        {"a": "0.5", "b": "1", "weight": "1"}]}))
    assert cli.main(["solve", str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "solve_intervals.json").read_text()
    assert refines.count(("base fiber", False)) == 1
    assert not any(inside for _, inside in refines)
    assert refines.count(("end fiber", False)) == Config().samples
    assert len(refines) == 1 + Config().samples


@pytest.mark.parametrize("data", [
    {"polynomial": T6_JSON, "degree_bound": 6, "intervals": [
        {"a": "-1", "b": "-0.5", "weight": "1"}, {"a": "-0.5", "b": "0.5", "weight": "-1"},
        {"a": "0.5", "b": "1", "weight": "1"}]},
    {"polynomial": ["1/8", "-3/4", "0", "1"], "degree_bound": 6, "intervals": [
        {"a": "-1", "b": "1.125", "weight": "2"}]},
], ids=["T6", "cubic"])
def test_interval_solve_builds_the_critical_value_poly_once(data, tmp_path, capsys,
                                                            monkeypatch):
    # `monodromy` keeps P's exact picture on the rep, and the walks read it
    calls = []
    build = importlib.import_module("abelint.ratpoly").critical_value_poly

    def spy(p):
        calls.append(p)
        return build(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("abelint") and hasattr(module, "critical_value_poly"):
            monkeypatch.setattr(module, "critical_value_poly", spy)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert cli.main(["solve", str(path)]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["level_cycles"]


def test_main_builds_one_parser(tmp_path, capsys, monkeypatch):
    # the parser is built on the first main call and shared by the next ones,
    # whose output is the one a fresh parser gives, also after an exit 2
    built = []
    build = cli.build_parser

    def counting_build():
        built.append(True)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    poly, bad = tmp_path / "poly.json", tmp_path / "bad.json"
    poly.write_text(json.dumps(["1", "-3", "0", "1"]))
    bad.write_text("[")
    calls = [["monodromy", str(poly), "--precision-bits", "96"],
             ["monodromy"],                      # argparse: exit 2
             ["lattice", str(poly)],
             ["lattice", str(bad)],              # input error: exit 2
             ["monodromy", str(poly)]]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _, _ in fresh] == [0, 2, 0, 2, 0]
    assert fresh[0][1] != fresh[4][1]            # 96 bits, then the default
    built.clear()
    cli._parser.cache_clear()
    assert [run(argv) for argv in calls] == fresh
    assert len(built) == 1


def test_moment_problem_reads_stdin_once():
    payload = {"polynomial": ["0", "0", "1"],
               "intervals": [{"a": "-0.5", "b": "0.75", "weight": "1"}]}
    res = run_cli(["moment-problem", "-"], payload)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["degree_bound"] == 4
    assert [lc["level"] for lc in out["level_cycles"]] == ["0.0", "0.25", "0.5625"]
    assert [lc["is_critical"] for lc in out["level_cycles"]] == [True, False, False]


@pytest.mark.parametrize("fields, message", [
    ({"degree_bound": "zz", "cycle": ["1", "-1"]}, "degree_bound must be an integer"),
    ({"degree_bound": -1, "cycle": ["1", "-1"]}, "degree_bound must be nonnegative"),
    ({"cycle": {"n": "x", "v": 3}}, "cycle must be a list"),
    ({"cycle": {"n": "x", "v": ["1", "-1"]}}, "cycle length n must be an integer"),
    ({"intervals": [{"a": "nan", "b": "0.75", "weight": "1"}]},
     "interval endpoint a must be a finite decimal number"),
    ({"intervals": [{"a": "-0.5", "b": "1/0", "weight": "1"}]},
     "interval endpoint b must be a finite decimal number, not '1/0'"),
])
def test_solve_input_contract(fields, message, tmp_path, monkeypatch, capsys):
    def no_monodromy(*args, **kwargs):
        raise AssertionError("monodromy computed before the input was checked")

    monkeypatch.setattr(cli, "group_data", no_monodromy)
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"polynomial": ["0", "0", "1"], **fields}))
    assert cli.main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {message}")
    assert err.count("\n") == 1


def test_solve_empty_cycle_note():
    res = run_cli(["solve", "-"],
                  {"polynomial": T6_JSON, "degree_bound": 3,
                   "cycle": ["0", "0", "0", "0", "0", "0"]})
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert "note" in out
    assert out["dimension"] == 4


def test_verify_and_classify():
    q = poly_to_json(chebyshev(2) + chebyshev(3))
    base = {"polynomial": T6_JSON,
            "cycle": ["0", "-1", "-1", "0", "1", "1"], "q": q}
    res = run_cli(["verify", "-"], base)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["vanishes"] is True
    res2 = run_cli(["classify", "-"], base)
    assert res2.returncode == 0, res2.stderr
    out = json.loads(res2.stdout)
    assert out["case"] == "pullback-sum"
    assert out["vanishes"] is True
    assert res2.stdout == (GOLDEN / "classify_pullback_sum.json").read_text()


def test_hyper_check_reduce_and_exth():
    f = poly_to_json((RatPoly.x() ** 2 / 2 - RatPoly.one()) ** 2)
    payload = {
        "f": f,
        "omega": {"dx": [{"px": 1, "py": 1, "coeff": "1"}], "dy": []},
        "cycle": ["1", "1", "1", "1"],
        "family": {"f": f, "pair_index": 1, "t_min": "-0.8", "t_max": "-0.2"},
    }
    res = run_cli(["hyper-check", "-"], payload)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["k"] == ["0", "1"]
    assert out["criterion"]["constant"] is True
    assert out["criterion"]["constant_value"] == "4"
    assert out["exth"]["witness"] == ["0", "0", "1"]
    assert out["exth"]["exact"] is True


def test_hyper_check_reduces_omega_with_dy_terms():
    # k y dx of omega by hand: integrating the dy part leaves y^6, y^4, y^3
    # and y dx terms, and lowering y^6 and y^3 through d(y^2 - f) with
    # f' = x^3 - 2x adds (5/6)(x^5 - 2x^3) to y's coefficient 3
    payload = {
        "f": HYPER_F,
        "omega": {"dx": [{"px": 2, "py": 4, "coeff": "1/2"}, {"px": 0, "py": 1, "coeff": "3"},
                         {"px": 1, "py": 6, "coeff": "-2/3"}],
                  "dy": [{"px": 1, "py": 3, "coeff": "-2"}, {"px": 2, "py": 2, "coeff": "5/3"},
                         {"px": 0, "py": 5, "coeff": "7"}]},
        "cycle": ["1", "-1", "0", "0"],
    }
    res = run_cli(["hyper-check", "-"], payload)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["k"] == ["3", "0", "0", "-5/3", "0", "5/6"]
    assert out["criterion"]["constant"] is False


def test_hyper_integrate():
    f = poly_to_json((RatPoly.x() ** 2 / 2 - RatPoly.one()) ** 2)
    payload = {"family": {"f": f, "pair_index": 1,
                          "t_min": "-0.8", "t_max": "-0.2"},
               "k": ["1"], "t": "-0.5"}
    res = run_cli(["hyper-integrate", "-"], payload)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert len(out["values"]) == 1
    assert float(out["values"][0]["I"]) > 0


HYPER_F = poly_to_json((RatPoly.x() ** 2 / 2 - RatPoly.one()) ** 2)


@pytest.mark.parametrize("command, payload, golden", [
    ("hyper-integrate",
     {"family": {"f": HYPER_F, "pair_index": 1, "t_min": "-0.8", "t_max": "-0.2"},
      "k": ["1", "0", "1"], "t_samples": 3},
     "hyper_integrate.json"),
    ("main4-check",
     {"f": HYPER_F, "k": ["0", "1"],
      "combo": {"n_local": 2, "coefficients": [{"i": 1, "j": 2, "c": "1"}]},
      "z_samples": ["-0.015625", "-0.03125"],
      "critical_point": ["1.4142135623730950488016887242096980785696718753769", "0"]},
     "main4_check.json"),
])
def test_hyper_stdout_golden(command, payload, golden, tmp_path, capsys):
    """stdout of the quadrature commands, as the mp-object quadrature wrote it."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert cli.main([command, str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("fields, message", [
    ({"t": "zz"}, "t must be a finite decimal number"),
    ({"t": "inf"}, "t must be a finite decimal number"),
    ({"t_samples": "q"}, "t_samples must be an integer"),
    ({"pair_index": "x"}, "pair_index must be an integer"),
    ({"t": "3/0"}, "t must be a finite decimal number, not '3/0'"),
])
def test_hyper_integrate_input_contract(fields, message, tmp_path, monkeypatch,
                                        capsys):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran before the input was checked")

    monkeypatch.setattr(cli, "integral_I", no_quadrature)
    family = {"f": ["0", "1/2", "-1"], "pair_index": 0,
              "t_min": "1/4", "t_max": "1"}
    if "pair_index" in fields:
        family["pair_index"] = fields.pop("pair_index")
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"family": family, "k": ["1", "0", "1"], **fields}))
    assert cli.main(["hyper-integrate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {message}")
    assert err.count("\n") == 1


MAIN4_INPUT = {"f": HYPER_F, "k": ["0", "1"],
               "combo": {"n_local": 2, "coefficients": [{"i": 1, "j": 2, "c": "1"}]},
               "z_samples": ["-0.015625"], "critical_point": ["1.4142", "0"]}


@pytest.mark.parametrize("command, payload, message", [
    ("main4-check", {**MAIN4_INPUT, "z_samples": ["abc"]},
     "each entry of z_samples must be a finite decimal number, not 'abc'"),
    ("main4-check", {**MAIN4_INPUT, "z_samples": 5},
     "z_samples must be an array of decimal numbers"),
    ("main4-check", {**MAIN4_INPUT, "combo": {
        "n_local": 2, "coefficients": [{"i": "x", "j": 2, "c": "1"}]}},
     "combo index i must be an integer, not 'x'"),
    ("main4-check", {**MAIN4_INPUT, "critical_point": ["a", "0"]},
     "each part of a complex number must be a finite decimal number, not 'a'"),
    ("hyper-check", {"f": HYPER_F, "cycle": ["1", "-1", "0", "0"],
                     "omega": {"dx": [{"px": "a", "py": 1, "coeff": "1"}]}},
     "dx exponent px must be an integer, not 'a'"),
    ("hyper-check", 7, "hyper-check input must be a JSON object"),
    ("hyper-integrate", 7, "hyper-integrate input must be a JSON object"),
    ("main4-check", {**MAIN4_INPUT, "z_samples": ["1/0"]},
     "each entry of z_samples must be a finite decimal number, not '1/0'"),
    ("hyper-check", {"f": HYPER_F, "k": ["1"], "family": {
        "f": HYPER_F, "pair_index": 1, "t_min": "-0.8", "t_max": "1/0"}},
     "t_max must be a finite decimal number, not '1/0'"),
    ("hyper-check", {"f": T6_JSON, "k": ["1"], "cycle": ["1", "-1"]},
     "cycle length does not match the polynomial degree"),
    ("main4-check", {**MAIN4_INPUT, "combo": {"n_local": 0, "coefficients": []}},
     "n_local must be at least 1, not 0"),
    ("main4-check", {**MAIN4_INPUT, "f": ["0", "0", "0", "1"], "critical_point": ["0", "0"],
                     "combo": {"n_local": 5, "coefficients": [{"i": 1, "j": 2, "c": "1"}]}},
     "n_local must be at most the degree of f, 3, not 5"),
    ("main4-check", {**MAIN4_INPUT, "z_samples": ["-0.015625", "0"]},
     "each z sample must be nonzero: z = 0 is the critical level"),
])
def test_hyper_commands_input_contract(command, payload, message, tmp_path, capsys):
    """A malformed field is an input error (exit 2, one line), not a traceback."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("command, payload", [
    # x^2 + 10^400 x: its critical value is -2.5e799
    ("monodromy", ["0", "1e400", "1"]),
    # f + t has its roots near -+1e50000
    ("hyper-integrate", {"family": {"f": ["0", "1/2", "-1"], "pair_index": 0,
                                    "t_min": "1/4", "t_max": "1"},
                         "k": ["1"], "t": "1e100000"}),
], ids=["monodromy", "hyper-integrate"])
def test_roots_past_the_double_range(command, payload, tmp_path, capsys):
    """Real roots whose isolating ends do not fit in a double end in an
    answer."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = cli.main([command, str(path)])
    assert (code, capsys.readouterr().err) == (0, "")


@pytest.mark.parametrize("payload, generators, infinity", [
    # x^2 + 10^400 x: the base fiber's monic coefficients are past the
    # double range, its roots are not
    (["0", "1e400", "1"], [[2, 1]], [2, 1]),
    # -8e307 + 2.3e-308 x^2: the monic constant term, -3.5e615, overflows
    # a double
    (["-8e307", "0", "2.3e-308"], [[2, 1]], [2, 1]),
    # x^3 + 10^200 x + 1: the critical values are non-real, near +-1e300 i
    (["1", "1e200", "0", "1"], [[3, 2, 1], [2, 1, 3]], [2, 3, 1]),
], ids=["x^2+1e400x", "huge-over-tiny", "x^3+1e200x+1"])
def test_monodromy_with_coefficients_past_the_double_range(payload, generators, infinity,
                                                           tmp_path, capsys):
    # each root finding runs on x = 2^k u, with 2^k near the Fujiwara bound
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code = cli.main(["monodromy", str(path)])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (out["generators"], out["infinity"]) == (generators, infinity)
    assert elapsed < 1


def test_monodromy_of_a_huge_constant(tmp_path, capsys):
    # x^2 - 10^300: the fiber over the base point 2e300 comes from the double
    # start on the circle of the Fujiwara bound, where polyroots' unit-circle
    # start ran out of steps
    path = tmp_path / "input.json"
    path.write_text(json.dumps(["-1e300", "0", "1"]))
    start = time.perf_counter()
    code = cli.main(["monodromy", str(path)])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    root = "1.73205080756887729352744634150587237e+150"
    assert out["base_fiber"] == [[root, "0.0"], ["-" + root, "0.0"]]
    assert out["generators"] == [[2, 1]]
    assert elapsed < 1


def test_hyper_integrate_next_to_zero(tmp_path, capsys):
    # f + t has a root near -2e-100000: its isolating interval ends at 0,
    # and the root's binary exponent is found by galloping, not bit by bit
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"family": {"f": ["0", "1/2", "-1"], "pair_index": 0,
                                           "t_min": "1/4", "t_max": "1"},
                                "k": ["1"], "t": "1e-100000"}))
    start = time.perf_counter()
    code = cli.main(["hyper-integrate", str(path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["values"][0]["t"] == "1.0e-100000"
    assert elapsed < 2


HYPER_FAMILY = '"f": ["0", "1/2", "-1"], "t_min": "1/4", "t_max": "1"'
COUNT_FIELDS = {
    "degree_bound": ("solve", '{"polynomial": ["0", "0", "1"], '
                              '"cycle": ["1", "-1"], "degree_bound": %s}'),
    "cycle length n": ("solve", '{"polynomial": ["0", "0", "1"], '
                                '"cycle": {"n": %s, "v": ["1", "-1"]}}'),
    "t_samples": ("hyper-integrate", '{"family": {%s, "pair_index": 0}, '
                                     '"k": ["1"], "t_samples": %%s}' % HYPER_FAMILY),
    "pair_index": ("hyper-integrate", '{"family": {%s, "pair_index": %%s}, '
                                      '"k": ["1"]}' % HYPER_FAMILY),
}


@pytest.mark.parametrize("raw, shown", [
    ("Infinity", "inf"), ("-Infinity", "-inf"), ("NaN", "nan"), ("1e400", "inf"),
    ("6.9", "6.9"), ("true", "True"), ("false", "False"), ('"6.5"', "'6.5'"),
])
@pytest.mark.parametrize("field", sorted(COUNT_FIELDS))
def test_count_fields_reject_non_integers(field, raw, shown, tmp_path,
                                          monkeypatch, capsys):
    """A count that is not an integer is an input error (exit 2, one line),
    not a traceback and not a truncation."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(cli, "group_data", no_work)
    monkeypatch.setattr(cli, "integral_I", no_work)
    command, template = COUNT_FIELDS[field]
    path = tmp_path / "input.json"
    path.write_text(template % raw)
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {field} must be an integer, not {shown}\n"


@pytest.mark.parametrize("raw", [COUNT_LIMIT + 1, 10 ** 15])
@pytest.mark.parametrize("field", sorted(COUNT_FIELDS))
def test_count_fields_reject_counts_above_the_limit(field, raw, tmp_path,
                                                    monkeypatch, capsys):
    """A count above COUNT_LIMIT is an input error (exit 2, one line) before
    any work: a degree bound of 10^15 once sized power-sum tables until a
    MemoryError."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(cli, "group_data", no_work)
    monkeypatch.setattr(cli, "integral_I", no_work)
    command, template = COUNT_FIELDS[field]
    path = tmp_path / "input.json"
    path.write_text(template % raw)
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"input error: {field} must be at most {COUNT_LIMIT}, not {raw}\n")


@pytest.mark.parametrize("raw", [COUNT_LIMIT + 1, 10 ** 15])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_degree_bound_option_rejects_bounds_above_the_limit(route, raw, tmp_path,
                                                           monkeypatch, capsys):
    """The --degree-bound flag and a --config file's degree_bound stop at
    COUNT_LIMIT too (exit 2, one line), before any work."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(cli, "group_data", no_work)
    path = tmp_path / "input.json"
    path.write_text(COUNT_FIELDS["degree_bound"][1] % 2)
    if route == "flag":
        extra = ["--degree-bound", str(raw)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"degree_bound": raw}))
        extra = ["--config", str(config)]
    assert cli.main(["solve", str(path)] + extra) == 2
    assert capsys.readouterr().err == (
        f"input error: degree_bound must be at most {COUNT_LIMIT}, not {raw}\n")


@pytest.mark.parametrize("raw", [100000, 10 ** 12])
@pytest.mark.parametrize("route", ["flag", "config"])
def test_precision_bits_option_rejects_values_above_the_limit(route, raw, tmp_path,
                                                             monkeypatch, capsys):
    """The --precision-bits flag and a --config file's precision_bits stop at
    COUNT_LIMIT (exit 2, one line), before any work: `monodromy` on x^2 at
    100000 bits once ran past 20 s without printing."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    monkeypatch.setattr(cli, "monodromy", no_work)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(["0", "0", "1"]))
    if route == "flag":
        extra = ["--precision-bits", str(raw)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"precision_bits": raw}))
        extra = ["--config", str(config)]
    assert cli.main(["monodromy", str(path)] + extra) == 2
    assert capsys.readouterr().err == (
        f"input error: precision_bits must be at most {COUNT_LIMIT}, not {raw}\n")


@pytest.mark.parametrize("raw, message", [
    (0, "samples must be positive"),
    (-3, "samples must be positive"),
    (COUNT_LIMIT + 1, f"samples must be at most {COUNT_LIMIT}, not {COUNT_LIMIT + 1}"),
    (10 ** 12, f"samples must be at most {COUNT_LIMIT}, not {10 ** 12}"),
])
@pytest.mark.parametrize("route", ["flag", "config"])
@pytest.mark.parametrize("command", ["verify", "solve"])
def test_samples_option_rejects_counts_out_of_range(command, route, raw, message,
                                                    tmp_path, monkeypatch, capsys):
    """The --samples flag and a --config file's samples must lie in
    [1, COUNT_LIMIT] (exit 2, one line), before any tracking: a count of 0
    once let the oracle call any cycle vanishing."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    for name in ("group_data", "monodromy", "verify_vanishing_numeric",
                 "tracked_fiber_samples"):
        monkeypatch.setattr(cli, name, no_work)
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"polynomial": ["0", "0", "1"],
                                "cycle": ["1", "-1"], "q": ["0", "1"]}))
    if route == "flag":
        extra = ["--samples", str(raw)]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"samples": raw}))
        extra = ["--config", str(config)]
    assert cli.main([command, str(path)] + extra) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_hyper_integrate_prints_real_values_at_192_bits(tmp_path, capsys):
    """Rounding next to an oval endpoint once made f + t negative at a node,
    and I at t = -0.7 printed as a complex number at 192 bits."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(
        {"family": {"f": HYPER_F, "pair_index": 1, "t_min": "-0.8", "t_max": "-0.2"},
         "k": ["1", "0", "1"], "t_samples": 3}))
    assert cli.main(["hyper-integrate", str(path), "--precision-bits", "192"]) == 0
    values = json.loads(capsys.readouterr().out)["values"]
    assert [row["t"] for row in values] == ["-0.7", "-0.5", "-0.3"]
    for row in values:
        for key in ("I", "I_prime"):
            assert float(row[key]) > 0 and "j" not in row[key], row


@pytest.mark.parametrize("raw", ['"2"', "2.0", "2e0"])
@pytest.mark.parametrize("field", ["degree_bound", "cycle length n"])
def test_count_fields_accept_integral_values(field, raw, tmp_path, capsys):
    """An integer-valued count, as a number or a string, reads as that
    integer: stdout is the same as for the plain 2."""
    path = tmp_path / "input.json"
    outputs = []
    for value in ("2", raw):
        path.write_text(COUNT_FIELDS[field][1] % value)
        assert cli.main(["solve", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_plot_constellation_topology(tmp_path):
    out_file = tmp_path / "t6.svg"
    res = run_cli(["plot-constellation", "-", "-o", str(out_file)],
                  {"polynomial": T6_JSON})
    assert res.returncode == 0, res.stderr
    svg = out_file.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<circle") == 6


def test_plot_constellation_of_x5_shares_one_vertex():
    # the generator over 0 is the 5-cycle: one marked vertex, five edges
    res = run_cli(["plot-constellation", "-"], {"polynomial": ["0"] * 5 + ["1"]})
    assert res.returncode == 0, res.stderr
    assert res.stdout.count("<circle") == 5
    assert res.stdout.count("<rect") == 2     # the background and the vertex
    assert res.stdout.count("<line") == 5


def test_byte_identical_runs():
    payload = {"polynomial": T6_JSON}
    a = run_cli(["monodromy", "-", "--seed", "7"], payload)
    b = run_cli(["monodromy", "-", "--seed", "7"], payload)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


# -2x^3/3 + x^2/4 + 15x/32 - 3/8 on an interval holding both critical points
CUBIC_JSON = ["-3/8", "15/32", "1/4", "-2/3"]
T6_CYCLE = ["0", "-1", "-1", "0", "1", "1"]
LOOP_CASES = [
    ("solve", {"polynomial": T6_JSON, "cycle": T6_CYCLE, "degree_bound": 6}, 1),
    ("solve", {"polynomial": T6_JSON, "degree_bound": 12,
               "intervals": [{"a": "-0.9", "b": "0.3", "weight": "1"}]}, 1),
    ("solve", {"polynomial": CUBIC_JSON, "degree_bound": 6,
               "intervals": [{"a": "-0.5", "b": "0.75", "weight": "2"}]}, 1),
    ("classify", {"polynomial": T6_JSON, "cycle": T6_CYCLE, "q": ["0", "1"]}, 1),
    ("verify", {"polynomial": T6_JSON, "cycle": T6_CYCLE, "q": ["0", "1"]}, 1),
    ("lattice", {"polynomial": T6_JSON}, 1),
    ("analyze-cycle", {"polynomial": T6_JSON, "cycle": T6_CYCLE}, 1),
    ("monodromy", {"polynomial": T6_JSON}, 3),
    ("monodromy", {"polynomial": CUBIC_JSON}, 3),
    ("plot-constellation", {"polynomial": T6_JSON}, 3),
]


@pytest.mark.parametrize("command, payload, loops", LOOP_CASES,
                         ids=[f"{c[0]}-{i}" for i, c in enumerate(LOOP_CASES)])
def test_petal_loops_run_only_where_generators_are_read(command, payload, loops,
                                                        tracked_loops, tmp_path,
                                                        capsys):
    """The branch labels need the loop around infinity alone; a petal loop
    per critical value runs only for the commands that print or draw the
    generators."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert cli.main([command, str(path)]) == 0, capsys.readouterr().err
    assert len(tracked_loops) == loops
    assert tracked_loops[0] == "the infinity loop"


def test_a_failed_product_check_prints_no_monodromy(tmp_path, monkeypatch, capsys):
    """The petal-order product check runs while the JSON is built: a petal
    loop read as the identity still fails the command, with no output."""
    mono = importlib.import_module("abelint.monodromy")
    track = mono._loop_permutation

    def identity_petals(p, dp, loop, start, config, tier, name):
        sigma = track(p, dp, loop, start, config, tier, name)
        return mono.Permutation.identity(sigma.n) if name.startswith("petal") else sigma

    monkeypatch.setattr(mono, "_loop_permutation", identity_petals)
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"polynomial": T6_JSON}))
    assert cli.main(["monodromy", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "computation failed: petal-order product does not reproduce the "
            "infinity cycle\n")
