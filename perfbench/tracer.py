"""Outside-in tracer: wrappers installed over the program's functions.

Nothing in the program is edited.  Each traced function is replaced, in
every `abelint` module that binds it, by a wrapper that measures the call;
`mp.quad` is replaced on the mpmath context.  Hot leaf functions get
counters only; the others also record a span (name, start, end, parent
span, problem id).  Spans stay in memory and are written as JSON lines when
the run ends.  A function's self time is its duration minus the time spent
in wrapped functions it called.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

from mpmath import mp

# (metric prefix, defining module, function name); the metric is
# "<prefix>.<function>.<what>"
SPANNED = [
    ("monodromy", "abelint.monodromy", "monodromy"),
    ("monodromy", "abelint.monodromy", "critical_values"),
    ("monodromy", "abelint.monodromy", "track_fiber"),
    ("monodromy", "abelint.monodromy", "divisor_lattice"),
    ("numerics", "abelint.numerics", "roots_of_shifted"),
    ("numerics", "abelint.numerics", "roots_of"),
    ("cycles", "abelint.cycles", "real_interval_to_coefficients"),
    ("cycles", "abelint.cycles", "continue_fiber_to_real"),
    ("solver", "abelint.solver", "verify_vanishing_numeric"),
    ("solver", "abelint.solver", "tracked_fiber_samples"),
    ("solver", "abelint.solver", "cycle_residual"),
    ("solver", "abelint.solver", "z_delta_basis"),
    ("solver", "abelint.solver", "z_ud_basis"),
    ("solver", "abelint.solver", "z_vd_basis"),
    ("solver", "abelint.solver", "solve_moment_problem"),
    ("linalg", "abelint.linalg", "nullspace"),
    ("linalg", "abelint.linalg", "in_span"),
    ("ratpoly", "abelint.ratpoly", "trace_poly"),
    ("ratpoly", "abelint.ratpoly", "w_adic"),
    ("ratpoly", "abelint.ratpoly", "decompose_all"),
    ("hyperelliptic", "abelint.hyperelliptic", "integral_I"),
    ("hyperelliptic", "abelint.hyperelliptic", "integral_I_prime"),
    ("hyperelliptic", "abelint.hyperelliptic", "cauchy_J"),
    ("hyperelliptic", "abelint.hyperelliptic", "loop_integral"),
    ("hyperelliptic", "abelint.hyperelliptic", "main4_limit_check"),
    ("hyperelliptic", "abelint.hyperelliptic", "check_exth"),
    ("hyperelliptic", "abelint.hyperelliptic", "oval_endpoints"),
    ("hyperelliptic", "abelint.hyperelliptic", "reduce_form"),
    ("cli", "abelint.cli", "main"),
]
COUNTED = [
    ("numerics", "abelint.numerics", "eval_poly"),
    ("linalg", "abelint.linalg", "rref"),
]
SERIALIZE_MODULE = "abelint.serialize"
ALL_MODULES = ["abelint", "abelint.cli", "abelint.config", "abelint.cycles",
               "abelint.hyperelliptic", "abelint.invariant", "abelint.linalg",
               "abelint.monodromy", "abelint.numerics", "abelint.ratpoly",
               "abelint.serialize", "abelint.solver"]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the tracer reports, with its unit."""
    out = []
    for prefix, _, fn in SPANNED + COUNTED:
        out += [(f"{prefix}.{fn}.calls", "count"), (f"{prefix}.{fn}.self_s", "s")]
    out += [("serialize.codecs.calls", "count"), ("serialize.codecs.self_s", "s"),
            ("mpmath.quad.calls", "count"), ("mpmath.quad.self_s", "s"),
            ("monodromy.track_fiber.path_points", "count"),
            ("monodromy.track_fiber.repeat_calls", "count"),
            ("solver.tracked_fiber_samples.repeat_calls", "count"),
            ("linalg.rref.cells", "count"),
            ("trace.overhead_ref", "ref")]
    return out


def _freeze(value):
    """Hashable stand-in for an argument (mp numbers, lists, RatPolys)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        return ("poly", tuple(coeffs))
    if isinstance(value, (mp.mpf, mp.mpc)):
        return repr(value)
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


class Tracer:
    """Collects calls, self time, spans and the per-problem repeat keys."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, int] = {
            "monodromy.track_fiber.path_points": 0,
            "monodromy.track_fiber.repeat_calls": 0,
            "solver.tracked_fiber_samples.repeat_calls": 0,
            "linalg.rref.cells": 0,
        }
        self.spans: list[dict] = []
        self.problem = None
        self._seen: set = set()
        self._stack: list[list[float]] = []    # per active call: [child seconds]
        self._next_id = 1
        self._span_ids: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- problems ------------------------------------------------------------

    def begin_problem(self, problem_id):
        self.problem = problem_id
        self._seen = set()

    def _repeat(self, key) -> bool:
        if key in self._seen:
            return True
        self._seen.add(key)
        return False

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, metric: str, fn, spanned: bool, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            span_id = None
            if spanned:
                span_id = tracer._next_id
                tracer._next_id += 1
                parent = tracer._span_ids[-1] if tracer._span_ids else None
                tracer._span_ids.append(span_id)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                dur = t1 - t0
                if tracer._stack:
                    tracer._stack[-1][0] += dur
                tracer.calls[metric] = tracer.calls.get(metric, 0) + 1
                tracer.self_s[metric] = tracer.self_s.get(metric, 0.0) + dur - frame[0]
                if spanned:
                    tracer._span_ids.pop()
                    tracer.spans.append({"id": span_id, "parent": parent,
                                         "problem": tracer.problem,
                                         "name": metric, "start": t0, "end": t1,
                                         "self_s": dur - frame[0]})
        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def _note_track(self, args, kwargs):
        p, path, start = args[0], args[1], args[2]
        config = args[3] if len(args) > 3 else kwargs.get("config")
        self.extra["monodromy.track_fiber.path_points"] += len(path)
        key = ("track", _freeze(p), _freeze(start), _freeze(path), config)
        if self._repeat(key):
            self.extra["monodromy.track_fiber.repeat_calls"] += 1

    def _note_samples(self, args, kwargs):
        p, rep = args[0], args[1]
        config = args[2] if len(args) > 2 else kwargs.get("config")
        count = args[3] if len(args) > 3 else kwargs.get("count")
        key = ("samples", _freeze(p), id(rep), config, count)
        if self._repeat(key):
            self.extra["solver.tracked_fiber_samples.repeat_calls"] += 1

    def _note_rref(self, args, kwargs):
        rows = args[0] if args else kwargs["rows"]
        if rows:
            self.extra["linalg.rref.cells"] += len(rows) * len(rows[0])

    # -- installation --------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for modname in ALL_MODULES:
            mod = importlib.import_module(modname)
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def install(self):
        notes = {"track_fiber": self._note_track,
                 "tracked_fiber_samples": self._note_samples,
                 "rref": self._note_rref}
        for group, spanned in ((SPANNED, True), (COUNTED, False)):
            for prefix, modname, name in group:
                original = getattr(importlib.import_module(modname), name)
                wrapper = self._wrap(f"{prefix}.{name}.", original, spanned,
                                     notes.get(name))
                self._replace_everywhere(original, wrapper)
        ser = importlib.import_module(SERIALIZE_MODULE)
        for attr, val in list(vars(ser).items()):
            if (callable(val) and getattr(val, "__module__", None) == SERIALIZE_MODULE
                    and not isinstance(val, type)):
                self._replace_everywhere(val, self._wrap("serialize.codecs.", val, False))
        quad = mp.quad
        self._restore.append((mp, "quad", None))
        mp.quad = self._wrap("mpmath.quad.", quad, True)

    def uninstall(self):
        for obj, attr, val in reversed(self._restore):
            if val is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, val)
        self._restore = []

    # -- results -------------------------------------------------------------

    def metrics(self, overhead_ref: float) -> dict:
        out = {}
        for name, unit in metric_names():
            base, _, what = name.rpartition(".")
            if name in self.extra:
                out[name] = {"value": self.extra[name], "unit": unit}
            elif what == "calls":
                out[name] = {"value": self.calls.get(base + ".", 0), "unit": unit}
            elif what == "self_s":
                out[name] = {"value": self.self_s.get(base + ".", 0.0), "unit": unit}
        out["trace.overhead_ref"] = {"value": overhead_ref, "unit": "ref"}
        return out

    def write(self, path: str):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counters": {"calls": self.calls,
                                              "self_s": self.self_s,
                                              "extra": self.extra}}) + "\n")
