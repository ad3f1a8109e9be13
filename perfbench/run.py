"""Benchmark of abelint on the source paper's three problems.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload moment-cli --seed 1 --seconds 12 --trace 0

Workloads: moment-cli, exact-bases, hyper-periods (see README.md).  The
program is measured only from outside, through its public functions and
the CLI entry point.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from harness import FAILED, RefClock, peak_rss_mb, tail_percentile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPS = 3


def _import_program():
    """Import abelint from this checkout's src/, and only from there."""
    sys.path.insert(0, SRC)
    try:
        import abelint
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import abelint from {SRC}: {exc}")
    where = os.path.realpath(os.path.dirname(abelint.__file__))
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: abelint was imported from {where}, "
                         f"not from this checkout's src/")


def _workload(name):
    if name == "moment-cli":
        import moment_cli as mod
    elif name == "exact-bases":
        import exact_bases as mod
    elif name == "hyper-periods":
        import hyper_periods as mod
    else:
        raise SystemExit(f"perfbench: unknown workload {name!r}")
    return mod.Workload


def _timed_batch(wl, clock, before=None):
    """Run every problem once under `clock`; a problem that raises is FAILED."""
    answers, failures = [], []
    clock.start()
    for pid, (label, fn) in enumerate(wl.problems()):
        if before is not None:
            before(pid)

        def guarded(fn=fn, label=label):
            try:
                return fn()
            except Exception as exc:      # a failed problem is counted, not fatal
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                return FAILED
        answers.append(clock.time(guarded))
    return answers, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # -- set-up: imports, inputs, warm-up, group data --------------------------
    _import_program()
    Workload = _workload(args.workload)
    wl = Workload(args.seed, args.seconds)
    import_s = time.perf_counter() - _T_START
    t0 = time.perf_counter()
    wl.group_data()
    group_s = time.perf_counter() - t0
    prepare_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        wl.prepare()
        prepare_s.append(time.perf_counter() - t0)
    setup_s = import_s + group_s + statistics.median(prepare_s)

    # -- the timed batch, untraced ---------------------------------------------
    clock = RefClock(wl.ref_loops)
    answers, failures = _timed_batch(wl, clock)
    refs = clock.problem_refs()
    batch_ref = sum(refs)

    metrics = None
    same_traced = True
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tclock = RefClock(wl.ref_loops)
        tracer.install()
        try:
            traced, _ = _timed_batch(wl, tclock, tracer.begin_problem)
        finally:
            tracer.uninstall()
        same_traced = [wl.answer_key(a) for a in traced] == \
            [wl.answer_key(a) for a in answers]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        metrics = tracer.metrics(sum(tclock.problem_refs()) - batch_ref)

    # -- independent checks, outside the timed sections ------------------------
    failed, wrong, controls_ok, accuracy = wl.check(answers)
    correct = not wrong and controls_ok and same_traced

    for line in failures + wrong:
        print(f"perfbench: {line}", file=sys.stderr)
    if not controls_ok:
        print("perfbench: a negative control was not rejected", file=sys.stderr)
    if not same_traced:
        print("perfbench: traced answers differ from untraced ones", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} problems={len(answers)} "
          f"failed={failed} raw_s={sum(clock.raw_s):.4f} "
          f"ref_loop_s={statistics.mean(clock.ref_s):.6f} "
          f"setup: import={import_s:.3f}s prepare={statistics.median(prepare_s):.3f}s "
          f"group_data={group_s:.3f}s")
    for (label, _), raw, ref in zip(wl.problems(), clock.raw_s, refs):
        print(f"#   {label:28s} raw_s={raw:9.4f} ref={ref:10.3f}")

    if metrics is None:
        metrics = {
            "batch_ref": {"value": batch_ref, "unit": "ref"},
            "problem_ref_p50": {"value": statistics.median(refs), "unit": "ref"},
            "problem_ref_tail": {"value": tail_percentile(refs), "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "accuracy_bits": {"value": accuracy, "unit": "bits"},
        }
    print(json.dumps({"correct": correct, "attempted": len(answers),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
