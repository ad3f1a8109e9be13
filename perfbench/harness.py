"""Timing in reference units, summary statistics and the run result.

A problem's time is reported in reference units (`ref`): its wall time
divided by the mean wall time of a fixed reference loop run just before,
during and just after it.  The loop does the kind of arithmetic the program spends its
time on (mpmath complex arithmetic at 160 bits, `Fraction` sums) and calls
nothing from the program, so no program change can speed it up; dividing by
it removes most of the drift in host speed between runs.
"""

from __future__ import annotations

import math
import resource
import signal
import time
from fractions import Fraction

from mpmath import mp

# fixed inputs of the reference loop; never derived from the seed
_REF_COEFFS = [mp.mpc(k % 7 - 3, k % 5 - 2) / (k + 1) for k in range(24)]
_REF_POINTS = [mp.mpc("0.37", "0.61"), mp.mpc("-0.52", "0.29"),
               mp.mpc("0.81", "-0.44"), mp.mpc("-0.13", "-0.92")]
_REF_FRACTIONS = [Fraction(k % 11 + 1, 8 + k % 7) for k in range(200)]


class _Failed:
    """Marks a problem that raised instead of answering."""

    def __repr__(self):
        return "FAILED"


FAILED = _Failed()


def reference_loop() -> object:
    """One pass of the fixed reference work (about 20 ms on a 2-core VM)."""
    with mp.workprec(160):
        acc = mp.mpc(0)
        for z in _REF_POINTS:
            for _ in range(15):
                val = mp.mpc(0)
                for c in _REF_COEFFS:
                    val = val * z + c
                acc += val / (1 + abs(val))
    total = Fraction(0)
    for f in _REF_FRACTIONS:
        total += f
    return acc, total


class RefClock:
    """Times problems in reference units.

    `loops` passes of the reference loop are timed between consecutive
    problems.  While a problem runs, an interval timer also runs one pass
    every SAMPLE_S seconds (between bytecodes of the main thread, so no
    thread is started), which follows the host's speed through long
    problems; the time these passes take is subtracted from the problem's
    wall time.  Each problem is divided by the mean of the reference
    measurements just before it, during it, and just after it.
    """

    SAMPLE_S = 0.5

    def __init__(self, loops: int = 1):
        self.loops = loops
        self.raw_s: list[float] = []       # problem wall times, sampling excluded
        self.ref_s: list[float] = []       # boundary measurements, one more than problems
        self.inner_s: list[list[float]] = []   # measurements taken during each problem

    def _measure(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self.loops):
            reference_loop()
        return (time.perf_counter() - t0) / self.loops

    def start(self):
        self.ref_s = [self._measure()]
        self.raw_s = []
        self.inner_s = []

    def time(self, fn):
        """Run fn() once; record its wall time and the references around it."""
        inner: list[float] = []
        spent = [0.0]

        def sample(signum, frame):
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            inner.append(t1 - t0)
            spent[0] += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_S, self.SAMPLE_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.raw_s.append(wall - spent[0])
        self.inner_s.append(inner)
        self.ref_s.append(self._measure())
        return out

    def problem_refs(self) -> list[float]:
        out = []
        for i, raw in enumerate(self.raw_s):
            refs = [self.ref_s[i], self.ref_s[i + 1]] + self.inner_s[i]
            out.append(raw / (sum(refs) / len(refs)))
        return out


def tail_percentile(values: list[float]) -> float:
    """The highest percentile with at least ten values beyond it.

    With fewer than forty values no such percentile is a tail, and the
    largest value is returned instead (see the README).
    """
    vals = sorted(values)
    n = len(vals)
    if n < 40:
        return vals[-1]
    # the value with exactly ten values above it
    return vals[n - 11]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def exact_decimal(x: Fraction) -> str:
    """Exact decimal string of a dyadic rational, as the CLI reads it."""
    f = float(x)
    if Fraction(f) != x:
        raise ValueError(f"{x} is not exactly representable")
    return repr(f)


def bits(rel_dev, cap: float) -> float:
    """-log2 of a relative deviation, with zero capped at `cap` bits."""
    rel_dev = float(rel_dev)
    if rel_dev <= 0:
        return float(cap)
    return min(float(cap), -math.log2(rel_dev))
