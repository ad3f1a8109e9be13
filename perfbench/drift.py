"""The drift experiment behind reference units.

Runs a fixed batch of twelve degree-4 `monodromy` calls several times back
to back, and prints for each run the batch's CPU seconds, wall seconds and
wall time in reference units (each call divided by the mean reference loop
measured just before and just after it).  Run from the root of a checkout:

    python3 perfbench/drift.py [runs]
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from abelint import Config, RatPoly, monodromy  # noqa: E402

from harness import RefClock  # noqa: E402


def batch():
    """Twelve fixed quartics: x^4 - x^2 + c x for c = 1/8 .. 12/8."""
    return [RatPoly([0, Fraction(c, 8), -1, 0, 1]) for c in range(1, 13)]


def main(runs: int):
    cfg = Config()
    print("run  cpu_s    wall_s   ref")
    for run in range(runs):
        clock = RefClock(loops=8)
        clock.start()
        cpu = []

        def call(p):
            c0 = time.process_time()
            monodromy(p, cfg)
            cpu.append(time.process_time() - c0)

        for p in batch():
            clock.time(lambda p=p: call(p))
        print(f"{run + 1:3d}  {sum(cpu):7.2f}  {sum(clock.raw_s):7.2f}  "
              f"{sum(clock.problem_refs()):8.1f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
