"""The machine's current speed, so that times do not drift with it.

On the reference machine (a 2-core VM) the speed of pure-Python code drifts
by 10-30 % over minutes, with the load of its neighbours.  A fixed exact
Gaussian elimination over Fractions, the kind of work the program does, is
timed alongside a pass: between its operations when the pass runs in the
benchmark's worker, or on a timer signal inside the CLI process
(`cli_pass.py`).  A stretch of time multiplied by REFERENCE_S / (elimination
time around it) is a time at the reference speed (`scaled_time`).  The loop
does not touch the program, so no change to the program can move it.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.005  # median of one elimination on the reference machine
_rng = random.Random(5)
_MATRIX = [[Fraction(_rng.randint(-9, 9)) for _ in range(11)] for _ in range(10)]


def elimination_time() -> float:
    """Seconds one fixed exact Gaussian elimination of a 10x11 rational matrix takes."""
    a = [row[:] for row in _MATRIX]
    n = len(a)
    t0 = perf_counter()
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return perf_counter() - t0


def timed_sample(repeats: int = 1) -> tuple[float, float, float]:
    """(start, end, median elimination time) of `repeats` eliminations."""
    start = perf_counter()
    median = statistics.median(elimination_time() for _ in range(repeats))
    return start, perf_counter(), median


def scaled_time(t0: float, t1: float, samples) -> float:
    """Seconds between t0 and t1 spent outside the samples, at the reference
    speed: each stretch between two samples is scaled by the mean of their
    elimination times, the stretches before the first and after the last by
    that sample's.  `samples` are `timed_sample()` results inside [t0, t1]."""
    total, prev_end, prev = 0.0, t0, samples[0][2]
    for start, end, median in samples:
        total += (start - prev_end) * REFERENCE_S / ((prev + median) / 2)
        prev_end, prev = end, median
    return total + (t1 - prev_end) * REFERENCE_S / prev
