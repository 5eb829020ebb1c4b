"""A fixed reference computation that measures the machine's current speed.

On a shared machine the same jet can take 25-40% longer for minutes at a
time, with no change in the program.  The probe is a fixed piece of pure
Python work shaped like the engine's inner loop (a tuple-keyed dict that
accumulates products of small ``Fraction`` values).  The benchmark runs it
between jets and scales the times it measures by REFERENCE_S / (mean probe
time over the same stretch), which reports times at one reference machine
speed.  The probe does not touch the engine, so a change to the engine
cannot move it.
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter

# Probe time on the machine the benchmark was defined on (2-vCPU Intel Xeon
# VM at 2.1 GHz, Python 3.11, in its faster periods).  Times reported at
# "reference speed" are as if every probe had taken this long.
REFERENCE_S = 0.015


def _operands(rows: int, cols: int, salt: int) -> dict:
    rng = random.Random(salt)
    return {(i, j, rng.randrange(4)): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for i in range(rows) for j in range(cols)}


_LEFT = _operands(12, 6, 1)
_RIGHT = _operands(6, 12, 2)


def _kernel() -> int:
    acc = {}
    for (i, j, p), x in _LEFT.items():
        for (k, l, q), y in _RIGHT.items():
            key = (i + k, j ^ l, p + q)
            c = x * y
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
    return len(acc)


_EXPECTED = _kernel()


def probe() -> float:
    """Seconds one run of the reference computation takes now.

    The collector is off meanwhile: the probe makes no cycles, and a
    collection of whatever else is on the heap would be timed with it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        size = _kernel()
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if size != _EXPECTED:
        raise RuntimeError("reference computation changed its result")
    return elapsed
