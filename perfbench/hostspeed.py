"""Host-speed reference: timings normalised to a steady host.

On a shared machine this host's speed drifts by up to 2x within seconds
and stays slow for minutes: one compile took 47 to 93 ms inside a 15 s
window, and the suite's pass time varied by 26 to 46% (interquartile
range over median) across ten 20 s runs.  Every process on the CPU slows
together, so the benchmark times a fixed pure-Python loop (dict, list
and integer work, like the compiler's) next to each op and divides the
op's time by the loop's slowdown.  In a 60 s test where a compile's 5 s
medians ranged from 61 to 105 ms, its time over the loop's stayed
within 4% of its median.

Reported times are therefore seconds on a host where the reference loop
takes :data:`REF_NOMINAL_S`: about what this loop takes on a 2.1 GHz
x86-64 VM with nothing else running.  The loop is part of the
benchmark, not of the program, so a change to the program cannot move
it.
"""

from __future__ import annotations

import gc
import statistics
import time

#: the reference loop's time on the host the figures are normalised to
REF_NOMINAL_S = 0.002


def _reference_body() -> int:
    table: dict[int, int] = {}
    pairs = []
    acc = 0
    for i in range(6000):
        key = i % 257
        table[key] = table.get(key, 0) + i
        pairs.append((key, acc))
        acc = (acc * 31 + key) & 0xFFFF
    pairs.sort()
    return acc + len(table)


def reference_s(repeat: int = 3) -> float:
    """Wall time of the reference loop, best of ``repeat`` runs with the
    garbage collector off: a collection of the measured op's garbage, or
    any other blip, would otherwise read as a slow host."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            _reference_body()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def slowdown(*reference_times: float) -> float:
    """How much slower the host runs than the nominal host, from
    reference-loop times taken around a measurement."""
    return statistics.fmean(reference_times) / REF_NOMINAL_S
