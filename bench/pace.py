"""Machine pace: a fixed kernel, timed between ops, that puts every reported
time at one reference pace of the machine.

The VM the benchmark runs on changes speed with its host's load, by a third
within a few minutes, with the code and inputs unchanged. The kernel below
does no spinframes work, so a change to the package cannot speed it up or
slow it down; the time it takes says only how fast the machine is running
at that moment. A time measured while the kernel takes `t` seconds is
reported as `time * REFERENCE_S / t`: the time it would have taken at the
pace where the kernel takes REFERENCE_S.

The kernel mixes what the workloads spend their time on: interpreted integer
and float loops, small complex numpy products and dict inserts. The cyclic
garbage collector is off while it runs, so the objects a workload keeps alive
cannot change its time.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

# The kernel's typical time on the 2-vCPU Intel Xeon VM the benchmark was
# tuned on (Python 3.11, numpy 2.4), so reported times read close to that
# machine's wall times.
REFERENCE_S = 1.5e-3

_MATRIX = np.linspace(0.1, 1.0, 25).reshape(5, 5) + 0.5j


def _kernel() -> None:
    acc = 0
    for i in range(3000):
        acc = (acc * 31 + i) % 1000003
    x = 0.0
    for i in range(1500):
        x += (i * 0.5) ** 0.5
    m = _MATRIX
    for _ in range(150):
        m = (m @ _MATRIX) * 0.2
    table = {}
    for i in range(800):
        table[(i % 37, i)] = complex(i, -i)


def probe() -> float:
    """Seconds the kernel takes once, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples: list[float]) -> float:
    """Factor that takes a time measured while the kernel took `samples`
    to the reference pace: REFERENCE_S over their median."""
    return REFERENCE_S / statistics.median(samples)
