"""Fresh-process probe for setup_s: import spinframes, then run the
workload's warm-up ops.

    PYTHONPATH=src python3 bench/probe.py <workload> <seed>

Prints one JSON object {"import_s": ..., "warmup_s": ..., "pace_s": [...],
"failures": [...]}. The warm-up inputs are generated between the two timed
parts, so the benchmark's own input generation is not counted. pace_s holds
the times of the pace kernel (pace.py), run after the warm-up, by which the
runner takes this process's times to the reference pace. Check failures are
listed, not fatal: the runner repeats the same warm-up ops and counts them
there.
"""

import sys
import time

t0 = time.perf_counter()
import spinframes  # noqa: E402,F401  (timed: this is the import users pay)

import_s = time.perf_counter() - t0

import json  # noqa: E402
import random  # noqa: E402
from pathlib import Path  # noqa: E402

import pace  # noqa: E402
import workloads  # noqa: E402
from stats import Checks  # noqa: E402

PACE_REPEATS = 7


def main(name: str, seed: int) -> int:
    workload = workloads.make(name, Path(spinframes.__file__).resolve().parent.parent)
    inputs = workload.warmup_inputs(random.Random(f"warmup-{seed}"))
    failures = []
    t0 = time.perf_counter()
    for inp in inputs:
        checks = Checks()
        workload.op(inp, checks)
        failures += checks.failures
    warmup_s = time.perf_counter() - t0
    pace.probe()  # its first run pays for first calls into numpy
    pace_s = [pace.probe() for _ in range(PACE_REPEATS)]
    print(json.dumps({
        "import_s": import_s, "warmup_s": warmup_s, "pace_s": pace_s, "failures": failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
