"""Summary statistics shared by the benchmark runner and its self-tests.

Nothing here imports spinframes: these helpers turn raw latencies, residuals
and spans into the reported numbers, and the self-tests pin their rules.
"""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Sequence

# Samples that must lie beyond the reported tail latency.
TAIL_BEYOND = 10

# Ops per tail block: a block is the fewest whole rounds holding at least
# this many ops, so the tail sits at a fixed percentile of the workload's mix
# (about p80) however many ops the machine fits into a run. At 49 the tail
# sample is the middle one of a stratum for the 7-op and 19-op rounds, which
# keeps it from riding on the few slowest ops of a block.
BLOCK_OPS = 49

# Headroom reported for a float check whose residual is exactly zero, and the
# most any check may report: past eight decades the margin no longer matters.
HEADROOM_CAP = 8.0


class Tail(NamedTuple):
    value: float
    percentile: float
    samples: int
    beyond: int
    blocks: int = 1


def tail_latency(samples: Sequence[float], beyond: int = TAIL_BEYOND) -> Tail:
    """Latency at the highest percentile that still has `beyond` samples above it.

    With n samples sorted ascending that is the value at 1-based rank
    n - beyond, i.e. percentile 100 * (n - beyond) / n. With too few samples
    the maximum is reported, with however many samples lie beyond it (none).
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return Tail(ordered[-1], 100.0, n, 0)
    return Tail(ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n, beyond)


def blocked_tail(rounds: Sequence[Sequence[float]], block_ops: int = BLOCK_OPS) -> Tail:
    """tail_latency of each block of consecutive whole rounds, at the median
    over blocks; a block holds the fewest rounds with at least block_ops ops.

    Rounds left over after the last whole block are not used. A run shorter
    than one block is taken as a single block.
    """
    per_round = len(rounds[0])
    k = -(-block_ops // per_round)
    blocks = [
        [x for r in rounds[i:i + k] for x in r]
        for i in range(0, len(rounds) - k + 1, k)
    ] or [[x for r in rounds for x in r]]
    tails = [tail_latency(b) for b in blocks]
    first = tails[0]
    return Tail(
        statistics.median(t.value for t in tails),
        first.percentile, first.samples, first.beyond, len(blocks),
    )


def round_median(rounds: Sequence[Sequence[float]]) -> float:
    """Median op latency of a round, at the median over rounds.

    Every round holds one op per stratum of the workload's fixed mix, so a
    round's median sits in the middle strata and does not jump between the
    extremes of two neighbouring strata as the pooled median of an
    even-sized mix would.
    """
    return statistics.median(statistics.median(r) for r in rounds if r)


def headroom(tol: float, residual: float, cap: float = HEADROOM_CAP) -> float:
    """Decades between a pinned tolerance and a measured residual, capped.

    An exact-zero residual reads as the cap; a residual that is not a finite
    number reads as minus the cap, so it can never hide a failure.
    """
    if residual == 0.0:
        return cap
    if not math.isfinite(residual):
        return -cap
    return min(cap, math.log10(tol / abs(residual)))


def self_times(spans: Sequence[tuple[float, float, int]]) -> list[float]:
    """Self time of each span: its duration minus its direct children's.

    spans holds (start, end, parent) with parent an index into spans, or -1
    for a root. Spans come from one thread, so siblings never overlap and a
    child's interval lies inside its parent's.
    """
    own = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


class Checks:
    """Outcome of one op's checks: failures, and the least tolerance headroom."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.headroom = HEADROOM_CAP

    def exact(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def within(self, residual: float, tol: float, what: str) -> None:
        residual = float(residual)
        self.headroom = min(self.headroom, headroom(tol, residual))
        if not residual <= tol:
            self.failures.append(f"{what}: residual {residual!r} > {tol!r}")
