#!/usr/bin/env python3
"""spinframes benchmark: one seeded workload per run.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. Workloads: rotate-highspin, pairs-desk,
proofs, cli-reports (bench/README.md says what each op does and why). Every
op is one closed-loop call from a single caller in this process, and runs
its correctness checks; a failed check or an exception fails the op.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
the same rounds untraced and then traced, and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. Without spinframes
sources under src/ the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pace
from stats import Checks, blocked_tail, round_median
from tracing import COUNTED, HOT_COUNTED, LAYERS, ROOT as ROOT_SPAN, SPANNED
from tracing import SpanSummary, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Fresh processes whose set-up time is measured, spread over the timed
# phase; setup_s is their median.
SETUP_REPEATS = 5
# Fresh interpreters per `-X importtime` probe in the traced run.
IMPORT_REPEATS = 3
# Pace kernel runs after an op: one, and one more per PACE_EVERY_S of the
# op's time, up to PACE_MAX, so long ops (CLI processes, large N) are
# paired with more samples of the machine's pace.
PACE_EVERY_S = 0.05
PACE_MAX = 5
# Bucket edges (2s, inclusive) for wigner_D time per call.
SPIN_BUCKETS = {"lo": (0, 2), "mid": (3, 6), "hi": (7, 12)}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Phase:
    """Latencies, pace and check outcomes of consecutive rounds."""

    def __init__(self) -> None:
        self.rounds: list[list[float]] = []
        self.walls: list[float] = []
        # per round, the factor that takes its times to the reference pace
        self.scales: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.headroom = float("inf")

    def add(self, checks) -> None:
        self.attempted += 1
        self.headroom = min(self.headroom, checks.headroom)
        if checks.failures:
            self.failed += 1
            self.failures.extend(checks.failures)


def run_op(workload, inp, tracer=None):
    """One op with its checks; return the checks and the op's seconds."""
    checks = Checks()
    t0 = perf_counter()
    root = tracer.begin(ROOT_SPAN) if tracer else -1
    try:
        workload.op(inp, checks)
    except Exception as exc:  # an op that raises is a failed op
        checks.failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        if tracer:
            tracer.end(root)
    return checks, perf_counter() - t0


def run_phase(
    workload, rng, *, seconds=None, n_rounds=None, tracer=None, between=None
) -> Phase:
    """Run whole rounds until `seconds` have passed, or exactly n_rounds
    rounds. Each round's inputs are generated before it is timed, and the
    pace kernel runs after every op, outside the op's time (PACE_EVERY_S
    says how often); a round's wall time is the sum of its op times.
    between(elapsed) runs before each round, outside the rounds."""
    phase = Phase()
    elapsed = 0.0
    while (len(phase.walls) < n_rounds) if n_rounds is not None else (elapsed < seconds):
        if between:
            between(elapsed)
        inputs = workload.make_round(rng)
        latencies, paces = [], []
        start = perf_counter()
        for inp in inputs:
            checks, latency = run_op(workload, inp, tracer)
            latencies.append(latency)
            phase.add(checks)
            for _ in range(min(PACE_MAX, 1 + int(latency / PACE_EVERY_S))):
                paces.append(pace.probe())
        elapsed += perf_counter() - start
        phase.walls.append(sum(latencies))
        phase.rounds.append(latencies)
        phase.scales.append(pace.scale(paces))
    return phase


def measure_setup(name: str, seed: int) -> float:
    """Import plus warm-up seconds in one fresh process, at the reference
    pace of the pace kernel run in that process."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), name, str(seed)],
        capture_output=True, env=child_env(), cwd=ROOT, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr.decode()}")
    data = json.loads(proc.stdout.decode().splitlines()[-1])
    return (data["import_s"] + data["warmup_s"]) * pace.scale(data["pace_s"])


def measure_imports() -> dict[str, float]:
    """Median bare-interpreter wall time, and the cumulative `-X importtime`
    of spinframes and of numpy, in milliseconds."""
    interp, package, numpy_ = [], [], []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        interp.append(perf_counter() - t0)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import spinframes"],
            capture_output=True, text=True, env=child_env(), check=True, timeout=60,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3:
                module = fields[2].strip()
                if module in ("spinframes", "numpy"):
                    cumulative[module] = int(fields[1]) * 1e-6
        package.append(cumulative["spinframes"])
        numpy_.append(cumulative["numpy"])
    return {
        "cli.interpreter_ms": statistics.median(interp) * 1e3,
        "cli.import_ms": statistics.median(package) * 1e3,
        "cli.numpy_import_ms": statistics.median(numpy_) * 1e3,
    }


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinframes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def peak_rss_mb(workload) -> float:
    """Peak RSS of the process that ran the ops: this one, or for the CLI
    workload the largest op child."""
    kib = getattr(workload, "peak_child_kib", None)
    if kib is None:
        kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib * 1024 / 1e6


def end_to_end(workload, phase: Phase, setup: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics; every time is taken to the reference pace."""
    rounds = [[x * k for x in r] for r, k in zip(phase.rounds, phase.scales)]
    rates = [len(r) / (w * k) for r, w, k in zip(phase.rounds, phase.walls, phase.scales)]
    raw_rates = [len(r) / w for r, w in zip(phase.rounds, phase.walls)]
    tail = blocked_tail(rounds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms_p50": (round_median(rounds) * 1e3, "ms"),
        "op_ms_tail": (tail.value * 1e3, "ms"),
        "tol_headroom": (phase.headroom, "decades"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    notes = [
        f"error_rate = {phase.failed / phase.attempted!r} ratio "
        f"({phase.failed} of {phase.attempted} ops)",
        f"op_ms_tail is p{tail.percentile:.2f} ({tail.beyond} samples beyond it "
        f"in each block of {tail.samples} ops), median of {tail.blocks} blocks",
        f"rounds = {len(phase.rounds)}, timed s = {sum(phase.walls):.3f}",
        f"pace: times scaled to the reference by {min(phase.scales):.3f}"
        f"..{max(phase.scales):.3f} (median {statistics.median(phase.scales):.3f})",
        f"unscaled: ops_per_s = {statistics.median(raw_rates):.4f} 1/s, "
        f"op_ms_p50 = {round_median(phase.rounds) * 1e3:.4f} ms, "
        f"op_ms_tail = {blocked_tail(phase.rounds).value * 1e3:.4f} ms",
        "setup_s samples = " + ", ".join(f"{v:.4f}" for v in setup),
    ]
    return metrics, notes


def per_layer(
    summary: SpanSummary, counts, hot_counts, hot_ops: int, imports: dict, error_rate: float
) -> dict:
    ops, op_s = summary.ops, summary.op_s
    metrics: dict[str, tuple[float, str]] = {}

    def timed(name: str, prefix: str) -> None:
        calls, own = summary.layer(prefix)
        metrics[f"{name}.calls"] = (calls / ops, "calls/op")
        metrics[f"{name}.self_ms"] = (own * 1e3 / ops, "ms/op")
        metrics[f"{name}.share"] = (own / op_s, "ratio")

    timed("wigner.wigner_D", "wigner.wigner_D")
    by_spin = summary.notes.get("wigner.wigner_D", [])
    for bucket, (lo, hi) in SPIN_BUCKETS.items():
        sel = [t for ts, t in by_spin if lo <= ts <= hi]
        metrics[f"wigner.wigner_D.us_per_call.{bucket}"] = (
            statistics.fmean(sel) * 1e6 if sel else 0.0, "us",
        )
    metrics["exactnum.factorial_exact.calls"] = (
        hot_counts["exactnum.factorial_exact"] / hot_ops, "calls/op",
    )
    timed("wigner.CGTable", "wigner.CGTable")
    tables = summary.notes.get("wigner.CGTable", [])
    metrics["wigner.CGTable.distinct_ratio"] = (
        len({key for key, _ in tables}) / len(tables) if tables else 0.0, "ratio",
    )
    timed("composite.project_composite", "composite.project_composite")
    for layer in ("states", "frames", "rotations"):
        timed(layer, layer + ".")
    timed("antisym_checker.exhaustive_satisfiable", "antisym_checker.exhaustive_satisfiable")
    searches = summary.notes.get("antisym_checker.exhaustive_satisfiable", [])
    assignments = sum(2**n for (n, _), _ in searches)
    witnesses = sum(count for (_, count), _ in searches)
    metrics["antisym_checker.assignments"] = (assignments / ops, "count/op")
    metrics["antisym_checker.useful_ratio"] = (
        witnesses / assignments if assignments else 0.0, "ratio",
    )
    timed("composite.max_commuting_pairset", "composite.max_commuting_pairset")
    metrics["composite.build_pair_spin_operator.calls"] = (
        counts["composite.build_pair_spin_operator"] / ops, "calls/op",
    )
    for name, value in imports.items():
        metrics[name] = (value, "ms")
    mains = summary.calls["cli.main"]
    metrics["cli.handler_ms"] = (
        summary.total_s["cli.main"] * 1e3 / mains if mains else 0.0, "ms",
    )
    timed("cli.process", "cli.process")
    for layer in LAYERS:
        errors = counts[f"{layer}.errors"] + hot_counts[f"{layer}.errors"]
        metrics[f"{layer}.errors"] = (errors, "count")
    metrics["bench.unattributed_share"] = (summary.unattributed_share, "ratio")
    metrics["bench.error_rate"] = (error_rate, "ratio")
    return metrics


def paced_seconds(phase: Phase) -> float:
    """Round time of a phase at the reference pace."""
    return sum(w * k for w, k in zip(phase.walls, phase.scales))


def traced_run(workload, args) -> tuple[Phase, dict, list[str]]:
    """Untraced rounds, the same rounds traced, then one round with the hot
    counters; per-layer metrics from the traced rounds."""
    import workloads

    untraced = run_phase(workload, random.Random(args.seed), seconds=args.seconds / 2)
    tracer = Tracer()
    tracer.install(
        SPANNED, COUNTED, bench_modules=(workloads,),
        extra={"cli.process": (workloads, "run_cli_process")},
    )
    try:
        traced = run_phase(
            workload, random.Random(args.seed), n_rounds=len(untraced.walls), tracer=tracer
        )
    finally:
        tracer.uninstall()
    hot = Tracer()
    hot.install({}, HOT_COUNTED, bench_modules=(workloads,))
    try:
        counted = run_phase(workload, random.Random(args.seed), n_rounds=1, tracer=hot)
    finally:
        hot.uninstall()

    phase = Phase()
    for part in (untraced, traced, counted):
        phase.attempted += part.attempted
        phase.failed += part.failed
        phase.failures += part.failures
    metrics = per_layer(
        SpanSummary(tracer), tracer.counts, hot.counts, counted.attempted,
        measure_imports(), phase.failed / phase.attempted,
    )
    overhead = paced_seconds(traced) / paced_seconds(untraced) - 1.0
    metrics["bench.trace_overhead"] = (overhead, "ratio")
    notes = [f"rounds = {len(untraced.walls)} untraced, then the same rounds traced"]
    return phase, metrics, notes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinframes" / "__init__.py").is_file():
        print(f"error: no spinframes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.NAMES)}",
            file=sys.stderr,
        )
        return 2
    print("env: " + json.dumps(environment()))
    workload = workloads.make(args.workload, SRC)

    warmup = Phase()
    for inp in workload.warmup_inputs(random.Random(f"warmup-{args.seed}")):
        warmup.add(run_op(workload, inp)[0])
        pace.probe()
    gc.collect()

    if args.trace:
        phase, metrics, notes = traced_run(workload, args)
    else:
        # The set-up probes run between rounds, spread over the run, so that
        # their median does not hang on one moment of the machine's load.
        setup: list[float] = []

        def probe_when_due(elapsed: float) -> None:
            if len(setup) < SETUP_REPEATS and elapsed >= len(setup) * args.seconds / SETUP_REPEATS:
                setup.append(measure_setup(args.workload, args.seed))

        phase = run_phase(
            workload, random.Random(args.seed), seconds=args.seconds, between=probe_when_due
        )
        while len(setup) < SETUP_REPEATS:
            setup.append(measure_setup(args.workload, args.seed))
        metrics, notes = end_to_end(workload, phase, setup)
    attempted = phase.attempted + warmup.attempted
    failed = phase.failed + warmup.failed

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    for note in notes:
        print(f"  {note}")
    for failure in (warmup.failures + phase.failures)[:10]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
