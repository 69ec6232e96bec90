"""Span recorder for the traced run.

The tracer replaces the module-level names that one spinframes layer imports
from another (spinframes.composite.wigner_D, spinframes.states.compose, ...)
and the same names in the benchmark's own modules with wrappers that record
a span per call: name, start, end, parent span and op id. Spans stay in
memory until the run ends. Nothing under src/ is edited; uninstall() puts
every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter
from types import ModuleType
from typing import Callable

from stats import self_times

LAYERS = (
    "rotations",
    "exactnum",
    "wigner",
    "frames",
    "states",
    "composite",
    "antisym_checker",
    "cli",
)

# Public entry points timed as spans. "Class.method" patches the method on
# the class; a constructor span is named after its class. Helpers called
# per matrix entry (m_range, neg_one_pow, CGTable.coefficient,
# PairState.amplitude) are left inside the span that calls them.
SPANNED = {
    "rotations": (
        "compose", "inverse", "from_axis_angle", "to_matrix3",
        "frame_to_quaternion", "quaternion_close",
    ),
    "wigner": ("wigner_D", "CGTable.__init__"),
    "frames": (
        "helicity_frame", "bisector_axis", "relative_rotation",
        "cm_polar_relation", "HelicityFrame.to_quaternion",
    ),
    "states": (
        "assemble_pair_canonical_orderfree", "assemble_ordered",
        "exchange_order_dependent", "pure_permute", "pair_state_from_matrix",
        "rotate_sqf", "order_dependence_phase", "OrderedDescription.__init__",
        "PairState.to_matrix", "PairState.allclose", "PairState.norm",
        "PairState.scaled", "PairState.dump",
    ),
    "composite": (
        "project_composite", "max_commuting_pairset", "pseudo_antisymmetrize",
        "pseudo_antisymmetry_sign", "exclusion_check",
    ),
    "antisym_checker": (
        "exhaustive_satisfiable", "impossibility_report", "build_constraints",
        "n2_only_pattern", "report_lines", "exchange_sign", "check_noninterference",
    ),
    "cli": ("main",),
}

# Counted, not timed: build_pair_spin_operator's time belongs to the family
# search that calls it.
COUNTED = {"composite": ("build_pair_spin_operator",)}

# Counted in a pass of its own: even a counting wrapper on a function called
# thousands of times per wigner_D would distort the timed spans.
HOT_COUNTED = {"exactnum": ("factorial_exact",)}

# What a span remembers about its call, for per-layer ratios.
NOTES: dict[str, Callable] = {
    "wigner.wigner_D": lambda args, result: args[0].twice,
    "wigner.CGTable": lambda args, result: (args[1].twice, args[2].twice),
    "antisym_checker.exhaustive_satisfiable": lambda args, result: (
        args[0].n_vars,
        result.count,
    ),
}

ROOT = "bench.op"


class Tracer:
    """Spans and counts of one traced phase, kept in memory."""

    def __init__(self) -> None:
        # one [name, start, end, parent, op_id, note] per span
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = -1
        self._restore: list[Callable[[], None]] = []
        self._namespaces: list[dict] = []

    def begin(self, name: str) -> int:
        if name == ROOT:
            self._op_id += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._op_id, None])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _span(self, name: str, layer: str, fn: Callable) -> Callable:
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                self.end(idx)
            if note is not None:
                self.spans[idx][5] = note(args, result)
            return result

        return traced

    def _counter(self, name: str, layer: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[f"{layer}.errors"] += 1
                raise

        return counted

    def install(
        self,
        spanned: dict[str, tuple[str, ...]],
        counted: dict[str, tuple[str, ...]],
        bench_modules: tuple[ModuleType, ...] = (),
        extra: dict[str, tuple[ModuleType, str]] | None = None,
    ) -> None:
        """Wrap the listed spinframes names wherever spinframes or
        bench_modules bind them, plus extra {span name: (module, attribute)}
        entries from the benchmark's own modules."""
        self._namespaces = [
            vars(m) for name, m in list(sys.modules.items())
            if name == "spinframes" or name.startswith("spinframes.")
        ] + [vars(m) for m in bench_modules]
        for table, make in ((spanned, self._span), (counted, self._counter)):
            for layer, names in table.items():
                module = importlib.import_module(f"spinframes.{layer}")
                for attr in names:
                    self._wrap(module, attr, layer, make)
        for name, (module, attr) in (extra or {}).items():
            original = getattr(module, attr)
            self._replace(original, self._span(name, name.split(".")[0], original))

    def _wrap(self, module: ModuleType, attr: str, layer: str, make) -> None:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            label = cls_name if method == "__init__" else attr
            setattr(cls, method, make(f"{layer}.{label}", layer, original))
            self._restore.append(lambda: setattr(cls, method, original))
        else:
            original = getattr(module, attr)
            self._replace(original, make(f"{layer}.{attr}", layer, original))

    def _replace(self, original: Callable, wrapper: Callable) -> None:
        """Point every binding of original in the patched namespaces at wrapper."""
        for namespace in self._namespaces:
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._restore.append(
                        functools.partial(namespace.__setitem__, key, original)
                    )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


class SpanSummary:
    """Self time and calls aggregated by span name over a traced phase."""

    def __init__(self, tracer: Tracer) -> None:
        spans = tracer.spans
        own = self_times([(s[1], s[2], s[3]) for s in spans])
        self.op_s = 0.0
        self.ops = 0
        covered = 0.0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.notes: dict[str, list] = {}
        roots = set()
        for i, (name, start, end, parent, _, note) in enumerate(spans):
            if name == ROOT:
                self.op_s += end - start
                self.ops += 1
                roots.add(i)
                continue
            if parent in roots:
                covered += end - start
            self.calls[name] += 1
            self.self_s[name] += own[i]
            self.total_s[name] += end - start
            if note is not None:
                self.notes.setdefault(name, []).append((note, own[i]))
        self.unattributed_share = (
            (self.op_s - covered) / self.op_s if self.op_s > 0 else 0.0
        )

    def layer(self, prefix: str) -> tuple[int, float]:
        """Calls and self seconds of every span whose name starts with prefix."""
        calls = sum(c for n, c in self.calls.items() if n.startswith(prefix))
        own = sum(t for n, t in self.self_s.items() if n.startswith(prefix))
        return calls, own
