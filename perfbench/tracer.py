"""Per-layer spans for the traced run, recorded from outside the program.

Each wrap point is the module attribute that the calling code looks up at
call time (``steerbound.cli.violation``, ``steerbound.bounds.numerical_radius``
and so on), so replacing the attribute puts a span around every call
without editing the program. A wrap point that a refactor renamed or
deleted is reported as an absent layer instead of failing the run.

Spans nest on a per-thread stack. A span opened on a worker thread of the
enumeration pool has the innermost span of the main thread as its parent,
so eigensolves run by the pool still count as children of the LHS span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

# (span, module, attribute); several wrap points may feed one span, and a
# span already open on the thread is not opened again, so a wrapper that
# calls another wrapped entry point is counted once.
WRAP_POINTS = (
    ("cli", "steerbound.cli", "main"),
    ("bounds.violation", "steerbound.cli", "violation"),
    ("bounds.lhs", "steerbound.bounds", "lhs_bound"),
    ("bounds.lhs", "steerbound.bounds", "lhs_bound_exact"),
    ("bounds.lhs", "steerbound.bounds", "lhs_bound_exact_general"),
    ("bounds.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("linalg.numerical_radius", "steerbound.bounds", "numerical_radius"),
    ("bounds.seesaw", "steerbound.bounds", "quantum_bound_seesaw"),
    ("bounds.quantum_bound", "steerbound.bounds", "quantum_bound"),
    ("serialize.dump", "steerbound.cli", "functional_to_json"),
    ("serialize.load", "steerbound.serialize", "functional_from_json"),
    ("functionals.from_table", "steerbound.functionals", "SteeringFunctional.from_table"),
    ("functionals.build", "steerbound.cli", "build_mub_family"),
    ("functionals.build", "steerbound.cli", "build_clifford_family"),
    ("functionals.build", "steerbound.cli", "mub_functional"),
    ("functionals.build", "steerbound.cli", "clifford_functional"),
    ("functionals.build", "steerbound.cli", "dichotomic_functional"),
    ("functionals.build", "steerbound.cli", "random_functional"),
)

# numpy.linalg.eigvalsh is called all over the program; only the batched
# eigensolves issued directly by the LHS enumeration are its layer.
ONLY_UNDER = {"bounds.eigvalsh": "bounds.lhs"}


def _count(span: str, args, result) -> dict:
    """Work counts read off a call's arguments and result; a field a
    refactor removed reads as zero."""
    if span == "bounds.lhs":
        return {"strategies": int(getattr(result, "strategy_count", 0))}
    if span == "bounds.seesaw":
        return {"iterations": int(getattr(result, "iterations", 0))}
    if span == "bounds.eigvalsh":
        shape = np.shape(args[0]) if args else ()
        return {"matrices": int(np.prod(shape[:-2])) if len(shape) >= 2 else 0}
    if span == "serialize.dump" and isinstance(result, str):
        return {"bytes": len(result)}
    if span == "serialize.load" and args and isinstance(args[0], str):
        return {"bytes": len(args[0])}
    return {}


def _resolve(module: str, attribute: str):
    """(owner, name, raw attribute) or None when the wrap point is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, name)
    except AttributeError:
        return None
    return owner, name, raw


class Tracer:
    """Collects per-case span totals while installed."""

    def __init__(self):
        self.case = ""
        self.absent = sorted(
            {span for span, _, _ in WRAP_POINTS}
            - {span for span, mod, attr in WRAP_POINTS if _resolve(mod, attr)}
        )
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list = []
        self._saved: list = []
        self.reset()

    def reset(self) -> None:
        # (case, span) -> [calls, seconds, self seconds]; (case, counter) -> n
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, span: str, fn, args, kwargs):
        stack = self._stack()
        if any(frame[0] == span for frame in stack):
            return fn(*args, **kwargs)
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        if span in ONLY_UNDER and (parent is None or parent[0] != ONLY_UNDER[span]):
            return fn(*args, **kwargs)
        case = self.case
        frame = [span, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            with self._lock:
                total = self.spans[(case, span)]
                total[0] += 1
                total[1] += elapsed
                total[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
        counts = _count(span, args, result)
        with self._lock:
            for name, value in counts.items():
                self.counters[(case, f"{span}.{name}")] += value
        return result

    def _wrap(self, span: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(span, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        for span, module, attribute in WRAP_POINTS:
            found = _resolve(module, attribute)
            if found is None:
                continue
            owner, name, raw = found
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap(span, raw.__func__))
            else:
                replacement = self._wrap(span, raw)
            self._saved.append((owner, name, raw))
            setattr(owner, name, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "bounds.violation.s": "s",
    "bounds.lhs.s": "s",
    "bounds.lhs.strategies": "count",
    "bounds.lhs.strategies_per_s": "1/s",
    "bounds.eigvalsh.calls": "count",
    "bounds.eigvalsh.matrices": "count",
    "bounds.eigvalsh.s": "s",
    "bounds.gather.self_s": "s",
    "linalg.numerical_radius.calls": "count",
    "linalg.numerical_radius.s": "s",
    "bounds.seesaw.s": "s",
    "bounds.seesaw.iterations": "count",
    "bounds.seesaw.s_per_iter": "s",
    "bounds.quantum_bound.s": "s",
    "serialize.dump.s": "s",
    "serialize.dump.bytes": "B",
    "serialize.load.s": "s",
    "serialize.load.bytes": "B",
    "serialize.mb_per_s": "MB/s",
    "functionals.from_table.s": "s",
    "functionals.build.s": "s",
    "trace.overhead_frac": "frac",
    "trace.absent_layers": "count",
}


def layer_metrics(tracer: Tracer, case: str | None = None) -> dict:
    """Per-layer values of one traced pass, for one case or summed over all.

    trace.overhead_frac and trace.absent_layers are run-level and filled in
    by the caller.
    """

    def span(name, field):
        return sum(v[field] for (c, s), v in tracer.spans.items() if s == name and case in (None, c))

    def counter(name):
        return sum(v for (c, k), v in tracer.counters.items() if k == name and case in (None, c))

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    lhs_s, strategies = span("bounds.lhs", 1), counter("bounds.lhs.strategies")
    seesaw_s, iterations = span("bounds.seesaw", 1), counter("bounds.seesaw.iterations")
    dump_s, dump_b = span("serialize.dump", 1), counter("serialize.dump.bytes")
    load_s, load_b = span("serialize.load", 1), counter("serialize.load.bytes")
    return {
        "cli.self_s": span("cli", 2),
        "bounds.violation.s": span("bounds.violation", 1),
        "bounds.lhs.s": lhs_s,
        "bounds.lhs.strategies": strategies,
        "bounds.lhs.strategies_per_s": ratio(strategies, lhs_s),
        "bounds.eigvalsh.calls": span("bounds.eigvalsh", 0),
        "bounds.eigvalsh.matrices": counter("bounds.eigvalsh.matrices"),
        "bounds.eigvalsh.s": span("bounds.eigvalsh", 1),
        "bounds.gather.self_s": span("bounds.lhs", 2),
        "linalg.numerical_radius.calls": span("linalg.numerical_radius", 0),
        "linalg.numerical_radius.s": span("linalg.numerical_radius", 1),
        "bounds.seesaw.s": seesaw_s,
        "bounds.seesaw.iterations": iterations,
        "bounds.seesaw.s_per_iter": ratio(seesaw_s, iterations),
        "bounds.quantum_bound.s": span("bounds.quantum_bound", 1),
        "serialize.dump.s": dump_s,
        "serialize.dump.bytes": dump_b,
        "serialize.load.s": load_s,
        "serialize.load.bytes": load_b,
        "serialize.mb_per_s": ratio((dump_b + load_b) / 1e6, dump_s + load_s),
        "functionals.from_table.s": span("functionals.from_table", 1),
        "functionals.build.s": span("functionals.build", 1),
    }
