"""Outside-in span tracing of the histories_lab package.

``Tracer.install`` replaces each traced public function with a wrapper in
every ``histories_lab`` module namespace that holds a reference to it (the
modules import names directly, so patching only the defining module would
miss most calls), and wraps the ``__post_init__`` of the traced dataclasses.
The package source is not modified; ``uninstall`` restores every original.

A span is ``(id, parent, name, start, end, op)``; ``op`` is the id of the
outermost span, the benchmark's own call.  Each thread keeps its own
parent stack.  A span opened on a thread with an empty stack (a sweep pool
worker) is parented to the innermost open span of the installing thread,
which is the call waiting on that worker.  Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# (module, attribute).  A bare class name means its __post_init__.
TRACED = (
    ("scenarios", "build_scenario"),
    ("config", "parse_config"),
    ("operators", "propagator"),
    ("operators", "validate_projective_decomposition"),
    ("operators", "Projector"),
    ("histories", "HistorySchedule"),
    ("histories", "HistorySet"),
    ("histories", "build_class_operators"),
    ("histories", "decoherence_functional"),
    ("histories", "quasi_probabilities"),
    ("classicality", "classify"),
    ("classicality", "detect_zero_cover"),
    ("unify", "extract_marginals"),
    ("unify", "MarginalTable"),
    ("unify", "MarginalTable.as_exact"),
    ("unify", "build_constraint_system"),
    ("unify", "find_unifying_probability"),
    ("unify", "probe_uniqueness"),
    ("simplex", "solve_lp_float"),
    ("simplex", "solve_lp_exact"),
    ("simplex", "verify_certificate"),
    ("_kernels", "simplex_loop"),
    ("analysis", "analyze"),
    ("analysis", "report_to_json"),
    ("cli", "main"),
    ("cli", "evaluate_sweep_point"),
)

PACKAGE = "histories_lab"

COUNTERS = ("histories.histories_built", "simplex.tableau_cells", "unify.constraint_rows",
            "unify.constraint_cols", "unify.feasible", "unify.infeasible")


def _layer(module: str, attr: str) -> str:
    # metric names must start with a letter
    return f"{module.lstrip('_')}.{attr}"


def _matrix_shape(matrix) -> tuple[int, int]:
    if hasattr(matrix, "shape"):
        return int(matrix.shape[0]), int(matrix.shape[1])
    return len(matrix), len(matrix[0])


class Tracer:
    """Collects spans and exact counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        self.spans = []
        self.counters = Counter()
        self.op = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counters[key] += amount

    def _wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            owner = tracer._owner_stack
            if stack:
                parent = stack[-1]
            else:
                parent = owner[-1] if owner and stack is not owner else None
            sid = next(tracer._ids)
            if parent is None:
                tracer.op = sid  # a call from the benchmark: one operation
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end, tracer.op))
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # -- counters recorded at the same boundaries --------------------------

    def _on_class_operators(self, args, result) -> None:
        self._count("histories.histories_built", len(result))

    def _on_constraint_system(self, args, result) -> None:
        rows, cols = _matrix_shape(result.matrix)
        self._count("unify.constraint_rows", rows)
        self._count("unify.constraint_cols", cols)

    def _on_verdict(self, args, result) -> None:
        if result.status in ("feasible", "infeasible"):
            self._count(f"unify.{result.status}", 1)

    def _on_float_solve(self, args, result) -> None:
        m, n = _matrix_shape(args[0])
        self._count("simplex.tableau_cells", (m + 1) * (n + m + 1))

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self._local.stack = self._owner_stack
        hooks = {
            "histories.build_class_operators": self._on_class_operators,
            "unify.build_constraint_system": self._on_constraint_system,
            "unify.find_unifying_probability": self._on_verdict,
            "simplex.solve_lp_float": self._on_float_solve,
        }
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, attr in TRACED:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = _layer(module_name, attr)
            owner_name, _, method = attr.partition(".")
            original = getattr(module, owner_name)
            if isinstance(original, type):
                method = method or "__post_init__"
                fn = original.__dict__[method]
                self._restore.append((original, method, fn))
                setattr(original, method, self._wrap(name, fn, hooks.get(name)))
                continue
            wrapper = self._wrap(name, original, hooks.get(name))
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore = []
        self._local.stack = None

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent, name, start, end, op."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def empty_totals() -> dict[str, float]:
    """Every per-layer total and counter at zero, for layers a workload never calls."""
    totals: dict[str, float] = {}
    for module, attr in TRACED:
        totals[f"{_layer(module, attr)}.calls"] = 0
        totals[f"{_layer(module, attr)}.self_s"] = 0.0
    totals["kernels.simplex_loop.phase1_s"] = 0.0
    totals["kernels.simplex_loop.phase2_s"] = 0.0
    totals.update({name: 0 for name in COUNTERS})
    return totals


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_totals(spans: list[tuple]) -> dict[str, float]:
    """Per-layer ``<name>.calls``, ``<name>.self_s`` and simplex phase times.

    Self time is a span's duration minus the part of it its child spans
    cover.  Of the kernel calls made under one solver span, the first is
    phase 1 and any later one phase 2.
    """
    children: dict = defaultdict(list)
    for sid, parent, name, start, end, _ in spans:
        children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    loops_by_parent: dict = defaultdict(list)
    for sid, parent, name, start, end, _ in spans:
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += (end - start) - _covered(children.get(sid, []), start, end)
        if name == "kernels.simplex_loop":
            loops_by_parent[parent].append((start, end))
    for loops in loops_by_parent.values():
        loops.sort()
        for k, (start, end) in enumerate(loops):
            totals["kernels.simplex_loop.phase1_s" if k == 0 else
                   "kernels.simplex_loop.phase2_s"] += end - start
    return dict(totals)
