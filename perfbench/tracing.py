"""Spans around the calls between widom's modules, recorded from outside.

The traced run wraps every public, non-generator function that one
widom module imports from another (found by reading the modules'
``from .x import y`` statements), the constructors of the graph
module's classes (the graph layer's work is building graphs), and the
entry points the benchmark calls.  A top-level import is wrapped in the
importing module's namespace, so calls inside the defining module stay
unwrapped; a function-level import reads the defining module at call
time, so it is wrapped there.  Nothing in ``src/`` is edited: wrappers
are installed for a traced pass and removed after it.

A layer is a widom module.  A span's self time is its duration minus
the durations of the spans it directly encloses.  Span times are the
thread's CPU time, like the op times of the run.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import json
import pkgutil
from collections import defaultdict
from pathlib import Path
from time import thread_time

# Function names grouped into the decomposition sub-layers the benchmark reports.
DECOMPOSITION_PARTS = {
    "module_search": ("find_module_mask", "find_homogeneous_set", "is_prime"),
    "good_vertex": ("find_good_vertex_mask", "find_good_vertex"),
    "leaf_test": ("edge_count_within", "is_complete_mask"),
    "tree": ("build_tree",),
}


class Tracer:
    def __init__(self, package):
        self._targets = _wrap_targets(package)
        self._installed: list[tuple[object, str, object]] = []
        self.active = False
        self.keep_spans = False
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self.op_id = -1
        self.reset_counts()
        self.self_s: dict[str, float] = defaultdict(float)
        self.fn_s: dict[str, float] = defaultdict(float)

    def reset_counts(self) -> None:
        """Counts restart here; times keep accumulating over every traced pass."""
        self.fn_calls: dict[str, int] = defaultdict(int)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, layer: str, name: str):
        tracer = self
        hook = _HOOKS.get(name)
        params = list(inspect.signature(fn).parameters)
        stats_at = params.index("stats") if hook is _solver_hook and "stats" in params else -1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stats = None
            if stats_at >= 0:
                # the solver's counters come from its public ``stats`` argument
                if len(args) > stats_at:
                    stats = args[stats_at]
                    if stats is None:
                        stats = {}
                        args = args[:stats_at] + (stats,) + args[stats_at + 1:]
                else:
                    stats = kwargs.get("stats")
                    if stats is None:
                        stats = kwargs["stats"] = {}
            tracer._stack.append([tracer._next_id, 0.0])
            tracer._next_id += 1
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = thread_time()
                span_id, child = tracer._stack.pop()
                dur = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.self_s[layer] += dur - child
                tracer.fn_s[name] += dur
                tracer.fn_calls[name] += 1
                tracer.layer_calls[layer] += 1
                if tracer.keep_spans:
                    parent = tracer._stack[-1][0] if tracer._stack else -1
                    tracer.spans.append((span_id, parent, tracer.op_id, name, start, end))
            if hook is not None:
                hook(tracer.counters, args, kwargs, result, stats)
            return result

        return traced

    def entry(self, fn):
        """The wrapper for an entry point the benchmark calls itself."""
        layer = fn.__module__.rsplit(".", 1)[-1]
        return self.wrap(fn, layer, f"{layer}.{fn.__name__}")

    def install(self) -> None:
        for owner, attr, layer, name in self._targets:
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, name))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def wrapped_names(self) -> list[str]:
        return sorted({name for _, _, _, name in self._targets})

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[4] for s in self.spans), default=0.0)
        doc = {
            "fields": ["id", "parent", "op", "name", "start_us", "end_us"],
            "spans": [
                [i, p, op, name, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1)]
                for i, p, op, name, s, e in self.spans
            ],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _solver_hook(counters, args, kwargs, result, stats) -> None:
    if stats:
        counters["solver.subproblems"] += stats.get("subproblems", 0)
        counters["solver.assignments"] += stats.get("assignments", 0)
        counters["solver.max_demands"] = max(
            counters["solver.max_demands"], stats.get("max_demands", 0)
        )


def _parse_hook(counters, args, kwargs, result, stats) -> None:
    text = args[0] if args else kwargs.get("text", "")
    counters["io.bytes_parsed"] += len(text.encode())


def _oracle_hook(counters, args, kwargs, result, stats) -> None:
    counters["oracle.mis_enumerated"] += getattr(result, "enumeration_size", 0)


_HOOKS = {
    "solver.solve_constrained": _solver_hook,
    "solver.solve_wid": _solver_hook,
    "io.parse_graph": _parse_hook,
    "io.parse_dimacs": _parse_hook,
    "oracle.oracle_wid": _oracle_hook,
    "oracle.oracle_id": _oracle_hook,
    "oracle.oracle_constrained": _oracle_hook,
}


def _wrap_targets(package) -> list[tuple[object, str, str, str]]:
    """(namespace, attribute, layer, span name) for every wrapped callable."""
    targets: dict[tuple[int, str], tuple] = {}
    for info in pkgutil.iter_modules(package.__path__):
        importer = importlib.import_module(f"{package.__name__}.{info.name}")
        tree = ast.parse(Path(importer.__file__).read_text())
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            home = importlib.import_module(f"{package.__name__}.{node.module}")
            layer = node.module
            for alias in node.names:
                obj = getattr(home, alias.name, None)
                if alias.name.startswith("_") or obj is None:
                    continue
                name = f"{layer}.{alias.name}"
                if inspect.isclass(obj):
                    if layer == "graph" and "__init__" in vars(obj):
                        targets[(id(obj), "__init__")] = (obj, "__init__", layer, name)
                    continue
                if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
                    continue
                if id(node) in top:
                    owner, attr = importer, alias.asname or alias.name
                else:
                    owner, attr = home, alias.name
                targets[(id(owner), attr)] = (owner, attr, layer, name)
    return list(targets.values())
