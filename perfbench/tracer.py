"""Spans and call counts around tubelab's public functions, installed from outside.

The tracer replaces every public module-level function of the layer modules
with a wrapper, in every tubelab module that binds it (so names imported into
another module, such as ``tubelab.additive.tube_contains``, are traced too).
Nothing under ``src/`` knows about it. Spans stay in memory until the call
ends; ``summary`` turns them into per-function and per-layer numbers.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# the program's layers, in ROADMAP order (L0 .. L5, then the entry points)
LAYERS = (
    "core_grid",
    "tubes",
    "generators",
    "delta_sets",
    "incidence",
    "projections",
    "additive",
    "manifest",
    "cli",
)

# Called hundreds of thousands of times per run from tight loops: a timing
# wrapper would distort the caller more than it measures, so these are only
# counted and their time is read inside the caller's self time.
COUNT_ONLY = frozenset({"tubes.tube_contains", "tubes.unpack_key", "core_grid.check_value_bound"})


class Tracer:
    """Records one span per traced call: name, parent, wall and process-CPU
    start and end. Parents come from a per-thread stack; a span opened on a
    worker thread with an empty stack hangs under the innermost span the main
    thread has open, which is the call that started the pool."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        # next() on an itertools.count is atomic, so threads lose no increments
        self._counters: dict[str, itertools.count] = {}
        # (function name, bound arguments) of calls whose sizes are computed later
        self.sized_calls: list[tuple[str, inspect.BoundArguments]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, fn, sized: bool):
        signature = inspect.signature(fn) if sized else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if signature is not None:
                self.sized_calls.append((name, signature.bind(*args, **kwargs)))
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.process_time()
                stack.pop()
                self.spans.append((sid, parent, name, t0, t1, c0, c1))

        return wrapper

    def _counted(self, name: str, fn):
        counter = self._counters[name] = itertools.count()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, sized: frozenset[str] = frozenset()) -> None:
        """Wrap every public function of the layer modules wherever the
        package binds it. The arguments of the functions named in ``sized``
        are kept for ``sized_calls``."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"tubelab.{layer}")
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in COUNT_ONLY:
                    wrappers[id(fn)] = self._counted(name, fn)
                else:
                    wrappers[id(fn)] = self._timed(name, fn, name in sized)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "tubelab" or mod_name.startswith("tubelab.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def write_spans(self, path: str) -> None:
        """One JSON line per span: id, parent, name, start, end, cpu start, cpu end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        """Per-function calls, inclusive seconds and CPU seconds, and per-layer
        self seconds: a span's duration minus the part of it that its child
        spans cover. Taken once, after the traced call has returned."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, parent, _name, t0, t1, _c0, _c1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        functions: dict[str, dict] = {}
        layer_self: dict[str, float] = defaultdict(float)
        for sid, _parent, name, t0, t1, c0, c1 in self.spans:
            entry = functions.setdefault(name, {"calls": 0, "s": 0.0, "cpu_s": 0.0})
            entry["calls"] += 1
            entry["s"] += t1 - t0
            entry["cpu_s"] += c1 - c0
            layer_self[name.split(".", 1)[0]] += (t1 - t0) - _covered(t0, t1, children[sid])
        for name, counter in self._counters.items():
            # the first unused value of the counter is the number of calls
            functions.setdefault(name, {"calls": 0, "s": 0.0, "cpu_s": 0.0})["calls"] += next(counter)
        return {"functions": functions, "layer_self_s": dict(layer_self)}


def _covered(t0: float, t1: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [t0, t1] covered by the union of the intervals (children on
    several threads may overlap)."""
    total = 0.0
    end = t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total
