"""Spans recorded from outside the program.

``Tracer.install`` rebinds every public function of a layer module of
``semistrong`` in each other module that imported it, so a span marks a
call *into* a layer; calls inside one module stay unwrapped. Spans are kept
in memory as ``(id, name, start_ns, end_ns, parent_id)`` and written out
once, when the benchmark ends. A call made on a worker thread with no open
span of its own takes the main thread's innermost open span as its parent.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

LAYERS = ("cli", "formats", "graph", "neighborhood", "solver", "construct", "verify", "exact")


class Tracer:
    def __init__(self, on_return=None):
        self.spans: list[tuple[int, str, int, int, int | None]] = []
        self.on_return = on_return or {}  # span name -> callback(result)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self) -> tuple[list[int], int, int | None]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextmanager
    def span(self, name: str):
        stack, sid, parent = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def wrap(self, name: str, fn):
        after = self.on_return.get(name)
        spans = self.spans

        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if after is not None:
                after(result)
            return result

        return traced

    def install(self):
        public: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"semistrong.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    public[id(obj)] = (f"{layer}.{obj.__name__}", obj)
        wrappers: dict[int, object] = {}
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("semistrong."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = public.get(id(obj))
                if entry is None or obj.__module__ == modname:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(*entry)
                setattr(mod, attr, wrappers[id(obj)])
                self._undo.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._undo):
            setattr(mod, attr, obj)
        self._undo.clear()

    def write(self, path):
        doc = {"fields": ["id", "name", "start_ns", "end_ns", "parent"], "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def union_ns(intervals) -> int:
    """Total length covered by a set of [start, end] intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_ns(spans) -> dict[int, int]:
    """Span id -> its duration minus the part its child spans cover."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, _, start, end, parent in spans:
        if parent in by_id:
            _, _, pstart, pend, _ = by_id[parent]
            lo, hi = max(start, pstart), min(end, pend)
            if lo < hi:
                children[parent].append((lo, hi))
    return {sid: end - start - union_ns(children[sid]) for sid, _, start, end, _ in spans}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
