"""Span tracing around the public functions of the gripsense layers.

``Tracer.install`` replaces every public function of each layer module with a
wrapper that records a span (name, start, end, parent, operation id), and
does the same for names another layer re-bound with ``from .x import y``
(``harvest.object_velocity`` is ``slip.object_velocity``). Spans stay in
memory; ``table`` derives self time and ``write`` dumps them when the run
ends. Nothing is wrapped unless a traced run asks for it, and ``uninstall``
puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("core", "sim", "geometry", "force", "slip", "softness", "harvest")

# Library calls that start an operation of their own (a harvest trial); the
# benchmark starts tick operations itself with ``Tracer.op``.
OP_ROOTS = ("harvest.run_trial",)


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # span name table
        self._name_ids: dict[str, int] = {}
        self.spans: list = []               # (name id, start, end, parent, op)
        self._stack: list[int] = []
        self._op = -1
        self._ops = 0
        self.active = True
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        starts_op = name in OP_ROOTS
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outer_op = self._op
            if starts_op:
                self._op = self._ops
                self._ops += 1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, start, clock(), parent, self._op)
                stack.pop()
                self._op = outer_op

        return traced

    @contextmanager
    def op(self, name: str):
        """A root span of the benchmark's own, with a fresh operation id."""
        nid = self._name_id(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        outer_op = self._op
        self._op = self._ops
        self._ops += 1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[idx] = (nid, start, time.perf_counter(), parent, self._op)
            self._stack.pop()
            self._op = outer_op

    @contextmanager
    def paused(self):
        """Run scoring and checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                    self._replace(mod, attr, wrapped[obj])
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._replace(mod, attr, wrapped[obj])

    def _replace(self, mod, attr, new) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        for mod, attr, old in reversed(self._saved):
            setattr(mod, attr, old)
        self._saved.clear()

    def span_cost_s(self, n: int = 20000) -> float:
        """Wall cost the wrapper adds to one call, measured on a no-op."""
        probe = Tracer()
        noop = probe._wrap("bench.noop", lambda: None)
        bare = lambda: None  # noqa: E731
        t0 = time.perf_counter()
        for _ in range(n):
            bare()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        t2 = time.perf_counter()
        return max((t2 - t1) - (t1 - t0), 0.0) / n

    # -- analysis ----------------------------------------------------------

    def table(self):
        """Spans as arrays: name id, start, duration, parent, op, self time."""
        rec = np.array(self.spans, dtype=float).reshape(-1, 5)   # all closed
        nid = rec[:, 0].astype(int)
        start = rec[:, 1]
        dur = rec[:, 2] - rec[:, 1]
        parent = rec[:, 3].astype(int)
        op = rec[:, 4].astype(int)
        child = np.zeros(len(rec))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return nid, start, dur, parent, op, dur - child

    def write(self, path) -> None:
        with gzip.open(path, "wt") as f:
            for k, (nid, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"i": k, "name": self.names[nid],
                                    "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")
