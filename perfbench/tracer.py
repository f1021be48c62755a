"""Span tracing of optinput's layers, installed from outside the package.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records one span (name, start, end, parent) per call, in every
module namespace that holds a reference to it, and `uninstall` puts the
originals back.  Spans live in flat lists until `save` writes them out.
Nothing inside the package is edited.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("linalg", "kernels", "design_map", "estimator", "design_solver", "experiment")


def _solve_tag(args, kwargs) -> str:
    """`solve` spans carry the criterion, e.g. design_solver.solve[E]."""
    problem = args[0] if args else kwargs["problem"]
    return f"[{problem.criterion}]"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.eb_rows: list[int] = []  # record length N of each eb_objective call
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, qualname: str, fn):
        tag = _solve_tag if qualname == "design_solver.solve" else None
        fixed = self._id(qualname)
        span_name, start, end, parent, stack = self.span_name, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter
        eb_rows = self.eb_rows if qualname == "estimator.eb_objective" else None

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(fixed if tag is None else self._id(qualname + tag(args, kwargs)))
            parent.append(stack[-1])
            end.append(0.0)
            if eb_rows is not None:
                eb_rows.append(np.size(args[1]))
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "optinput"):
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if not name.startswith("_") and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def arrays(self):
        """(names, name id, start, end, parent, self time) as numpy arrays."""
        start = np.asarray(self.start)
        dur = np.asarray(self.end) - start
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return self.names, np.asarray(self.span_name, dtype=np.int64), start, dur, parent, dur - child

    def save(self, path):
        names, name_id, start, dur, parent, self_time = self.arrays()
        np.savez_compressed(
            path, names=np.asarray(names), name_id=name_id, start=start, end=start + dur,
            parent=parent, self_time=self_time,
        )
