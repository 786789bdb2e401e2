"""In-memory span tracer that wraps wigosc's public functions from outside.

Each public function of the layer modules is replaced, at every module-level
name that refers to it (``wigosc.observables.evolve`` is the same object as
``wigosc.gaussian.evolve``), by a wrapper that records a span: name, start,
end, parent span and the benchmark item it ran under.  Nothing inside wigosc
changes; calls a function makes through a local alias it bound before
installation are not seen.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

LAYERS = ("model", "gaussian", "quadrature", "observables", "phaseops", "langevin", "cli")

# Per-element callbacks: angle_operator_matrix calls its Fourier callback once
# per matrix entry, so a span there would cost more than the work it measures.
UNWRAPPED = frozenset({"phaseops.phase_fourier", "phaseops.g_coefficient",
                       "phaseops.delta_matrix_element"})

# span record fields
NAME, START, END, PARENT, ITEM, CHILD_NS, RAISED = range(7)


class Tracer:
    """Records spans while installed; ``items`` holds ``(kind, tag)`` per item index."""

    def __init__(self):
        self.spans: list = []
        self.items: list = []
        self._item = -1
        self._local = threading.local()
        self._patches: list = []

    def begin_item(self, kind: str, tag: str) -> None:
        self.items.append((kind, tag))
        self._item = len(self.items) - 1

    def end_item(self) -> None:
        self._item = -1

    def install(self, package) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package.__name__}.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[obj] = self._wrap(name, obj)
        prefix = package.__name__ + "."
        for modname, mod in list(sys.modules.items()):
            if modname != package.__name__ and not modname.startswith(prefix):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patches.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, local, tracer = self.spans, self._local, self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            rec = [name, clock(), 0, parent, tracer._item, 0, False]
            spans.append(rec)
            stack.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD_NS] += rec[END] - rec[START]

        return traced

    def write(self, path) -> None:
        """Write spans as JSON lines: name, start/end ns, parent index, item kind/tag."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                kind, tag = self.items[rec[ITEM]] if rec[ITEM] >= 0 else ("", "")
                parent = index[id(rec[PARENT])] if rec[PARENT] is not None else -1
                fh.write(json.dumps([rec[NAME], rec[START], rec[END], parent, kind, tag,
                                     rec[RAISED]]) + "\n")
