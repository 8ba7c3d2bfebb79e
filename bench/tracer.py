"""In-process call tracing for the dualbloch modules.

A Tracer replaces each named function with a wrapper that records one span
(function, parent span, start, end) per call.  Modules bind names with
``from .x import f``, so the wrapper is installed under every name in every
loaded ``dualbloch`` module that refers to the original function; patching
only the defining module would miss those calls.  Spans stay in memory
while the traced code runs and are reduced (or saved) only after it ends.

Tracing is single-threaded: one span stack is shared by all callers.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


class Tracer:
    def __init__(self, functions: list[str], keyed: str):
        """functions: "<module>.<name>" under the dualbloch package.
        keyed: the one function whose arguments are also recorded, so that
        repeated argument tuples can be counted."""
        self.names = list(functions)
        self.keyed = keyed
        self.spans: list = []
        self.keys: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for fid, name in enumerate(self.names):
            module, attr = name.rsplit(".", 1)
            fn = getattr(sys.modules.get(f"dualbloch.{module}"), attr, None)
            # A function (or module) that no longer exists reports zero calls;
            # an alias of an earlier name is traced under that earlier name.
            if fn is not None and id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fid, fn, self.keys if name == self.keyed else None)
        for modname, module in list(sys.modules.items()):
            if modname != "dualbloch" and not modname.startswith("dualbloch."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        # Clear in place: the wrappers hold references to these lists.
        self.spans.clear()
        self._stack.clear()
        self.keys.clear()

    def _wrap(self, fid: int, fn, keys):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.append(tuple(np.asarray(a, dtype=float).tobytes() for a in args))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (fid, parent, start, end)

        return traced

    def span_array(self) -> np.ndarray:
        """Spans as an (n, 4) float array: function id, parent index, start, end."""
        return np.array(self.spans, dtype=float).reshape(-1, 4)

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per function: (calls, self seconds).  Self time is the span's
        duration minus the durations of its direct children."""
        spans = self.span_array()
        fid = spans[:, 0].astype(int)
        parent = spans[:, 1].astype(int)
        duration = spans[:, 3] - spans[:, 2]
        children = np.zeros(len(spans))
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        calls = np.bincount(fid, minlength=len(self.names))
        self_s = np.bincount(fid, weights=duration - children, minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def repeat_frac(self) -> float:
        """Share of the calls to the keyed function whose arguments occurred
        earlier in the pass."""
        return 1.0 - len(set(self.keys)) / len(self.keys) if self.keys else 0.0
