"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps each named public function by rebinding every
``cpgate.*`` module attribute that holds the same function object, so calls
through a name imported elsewhere (``solver`` imports ``compose_arrays`` from
``jets``) are seen too.  Spans (name, start, end, parent span, operation id)
stay in memory until ``write``.  A function's self time is its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

LAYER_FUNCTIONS = (
    "cli.run",
    "catalog.to_sequence",
    "catalog.save_catalog",
    "analysis.sweep",
    "analysis.write_csv",
    "analysis.high_fidelity_range",
    "analysis.verify_order",
    "precise.polish_structured",
    "precise.slope_fit",
    "precise.mp_propagator",
    "solver.solve",
    "solver.residual",
    "solver.canonicalize",
    "solver.transport",
    "jets.compose_arrays",
    "su2.compose",
)


class Tracer:
    def __init__(self):
        self.missing: list[str] = []
        self.spans: list = []
        self.op = -1  # id of the operation now running
        self.restarts = self.members = self.classes = 0
        self._stack: list[int] = []  # indices of the open spans
        self._wrappers: dict = {}  # original function -> wrapper
        self._restore: list = []

    def install(self) -> None:
        """Rebind the wrapped functions; a name that no longer exists is
        recorded in ``missing``."""
        if not self._wrappers:
            for qual in LAYER_FUNCTIONS:
                module, _, attr = qual.partition(".")
                fn = getattr(sys.modules.get(f"cpgate.{module}"), attr, None)
                if callable(fn):
                    self._wrappers[fn] = self._wrap(qual, fn)
                else:
                    self.missing.append(qual)
        for name, m in list(sys.modules.items()):
            if name != "cpgate" and not name.startswith("cpgate."):
                continue
            for key, value in list(vars(m).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(m, key, wrapper)
                    self._restore.append((m, key, value))

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._restore):
            setattr(m, key, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        # Keep the per-call work to a stack push and one tuple; counts and
        # self times are derived from the spans afterwards.
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        observe = self._observe_solve if name == "solver.solve" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observe_solve(self, args, kwargs, result) -> None:
        config = args[0] if args else kwargs.get("config")
        self.restarts += getattr(config, "seeds", 0)
        self.classes += len(result)
        self.members += sum(len(getattr(s, "members", ())) for s in result)

    def metrics(self) -> dict:
        """``<function>.calls`` and ``<function>.self_ms`` for every name
        (0 for a missing one) plus the solver restart counters."""
        calls, self_ns = Counter(), Counter()
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            calls[name] += 1
            self_ns[name] += end - start - children
        out = {}
        for name in LAYER_FUNCTIONS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms")
        out["solver.restarts"] = (self.restarts, "count")
        out["solver.classes"] = (self.classes, "count")
        out["solver.roots_kept_ratio"] = (
            self.members / self.restarts if self.restarts else 0.0, "ratio"
        )
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")
