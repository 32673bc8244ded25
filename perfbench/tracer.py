"""Span tracer that wraps mmsim's public functions from outside the package.

Every public function defined in a traced module is replaced by a wrapper
that records a span (name, start, end, parent) in memory.  The wrapper is
installed in every mmsim namespace that holds the function, not only the
defining module: ``montecarlo`` imports ``confidence_interval``,
``build_variance_units``, ``draw_stochastic_labels`` and
``build_pseudopopulation`` by name, ``estimators`` imports
``response_rates`` by name, and ``cli`` imports the population functions,
so patching the defining module alone would leave those call sites
untraced and their spans would read zero.

``numpy.unique`` is wrapped as well; the elements passed to it are
charged to the innermost active span.  Only calls made through the
``numpy.unique`` attribute are seen, which is how mmsim calls it; numpy's
own internal uses of ``unique`` are not counted.

``restore`` puts every original object back; ``changed_functions``
reports any name that still differs from a snapshot taken before.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "mmsim"
TRACED_MODULES = ("config", "population", "montecarlo", "sampling", "response",
                  "estimators", "variance")


def public_functions() -> dict:
    """``{"module.name": function}`` for every public function a traced module defines."""
    out = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                out[f"{short}.{name}"] = obj
    return out


def namespace_snapshot() -> dict:
    """Identity of every function object bound in a loaded mmsim namespace."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, val in vars(mod).items():
            if inspect.isfunction(val):
                snap[(modname, attr)] = val
    return snap


class Tracer:
    """Records spans and per-span counters for one traced run."""

    def __init__(self, result_counters: dict | None = None):
        # label -> function(result) -> int, summed into counts[label]
        self.result_counters = result_counters or {}
        self.spans: list[list] = []        # [label, start_ns, end_ns, parent index]
        self.stack: list[int] = []
        self.unique_events: list[tuple[int, int]] = []   # (span index or -1, elements)
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        counter = self.result_counters.get(label)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([label, clock(), 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                counts[label] = counts.get(label, 0) + counter(result)
            return result

        return traced

    def _wrap_unique(self, fn):
        stack, events = self.stack, self.unique_events

        @functools.wraps(fn)
        def counted(ar, *args, **kwargs):
            events.append((stack[-1] if stack else -1, int(np.size(ar))))
            return fn(ar, *args, **kwargs)

        return counted

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(label, fn))
                    for label, fn in public_functions().items()}
        for (modname, attr), val in namespace_snapshot().items():
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                mod = sys.modules[modname]
                self._patches.append((mod, attr, val))
                setattr(mod, attr, hit[1])
        self._patches.append((np, "unique", np.unique))
        np.unique = self._wrap_unique(np.unique)

    def restore(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()


def self_times_ns(spans: list) -> list[int]:
    """Each span's duration minus the part covered by its direct children."""
    child = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]


def under(spans: list, idx: int, label: str) -> bool:
    """Whether span ``idx`` is, or lies under, a span named ``label``."""
    while idx >= 0:
        if spans[idx][0] == label:
            return True
        idx = spans[idx][3]
    return False


def changed_functions(before: dict) -> list[str]:
    """Names whose bound object differs from the snapshot ``before``."""
    after = namespace_snapshot()
    return sorted(f"{m}.{a}" for key, fn in before.items()
                  for m, a in [key] if after.get(key) is not fn)
