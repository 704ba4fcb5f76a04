"""Spans around the public functions of every cellprobe module.

The tracer lives entirely in the benchmark: it replaces each public function
and method of the traced modules with a wrapper that records one span per
call (name, start, end, parent span, trace id).  ``pipeline.py`` and
``cli.py`` bind names with ``from .core import ...``, so every module-level
binding of a wrapped function is replaced, not only the defining one.
Spans are kept in flat arrays and turned into per-name counts and times when
the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = (
    "core", "schemes", "schemeio", "separator", "stretcher", "infotheory",
    "entropy_sum", "brackets", "pipeline", "cli",
)

# Scheme.inputs is a generator: a span around it would interleave with its
# consumer's spans, so it is counted (calls and elements yielded) instead.
INPUTS_NAME = "core.Scheme.inputs"

# Metrics that add up several spans: both answer() methods are the
# preservation check of cell fixing.
COMBINED = {"core.answer": ("core.Scheme.answer", "core.RestrictedScheme.answer")}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("i")
        self._stack = [-1]
        self.trace_id = -1
        self._inputs: dict[int, list[int]] = {}   # trace id -> [calls, yielded]
        self._undo: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self, package) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == package.__name__ or key.startswith(package.__name__ + ".")]
        replaced: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_class(short, obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._set(mod, attr, wrapper)

    def _install_class(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_")
            own_init = attr == "__init__" and not dataclasses.is_dataclass(cls)
            if not (public or own_init):
                continue
            label = f"{short}.{cls.__name__}.{'init' if own_init else attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(label, raw.__func__)))
            elif inspect.isgeneratorfunction(raw):
                self._set(cls, attr, self._count_yields(raw))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(label, raw))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, label: str, fn):
        nid = self._ids.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        names, starts, ends = self.name, self.start, self.end
        parents, traces, stack = self.parent, self.trace, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            traces.append(tracer.trace_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _count_yields(self, gen_fn):
        inputs = self._inputs
        tracer = self

        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            box = inputs.setdefault(tracer.trace_id, [0, 0])
            box[0] += 1
            for item in gen_fn(*args, **kwargs):
                box[1] += 1
                yield item

        return counted

    # -- summarising --------------------------------------------------------

    def summarize(self, trace_ids) -> dict[str, float]:
        """Per-name ``calls``, ``self_s`` and ``total_s`` over the given traces.

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        trace = np.frombuffer(self.trace, dtype=np.int32)
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        keep = np.isin(trace, np.asarray(sorted(trace_ids), dtype=np.int32))
        k = len(self.names)
        calls = np.bincount(name[keep], minlength=k)
        total = np.bincount(name[keep], weights=dur[keep], minlength=k)
        self_s = np.bincount(name[keep], weights=own[keep], minlength=k)
        out: dict[str, float] = {}
        for nid, label in enumerate(self.names):
            out[f"{label}.calls"] = int(calls[nid])
            out[f"{label}.total_s"] = float(total[nid])
            out[f"{label}.self_s"] = float(self_s[nid])
        boxes = [self._inputs.get(t, (0, 0)) for t in trace_ids]
        out[f"{INPUTS_NAME}.calls"] = sum(b[0] for b in boxes)
        out[f"{INPUTS_NAME}.yielded"] = sum(b[1] for b in boxes)
        for label, parts in COMBINED.items():
            for stat in ("calls", "total_s", "self_s"):
                out[f"{label}.{stat}"] = sum(out[f"{p}.{stat}"] for p in parts)
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            trace=np.frombuffer(self.trace, dtype=np.int32),
        )
