"""Span tracing of fbsweep's layers from outside the package.

``install`` replaces every public module-level function of the traced
modules (and a few named methods) with a timing wrapper, in every
fbsweep module that bound the function by name, so that ``cli`` and
``verify`` calls are seen as well as calls made inside the defining
module. ``uninstall`` puts the originals back.

Spans are kept in memory as parallel lists (name, parent, start, end)
and written out once, by ``Tracer.dump``, when the benchmark ends. A
span's self time is its duration minus the durations of its direct
children. Everything runs in one thread with no queues, so there is no
waiting time to record.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from pathlib import Path

import numpy as np

TRACED_MODULES = ("core", "lqg", "gridpde", "verify", "sdesim", "artifacts")
# Per-element formatting helpers: wrapping them would time the tracer,
# not the layer (artifacts.fmt runs once per CSV cell).
SKIPPED = {"artifacts.fmt", "artifacts.jsonable"}
METHODS = (
    ("core", "GridSpec", "mesh"),
    ("gridpde", "DiscreteGenerator", "apply"),
    ("gridpde", "DiscreteGenerator", "apply_adjoint"),
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self._stack: list = []
        self.observed: dict = {}
        self.targets: set = set()
        self._restore: list = []

    # -- recording -------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def mark(self) -> int:
        return len(self.names)

    def observe(self, key: str, value) -> None:
        self.observed.setdefault(key, []).append(value)

    def wrap(self, name: str, fn, observer=None):
        """Timing wrapper; observer(tracer, span, args, kwargs, result) runs in its own span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if observer is not None:
                obs = self.begin("trace.observer")
                try:
                    observer(self, idx, args, kwargs, result)
                finally:
                    self.end(obs)
            return result

        return traced

    # -- patching --------------------------------------------------------
    def install(self, observers=None) -> None:
        observers = observers or {}
        modules = [
            m for n, m in sorted(sys.modules.items()) if n == "fbsweep" or n.startswith("fbsweep.")
        ]
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"fbsweep.{short}")
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if attr.startswith("_") or name in SKIPPED:
                    continue
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(name, obj, observers.get(name))
                self.targets.add(name)
                for owner in modules:
                    for bound, value in list(vars(owner).items()):
                        if value is obj:
                            self._restore.append((owner, bound, obj))
                            setattr(owner, bound, wrapper)
        for short, cls_name, meth in METHODS:
            mod = importlib.import_module(f"fbsweep.{short}")
            cls = getattr(mod, cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if not inspect.isfunction(fn):
                continue
            name = f"{short}.{cls_name}.{meth}"
            self.targets.add(name)
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self.wrap(name, fn, observers.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- queries ---------------------------------------------------------
    def arrays(self):
        """(names, durations, self times) of every span recorded."""
        names = np.asarray(self.names, dtype=object)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return names, dur, dur - child

    def dump(self, path) -> None:
        """Write every span recorded to one compressed archive."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        unique, codes = np.unique(np.asarray(self.names, dtype=str), return_inverse=True)
        np.savez_compressed(
            path,
            span_names=unique,
            name_code=codes.astype(np.int32),
            parent=np.asarray(self.parents, dtype=np.int64),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
        )


class SpanWindow:
    """Aggregates over the spans recorded between two marks."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        names, dur, self_dur = tracer.arrays()
        self.tracer = tracer
        self.lo = lo
        self.names = names[lo:hi]
        self.dur = dur[lo:hi]
        self.self_dur = self_dur[lo:hi]

    def _mask(self, name: str):
        return self.names == name

    def calls(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.dur[self._mask(name)].sum())

    def self_time(self, name: str) -> float:
        return float(self.self_dur[self._mask(name)].sum())

    def within(self, name: str, ancestor: str) -> float:
        """Total duration of `name` spans that have an `ancestor` span above them."""
        names_all = self.tracer.names
        parents_all = self.tracer.parents
        total = 0.0
        for k in np.nonzero(self._mask(name))[0]:
            p = parents_all[self.lo + k]
            while p >= 0 and names_all[p] != ancestor:
                p = parents_all[p]
            if p >= 0:
                total += float(self.dur[k])
        return total
