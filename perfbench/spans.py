"""In-memory span tracer that wraps library functions from the outside.

A span is (name, start, end, parent): parent is the index of the span
that was open when this one began, or -1. Spans are appended to flat
arrays while the traced run executes and are turned into per-name
``calls``, ``total_s`` and ``self_s`` (total minus the time covered by
direct child spans) only at the end, so the traced code pays one
append and two clock reads per call.

``Tracer.install`` rebinds every module namespace that holds a measured
function, because ``from .envs import step`` in ``trainer`` creates a
second binding that patching ``envs.step`` alone would miss.
``Tracer.uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# tolerance for span arithmetic: perf_counter values are exact, only
# the float sums of child durations can round
_TOL_S = 1e-9


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []
        self._name_ids = {}
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._stack = []
        self.errors = {}          # (name, exception class name) -> count
        self._patches = []        # (namespace, attribute, original)
        self.missing = []         # measured names the library no longer has

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark itself (a phase)."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, on_result=None):
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                key = (name, type(e).__name__)
                self.errors[key] = self.errors.get(key, 0) + 1
                raise
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        traced.span_name = name
        return traced

    def install(self, measured, hooks=None):
        """Wrap each "module.func" or "module.Class.method" in measured.

        hooks maps a measured name to a callback that receives every
        return value of that function.
        """
        hooks = hooks or {}
        prefix = self.package + "."
        namespaces = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == self.package or key.startswith(prefix))]
        for name in measured:
            module_name, _, qual = name.partition(".")
            owner = sys.modules[prefix + module_name]
            *cls_path, attr = qual.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, hooks.get(name))
            if cls_path:
                # a class is shared by every namespace that imports it
                targets = [(owner, attr)]
            else:
                targets = [(ns, key) for ns in namespaces
                           for key, value in list(vars(ns).items()) if value is original]
            for ns, key in targets:
                self._patches.append((ns, key, original))
                setattr(ns, key, wrapped)

    def uninstall(self):
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def arrays(self):
        # copies, so the arrays stay free to grow while a view is alive
        return (np.array(self._name, dtype=np.int64), np.array(self._start),
                np.array(self._end), np.array(self._parent, dtype=np.int64))

    def save(self, path):
        name, start, end, parent = self.arrays()
        np.savez(path, names=np.asarray(self.names), name=name, start=start,
                 end=end, parent=parent)

    def child_time(self):
        """Per span: summed duration of its direct children."""
        _, start, end, parent = self.arrays()
        has_parent = parent >= 0
        return np.bincount(parent[has_parent], weights=(end - start)[has_parent],
                           minlength=start.size)

    def stats(self):
        """name -> {"calls", "total_s", "self_s"} over every recorded span."""
        name, start, end, _ = self.arrays()
        dur = end - start
        self_time = dur - self.child_time()
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=self_time, minlength=n)
        return {nm: {"calls": int(calls[i]), "total_s": float(total[i]),
                     "self_s": float(own[i])}
                for i, nm in enumerate(self.names)}

    def calls_within(self, name, phase):
        """Calls of name that started inside any span named phase."""
        names, start, end, _ = self.arrays()
        if name not in self._name_ids or phase not in self._name_ids:
            return 0
        phases = names == self._name_ids[phase]
        lo, hi = start[phases], end[phases]
        s = start[names == self._name_ids[name]]
        inside = np.zeros(s.size, dtype=bool)
        for a, b in zip(lo, hi):
            inside |= (s >= a) & (s <= b)
        return int(np.count_nonzero(inside))

    def check(self):
        """Span arithmetic; returns a list of violations (empty when sound).

        Every span ends after it starts and lies inside its parent; a
        span's direct children cover no more than its duration, so
        self time is never negative and never exceeds total time.
        """
        name, start, end, parent = self.arrays()
        problems = []
        if self._stack:
            problems.append(f"{len(self._stack)} span(s) still open")
        if np.any(end < start):
            problems.append("a span ends before it starts")
        has_parent = parent >= 0
        p = parent[has_parent]
        if np.any(start[has_parent] < start[p]) or np.any(end[has_parent] > end[p]):
            problems.append("a child span lies outside its parent")
        over = self.child_time() - (end - start)
        if np.any(over > _TOL_S):
            worst = int(np.argmax(over))
            problems.append(f"children of {self.names[name[worst]]} span {worst} "
                            f"exceed it by {over[worst]:.3g} s")
        for nm, s in self.stats().items():
            if s["self_s"] > s["total_s"] + _TOL_S or s["self_s"] < -_TOL_S:
                problems.append(f"{nm}: self_s {s['self_s']} outside [0, total_s "
                                f"{s['total_s']}]")
        return problems
