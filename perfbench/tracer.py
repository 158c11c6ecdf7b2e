"""Span tracer that instruments motion_forge from the outside.

The tracer replaces public functions with timing wrappers at every
`motion_forge` module attribute that holds them, so callers inside the
library (which resolve names through their module globals at call time)
and the benchmark itself both go through the wrapper.  Nothing under
`src/` is edited; `uninstall` puts every original object back.

Two kinds of target:

- span: one record per call with (name, start, end, parent, pass id),
  kept in memory;
- hot: calls too frequent for a record each (per-file scheduler updates,
  per-frame rewards); only the call count, total and self time are kept.

Self time is a call's duration minus the time covered by traced calls
nested inside it.  A target whose attribute no longer exists (renamed or
inlined by a later change) is listed in `missing`, and every metric that
depends on it is left out of the results instead of reading as zero.
"""

from __future__ import annotations

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced function: `attr` on `motion_forge.<module>`, may be dotted
    (`Class.method`).  `count` maps the call's arguments to a work count."""

    key: str
    module: str
    attr: str
    hot: bool = True
    count: Callable | None = None


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "work")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.work = 0.0


class Tracer:
    """Records spans and per-target statistics while installed."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent, pass_id]
        self.missing: list[str] = []
        self.pass_id = 0
        self._stack: list[list] = []     # [child_ns, span_index]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def stat(self, key: str) -> Stat:
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    def call(self, key: str, hot: bool, count, fn, args, kwargs):
        st = self.stat(key)
        parent = self._stack[-1][1] if self._stack else None
        span_index = None
        if not hot:
            span_index = len(self.spans)
            self.spans.append([key, 0, 0, parent, self.pass_id])
        frame = [0, span_index if span_index is not None else parent]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - start
            st.calls += 1
            st.total_ns += duration
            st.self_ns += duration - frame[0]
            if count is not None:
                st.work += count(*args, **kwargs)
            if self._stack:
                self._stack[-1][0] += duration
            if span_index is not None:
                self.spans[span_index][1] = start
                self.spans[span_index][2] = end

    def wrap(self, key: str, fn, hot: bool = False, count=None):
        """Wrap a benchmark-owned callable (a plug-in) under `key`."""
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(key, hot, count, fn, args, kwargs)

        return traced

    # -- installing into motion_forge -----------------------------------

    def install(self, targets) -> None:
        """Patch every target; record absent ones as missing."""
        for t in targets:
            mod = importlib.import_module(f"motion_forge.{t.module}")
            *owner_path, name = t.attr.split(".")
            owner = mod
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
            except AttributeError:
                if t.key not in self.missing:
                    self.missing.append(t.key)
                continue
            wrapped = self.wrap(t.key, original, t.hot, t.count)
            if owner_path:
                # a method: patch the class once, callers resolve it there
                self._patch(owner, name, wrapped)
                continue
            for holder in _motion_forge_modules():
                if holder.__dict__.get(name) is original:
                    self._patch(holder, name, wrapped)

    def _patch(self, owner, name, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- reading --------------------------------------------------------

    def seconds(self, key: str) -> float:
        return self.stats[key].total_ns * 1e-9 if key in self.stats else 0.0

    def self_seconds(self, key: str) -> float:
        return self.stats[key].self_ns * 1e-9 if key in self.stats else 0.0

    def calls(self, key: str) -> int:
        return self.stats[key].calls if key in self.stats else 0

    def work(self, key: str) -> float:
        return self.stats[key].work if key in self.stats else 0.0

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "pass": k}
            for n, s, e, p, k in self.spans
        ]


def _motion_forge_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "motion_forge" or name.startswith("motion_forge."))
    ]
