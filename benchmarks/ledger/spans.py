"""In-memory span recorder for the ledger's traced pass.

Spans wrap only calls made from the benchmark's own files (workload ->
rep -> driver call -> per-segment ``next()`` / per-batch
``apply_updates`` / the wrapped ingest iterator's ``next()``); nothing
under ``src/`` is instrumented.  A span is the plain dict
``{id, parent, name, workload, round, t0, t1}``; they stay in memory and
are written out once, when the benchmark ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Span recorder; a disabled tracer records nothing and wraps
    nothing, so the untraced phases run the exact calls a user makes."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        #: Stamped onto every span opened while they are set.
        self.workload: str | None = None
        self.round: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of this thread's innermost open span (hand it to work that
        runs on another thread as its ``parent``)."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "parent": parent if parent is not None else self.current(),
            "name": name,
            "workload": self.workload,
            "round": self.round,
            "t0": time.perf_counter(),
            "t1": None,
        }
        stack.append(record["id"])
        try:
            yield record["id"]
        finally:
            record["t1"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)  # list.append is atomic

    def iter_spans(self, name: str, iterable, parent: int | None = None):
        """``iterable`` with one span around each ``next()`` (the final,
        exhausting ``next()`` included: waiting for the end of a stream
        is waiting too).  Disabled, it is ``iterable`` itself."""
        if not self.enabled:
            return iterable
        return self._iter_spans(name, iterable, parent)

    def _iter_spans(self, name: str, iterable, parent: int | None):
        it = iter(iterable)
        while True:
            with self.span(name, parent):
                try:
                    item = next(it)
                except StopIteration:
                    return
            yield item

    # -- reading back ----------------------------------------------------
    def mark(self) -> int:
        """Position in the span log; pass to :meth:`durations`."""
        return len(self.spans)

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations of the ``name`` spans closed after ``since``."""
        return [
            s["t1"] - s["t0"] for s in self.spans[since:] if s["name"] == name
        ]

    def dump(self, path: str, **header) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({**header, "spans": self.spans}, fh)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: duration minus the part of that interval
    its child spans cover (children on other threads overlap, so the
    covered part is the union of their intervals, clipped to the
    parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    out = {}
    for s in spans:
        covered = 0.0
        end = s["t0"]
        for t0, t1 in sorted(children.get(s["id"], ())):
            t0, t1 = max(t0, end), min(t1, s["t1"])
            if t1 > t0:
                covered += t1 - t0
                end = t1
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out


def self_time_by_name(spans: list[dict]) -> dict[tuple, float]:
    """Total self time keyed by ``(workload, name)``."""
    own = self_times(spans)
    out: dict[tuple, float] = {}
    for s in spans:
        key = (s["workload"], s["name"])
        out[key] = out.get(key, 0.0) + own[s["id"]]
    return out
