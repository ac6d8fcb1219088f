"""Span recording around calls into the program's layers.

The benchmark does not edit the program to trace it.  A traced run
replaces selected functions and methods of the imported program with
timed wrappers (:meth:`Recorder.wrap`); each call becomes a span with a
name, start, end, the span that was open on the same thread when it
started (its parent), and optional numeric attributes taken from the
call's arguments or result.  Spans stay in memory and are written out
or summarized when the run ends.

A layer's self time is its span's duration minus its child spans'.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time

class Recorder:
    """Collects spans from wrapped calls on any thread.

    A span is ``[name, start_s, end_s, parent index or -1, attrs]``.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, **attrs) -> None:
        """Record a span whose bounds were measured elsewhere (no parent)."""
        with self._lock:
            self.spans.append([name, start, end, -1, attrs])

    def wrap(self, owner, attr: str, name: str, measure=None,
             thread: threading.Thread | None = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``measure(args, kwargs, result) -> dict`` adds numeric attributes
        to the span.  With ``thread``, only calls on that thread are
        recorded.  A call nested directly in a span of the same name is
        not recorded again (its parent already covers it).  Plain
        functions, methods, classmethods and staticmethods are all
        handled; the original is called unchanged.
        """
        static = inspect.getattr_static(owner, attr)
        kind = type(static) if isinstance(static, (classmethod, staticmethod)) else None
        original = static.__func__ if kind else static

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if thread is not None and threading.current_thread() is not thread:
                return original(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else -1
            if parent >= 0 and self.spans[parent][0] == name:
                # Nested in a span of the same layer: already covered.
                return original(*args, **kwargs)
            record = [name, time.perf_counter(), None, parent, {}]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                record[4] = measure(args, kwargs, result)
            return result

        setattr(owner, attr, kind(wrapper) if kind else wrapper)

    # ------------------------------------------------------------------
    def snapshot(self) -> list[list]:
        """A copy of every span; calls still running have end ``None``."""
        with self._lock:
            return [list(s) for s in self.spans]


def summarize(spans: list[list]) -> dict:
    """Per-name totals: count, total and self seconds, summed attrs.

    ``spans`` keep their original indices (parents refer to them), so
    pass the full list, including unfinished spans marked by ``None``.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        name, start, end, parent, _ = span
        if end is not None and parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for index, (name, start, end, _parent, attrs) in enumerate(spans):
        if end is None:
            continue
        entry = out.setdefault(
            name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}}
        )
        entry["count"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        for key, value in attrs.items():
            entry["attrs"][key] = entry["attrs"].get(key, 0) + value
    return out


def within(spans: list[list], name: str, ancestor: str) -> dict:
    """Totals of spans ``name`` that run under a span ``ancestor``."""
    count, total = 0, 0.0
    attrs: dict = {}
    for span in spans:
        if span[0] != name or span[2] is None:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent < 0:
            continue
        count += 1
        total += span[2] - span[1]
        for key, value in span[4].items():
            attrs[key] = attrs.get(key, 0) + value
    return {"count": count, "total_s": total, "attrs": attrs}
