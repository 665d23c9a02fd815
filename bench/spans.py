"""Spans recorded around the package's public functions, from outside it.

Each wrapper replaces a function under the name its caller module binds it
to (for example ``pipeline.rerank``, which ``pipeline`` imported from
``srm``), so nothing under ``src/`` changes. A span is a list:

    [name, start, end, parent, session_id, counts, busy]

``parent`` is the index of the enclosing span and ``busy`` the time the
span's layer was running. For an ordinary span ``busy`` is ``end - start``.
Functions called once per candidate document (``qa_score``) or once per
document (``analyze``) are coalesced: all calls under one parent span share
one span, from the first call's start to the last call's end, whose
``busy`` is the sum of the calls and whose counts include ``calls``. A
span's self time is its ``busy`` minus the ``busy`` of its children.

Counting that costs more than a few attribute reads (postings unions,
distinct-term sets) runs outside the layer's span, in a coalesced
``trace.count`` child of the enclosing span, so it shows as tracing cost
rather than as the layer's own time. Spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import time

NAME, START, END, PARENT, SESSION, COUNTS, BUSY = range(7)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.session = None
        self._stack: list[int] = []
        self._leaves: dict[tuple, int] = {}

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.session, None, 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[BUSY] = span[END] - span[START]
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")

    def leaf(self, name: str, start: float, end: float, counts: dict | None = None) -> None:
        """Add one call to the coalesced span `name` under the open span."""
        parent = self._stack[-1] if self._stack else None
        key = (parent, name)
        index = self._leaves.get(key)
        if index is None:
            index = len(self.spans)
            self.spans.append([name, start, end, parent, self.session, {"calls": 0}, 0.0])
            self._leaves[key] = index
        span = self.spans[index]
        span[END] = end
        span[BUSY] += end - start
        total = span[COUNTS]
        total["calls"] += 1
        if counts:
            for field, value in counts.items():
                total[field] = total.get(field, 0) + value

    def counted(self, fn):
        """Run a counting function as tracing cost; return its value."""
        start = time.perf_counter()
        value = fn()
        self.leaf("trace.count", start, time.perf_counter())
        return value

    def self_times(self) -> list[float]:
        own = [span[BUSY] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[BUSY]
        return own


def wrap_span(tracer: Tracer, name: str, fn, counts=None, session_arg: bool = False):
    """Record one span per call of fn.

    counts(args, result) gives the span's counts; it runs after the span
    closes. With session_arg, the first argument is a Session whose id tags
    this span and every span opened inside it.
    """

    def wrapper(*args, **kwargs):
        previous = tracer.session
        if session_arg:
            tracer.session = args[0].session_id
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
            tracer.session = previous
        if counts is not None:
            tracer.spans[index][5] = tracer.counted(lambda: counts(args, result))
        return result

    return wrapper


def wrap_leaf(tracer: Tracer, name: str, fn, counts=None):
    """Coalesce the calls of a function called once per document or candidate.

    counts(args, result) gives numbers to add to the span's counts.
    """
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        end = clock()
        if counts is None:
            tracer.leaf(name, start, end)
        else:
            tracer.leaf(name, start, end, tracer.counted(lambda: counts(args, result)))
        return result

    return wrapper
