"""Spans around the benchmark's calls into the program's modules.

A span is ``(name, start, end, parent, op)``: the called function's
dotted name, start and end in seconds from the tracer's creation, the
index of the enclosing span (-1 for none) and the id of the operation
it belongs to.  Spans stay in memory until the run ends.  A disabled
tracer only forwards the call.
"""

from __future__ import annotations

from time import perf_counter


class Tracer:
    __slots__ = ("enabled", "spans", "op", "_stack", "_origin")

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._origin = perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start - self._origin, end - self._origin, parent, self.op)

