"""In-memory spans recorded around the benchmark's calls into the library.

A span is ``[name, start_ns, end_ns, parent_index, op_id]``; the parent is the
index of the enclosing span in the same tracer, or -1 at the top.  Nothing is
written while a pass runs: the harness serialises the spans after the run.
"""

import time

_clock = time.perf_counter_ns


class Tracer:
    """Spans of one traced pass, in the order their calls started."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, _clock(), 0, parent, self.op])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = _clock()

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span called ``name``."""
        self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end()

    def span(self, name: str) -> "_Span":
        """Context manager for a span whose children are recorded inside it."""
        return _Span(self, name)

    def add(self, name: str, start_ns: int, end_ns: int, parent: int = -1) -> int:
        """Record a span timed elsewhere, such as inside a child process."""
        self.spans.append([name, start_ns, end_ns, parent, self.op])
        return len(self.spans) - 1


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.tracer.begin(self.name)

    def __exit__(self, *exc):
        self.tracer.end()


def busy(spans: list[list]) -> dict[str, list[int]]:
    """Per span name: ``[calls, total_ns, self_ns]``.

    Self time is a span's duration minus the durations of its direct children;
    spans of one thread never overlap, so that is the time no child covers.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_ns[i]
    return out
