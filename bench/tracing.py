"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span and ``op`` the index of the benchmark operation it belongs to,
so the spans of one operation share an identifier.  Spans are kept in memory
and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Collects spans and counters from the benchmark's calls into the package."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` inside a span; ``on_result`` sees each result, for counters."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def seconds(self) -> tuple[Counter, Counter]:
        """(total, self) seconds per span name.  Self time is a span's duration
        minus the durations of its direct children, which never overlap."""
        child = [0.0] * len(self.spans)
        total: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) - child[index]
        return total, own

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans started."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
