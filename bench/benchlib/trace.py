"""Spans around the harness's own calls into each layer.

Kept in memory, written once at exit.  A span is ``(id, name, start,
end, parent, op)``; spans of one operation share ``op``.  The harness
only records from its own files: spans *inside* the program are a
later change.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from benchlib.stats import span_self_times


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []    # main thread's open spans
        self._lock = threading.Lock()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, op=None) -> int:
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({"id": span_id, "name": name,
                               "start": start, "end": end,
                               "parent": parent, "op": op})
        return span_id

    @contextmanager
    def span(self, name: str, op=None):
        """Time the enclosed block (main thread only; client threads
        use :meth:`add`); nests under the span already open."""
        span_id = self.add(name, time.perf_counter(), 0.0,
                           self._open[-1] if self._open else None, op)
        self._open.append(span_id)
        try:
            yield span_id
        finally:
            self._open.pop()
            self.spans[span_id]["end"] = time.perf_counter()

    def duration(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def write(self, path: Path) -> None:
        """All spans, plus each span name's total self time (duration
        minus what its child spans cover)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "self_time_s": span_self_times(self.spans),
            "spans": self.spans}) + "\n")
