"""In-memory span recorder for the traced run, written as Chrome trace JSON.

A span is (name, start, end, parent span, request id).  Spans nest per
thread, so a span's self time is its duration minus the durations of its
direct children.  The file written by :meth:`Tracer.write` opens in
Perfetto (ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request_id: str | None
    thread: int


class Tracer:
    """Records spans when enabled; a no-op context otherwise."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str, request_id: str | None = None):
        if not self.enabled:
            return nullcontext()
        return self._span(name, request_id)

    @contextmanager
    def _span(self, name: str, request_id: str | None) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if request_id is None and parent is not None:
            request_id = self.spans[parent].request_id
        span = Span(
            name, time.perf_counter(), 0.0, parent, request_id, threading.get_ident()
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        """Chrome trace-event JSON ("X" complete events, microseconds)."""
        origin = min((s.start for s in self.spans), default=0.0)
        threads: dict[int, int] = {}
        events = []
        for index, span in enumerate(self.spans):
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "pid": os.getpid(),
                    "tid": tid,
                    "ts": round((span.start - origin) * 1e6, 3),
                    "dur": round((span.end - span.start) * 1e6, 3),
                    "args": {
                        "span": index,
                        "parent": span.parent,
                        "request_id": span.request_id,
                    },
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
