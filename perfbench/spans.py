"""Spans and counts recorded around calls into the program's layers.

A span is ``(id, name, start, end, parent, job)``; spans of one job share
the job id.  Spans stay in memory and are written out when the run ends.
A layer's self time is its spans' duration minus the part covered by
their child spans.  With tracing off, :meth:`Tracer.span` is a no-op and
:meth:`Tracer.count` records nothing, so untraced runs measure the
program alone.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, object]] = []
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, job: Optional[str] = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        if job is None and parent is not None:
            job = parent["job"]
        record = {"id": span_id, "name": name, "parent":
                  parent["id"] if parent else None, "job": job,
                  "start": time.perf_counter(), "end": None}
        stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def _stack(self) -> List[Dict[str, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def record(self, name: str, value: float) -> None:
        """Keep one sample of a distribution (reported as a median)."""
        if not self.enabled:
            return
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def total_seconds(self) -> Dict[str, float]:
        """Summed span duration per span name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span["name"]] = totals.get(span["name"], 0.0) + \
                span["end"] - span["start"]
        return totals

    def self_seconds(self) -> Dict[str, float]:
        """Summed self time per span name: each span's duration minus the
        union of its children's intervals (children of one span may
        overlap when they ran on different threads)."""
        children: Dict[int, List[Dict[str, object]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        totals: Dict[str, float] = {}
        for span in self.spans:
            covered = 0.0
            reach = span["start"]
            for child in sorted(children.get(span["id"], ()),
                                key=lambda c: c["start"]):
                start = max(child["start"], reach)
                end = min(child["end"], span["end"])
                if end > start:
                    covered += end - start
                    reach = end
            totals[span["name"]] = totals.get(span["name"], 0.0) + \
                span["end"] - span["start"] - covered
        return totals

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "samples": self.samples}, handle)
