"""Spans and counts recorded around calls into the program's layers.

A span is (id, name, start, end, parent): ``parent`` is the span that was
open when this one began, so nested calls form a tree. Spans and counts
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._open: list = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1]["id"] if self._open else None,
               "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._open.pop()

    def seconds(self, name: str) -> list:
        """Durations of every closed span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def now(self) -> float:
        return time.perf_counter() - self._t0

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f, indent=1)
