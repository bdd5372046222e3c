"""In-memory spans recorded around the benchmark's calls into each layer."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Spans of one run: name, start, end and parent, kept in memory and
    written out once at the end. A span's layer is its name up to the
    first dot. Disabled, ``span`` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self, start: int = 0) -> dict[str, float]:
        """Seconds per layer spent in its own spans, minus the time their
        child spans cover; over the spans from index ``start`` on."""
        child = [0.0] * len(self.spans)
        for s in self.spans[start:]:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans[start:], child[start:]):
            layer = s["name"].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - c
        return out

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump({**extra, "spans": self.spans,
                       "self_s": self.self_times()}, f)
