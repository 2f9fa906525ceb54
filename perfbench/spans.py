"""In-memory span recorder and the proxies the traced run hands to the
query engine.

A span is one call into a layer: name, start, end, parent span and the
work unit it belongs to (a set-up repetition or one timed operation).
Spans stay in memory and are written out once, when the run ends. A
layer's self time is its span's duration minus the time its child spans
cover; calls are sequential in one thread, so the children's durations
simply add up.

Tracing is switched per work unit with ``Tracer.enabled``, so one traced
run can alternate traced and untraced operations and measure its own
overhead.
"""
from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path


def metric_name(span_name: str) -> str:
    """``membership.spark`` → ``membership.spark_s``; ``shingle`` → ``shingle.s``."""
    return f"{span_name}_s" if "." in span_name else f"{span_name}.s"


class Tracer:
    """Records spans and counts, each tagged with the current work unit."""

    def __init__(self) -> None:
        self.enabled = False
        self.unit: str | None = None
        self.spans: list[dict] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(dict)
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "unit": self.unit,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        """Record an exact counter for the current unit (traced units only)."""
        if self.enabled:
            self.counts[self.unit][name] = value

    def self_times(self) -> dict[str, dict[str, float]]:
        """unit → metric → summed self seconds of that unit's spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            own = s["end"] - s["start"] - child[s["id"]]
            out[s["unit"]][metric_name(s["name"])] += own
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Median over the work units in which each metric was recorded."""
        per_unit: dict[str, list[float]] = defaultdict(list)
        for source in (self.self_times(), self.counts):
            for values in source.values():
                for name, v in values.items():
                    per_unit[name].append(v)
        return {name: statistics.median(vs) for name, vs in per_unit.items()}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans,
                                    "counts": self.counts}) + "\n")


class TracedStore:
    """ChunkStore proxy: one span per get, and the ids each get fetched."""

    def __init__(self, store, tracer: Tracer) -> None:
        self._store = store
        self._tr = tracer
        self.fetched: list[int] = []

    def get_chunks(self, spark, chunk_ids):
        self.fetched = [int(c) for c in chunk_ids]
        with self._tr.span("store.get"):
            return self._store.get_chunks(spark, chunk_ids)

    def get_chunk_maps(self, spark, chunk_ids):
        with self._tr.span("store.get_maps"):
            return self._store.get_chunk_maps(spark, chunk_ids)

    def __getattr__(self, name):
        return getattr(self._store, name)


class TracedIndexes:
    """IndexSet proxy: one span per projection lookup."""

    def __init__(self, indexes, tracer: Tracer) -> None:
        self._idx = indexes
        self._tr = tracer

    def chunks_for_version(self, vid):
        with self._tr.span("indexes.lookup"):
            return self._idx.chunks_for_version(vid)

    def chunks_for_key(self, key):
        with self._tr.span("indexes.lookup"):
            return self._idx.chunks_for_key(key)

    def __getattr__(self, name):
        return getattr(self._idx, name)
