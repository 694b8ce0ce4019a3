"""Spans recorded from the benchmark's side of each layer boundary.

Nothing under ``src/`` is patched: the traced run hands thin wrappers to the
program's constructors (a store for the ``DataGenerator``, a pipeline and a
detector for the services and the inline fleet) and wraps its own calls into
the coordinator and the gateway.  Each span's self time is its duration
minus the time covered by the spans opened inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

_NULL = nullcontext()


class Tracer:
    """In-memory span aggregator; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self._open: list[list] = []  # [name, start, covered-by-children]
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def reset(self) -> None:
        """Forget everything recorded so far (set-up spans, for one)."""
        self.__init__(self.enabled)

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextmanager
    def _span(self, name: str):
        frame = [name, time.perf_counter(), 0.0]
        self._open.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[1]
            self._open.pop()
            self.durations[name].append(duration)
            self.self_durations[name].append(duration - frame[2])
            if self._open:
                self._open[-1][2] += duration

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        if self.enabled:
            self.samples[name].append(value)

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def self_seconds(self, *names: str) -> float:
        return sum(sum(self.self_durations.get(n, ())) for n in names)


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class _Proxy:
    """Delegates every attribute it does not define to the wrapped object."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedStore(_Proxy):
    """``HistStore`` seen by the ``DataGenerator`` and the benchmark loop."""

    def ingest(self, sampler, frame):
        with self._tracer.span("hist.ingest"):
            rows = self._inner.ingest(sampler, frame)
        self._tracer.count("hist.rows", rows)
        return rows

    def query(self, sampler, **filters):
        memtable = self._inner.container(sampler).stats()["memtable_rows"]
        self._tracer.sample("hist.memtable_rows_at_query", memtable)
        self._tracer.count("hist.container_queries")
        with self._tracer.span("hist.query"):
            return self._inner.query(sampler, **filters)

    def components(self, job_id):
        self._tracer.count("hist.container_queries", len(self._inner.samplers))
        with self._tracer.span("hist.query"):
            return self._inner.components(job_id)


class TracedDataGenerator(_Proxy):
    def job_series(self, job_id):
        with self._tracer.span("pipeline.job_series"):
            return self._inner.job_series(job_id)


class TracedPipeline(_Proxy):
    """Batch-feature path of the services (the fleet keeps the real one)."""

    def transform_series(self, series):
        self._tracer.count("features.series", len(series))
        with self._tracer.span("features.extract"):
            return self._inner.transform_series(series)


class TracedDetector(_Proxy):
    """Detector calls of one consumer, recorded under *name*."""

    def __init__(self, inner, tracer: Tracer, name: str):
        super().__init__(inner, tracer)
        self._name = name

    def anomaly_score(self, features):
        self._tracer.count(self._name + ".rows", len(features))
        with self._tracer.span(self._name):
            return self._inner.anomaly_score(features)

    def predict(self, features):
        with self._tracer.span(self._name):
            return self._inner.predict(features)


def stage_seconds(before: dict, after: dict, name: str) -> float:
    """Seconds a registry stage gained between two snapshots."""
    return (
        after["stages"].get(name, {}).get("seconds", 0.0)
        - before["stages"].get(name, {}).get("seconds", 0.0)
    )


def counter_delta(before: dict, after: dict, name: str) -> int:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)
