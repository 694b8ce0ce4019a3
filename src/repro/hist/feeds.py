"""Historical-store feeds for drift, retraining, and dashboards.

The store answers raw row queries; these adapters shape them for the three
consumers the ROADMAP names:

* **drift** — :func:`metric_reference` pulls one metric's historical
  window as the reference sample a
  :class:`~repro.lifecycle.drift.DriftMonitor`-style comparison (KS / PSI)
  runs against;
* **retraining** — :func:`harvest_healthy_windows` rebuilds preprocessed
  per-node :class:`~repro.telemetry.frame.NodeSeries` from a historical
  time window, ready for a
  :class:`~repro.lifecycle.retraining.HealthySampleBuffer`.  It reuses the
  :class:`~repro.pipeline.datagenerator.DataGenerator` unchanged, over a
  :class:`WindowedStoreView` that pins the time bounds;
* **dashboards** — :func:`dashboard_rollup` summarises a window per
  sampler/metric from a downsampled tier, count-weighted so bucket means
  aggregate honestly.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.hist.retention import COUNT_COLUMN, TIER_RAW, TIERS
from repro.hist.store import HistStore
from repro.telemetry.frame import NodeSeries
from repro.workloads.metrics import MetricCatalog

__all__ = [
    "WindowedStoreView",
    "metric_reference",
    "harvest_healthy_windows",
    "dashboard_rollup",
]


class WindowedStoreView:
    """A store restricted to ``[t0, t1]`` — the DataGenerator sees only the window.

    Caller-supplied bounds on forwarded queries narrow further (the
    intersection); they can never widen the view.
    """

    def __init__(self, store: HistStore, *, t0: float | None = None, t1: float | None = None):
        self.store = store
        self.t0 = t0
        self.t1 = t1

    @property
    def samplers(self) -> tuple[str, ...]:
        return self.store.samplers

    @property
    def schemas(self):
        return self.store.schemas

    def query(self, sampler: str, *, t0: float | None = None, t1: float | None = None, **filters):
        lo = self.t0 if t0 is None else (t0 if self.t0 is None else max(t0, self.t0))
        hi = self.t1 if t1 is None else (t1 if self.t1 is None else min(t1, self.t1))
        return self.store.query(sampler, t0=lo, t1=hi, **filters)

    def jobs(self) -> np.ndarray:
        parts = [self.query(s).job_id for s in self.samplers]
        parts = [p for p in parts if p.size]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    def components(self, job_id: int) -> np.ndarray:
        parts = [self.query(s, job_id=job_id).component_id for s in self.samplers]
        parts = [p for p in parts if p.size]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))


def metric_reference(
    store: HistStore,
    sampler: str,
    metric: str,
    *,
    job_id: int | None = None,
    t0: float | None = None,
    t1: float | None = None,
    tier: str = TIER_RAW,
) -> np.ndarray:
    """One metric's values over a historical window (drift reference sample).

    Values come back in the store's canonical ``(job, ingest)`` order;
    distribution statistics (KS, PSI) are order-free, so the shape of the
    return is all a drift monitor needs.
    """
    frame = store.query(sampler, job_id=job_id, t0=t0, t1=t1, tier=tier)
    if metric not in frame.metric_names:
        raise KeyError(
            f"sampler {sampler!r} has no metric {metric!r} in tier {tier!r}; "
            f"available: {list(frame.metric_names)}"
        )
    return frame.column(metric)


def harvest_healthy_windows(
    store: HistStore,
    catalog: MetricCatalog,
    *,
    t0: float | None = None,
    t1: float | None = None,
    exclude: Iterable[tuple[int, int]] = (),
    limit: int | None = None,
    trim_seconds: float = 0.0,
) -> list[NodeSeries]:
    """Preprocessed node windows from history, for a retraining buffer.

    *exclude* lists ``(job_id, component_id)`` pairs that alerted during
    the window (a healthy buffer must not learn from them); *limit* caps
    the harvest.  Node runs whose window slice is too short to preprocess
    are skipped, not fatal — harvest is best-effort by design.
    """
    from repro.pipeline.datagenerator import DataGenerator

    view = WindowedStoreView(store, t0=t0, t1=t1)
    generator = DataGenerator(view, catalog, trim_seconds=trim_seconds)
    excluded = set(exclude)
    out: list[NodeSeries] = []
    for job in view.jobs():
        for comp in view.components(int(job)):
            if (int(job), int(comp)) in excluded:
                continue
            try:
                out.append(generator.node_series(int(job), int(comp)))
            except (LookupError, ValueError):
                continue
            if limit is not None and len(out) >= limit:
                return out
    return out


def dashboard_rollup(
    store: HistStore,
    *,
    tier: str = "1min",
    t0: float | None = None,
    t1: float | None = None,
) -> dict:
    """Per-sampler/metric window summary from a downsampled tier.

    Gauge means are weighted by each bucket's raw-row count; min/max come
    from the envelope columns; cumulative/delta columns report their last
    and sum respectively.  Falls back to the raw tier (unweighted) when the
    requested tier has not been compacted yet — callers always get an
    answer, just a costlier one.
    """
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}; available: {TIERS}")
    rollup: dict = {"tier": tier, "window": [t0, t1], "samplers": {}}
    for sampler in store.samplers:
        container = store.container(sampler)
        effective = tier if (tier == TIER_RAW or container.segments[tier]) else TIER_RAW
        frame = store.query(sampler, t0=t0, t1=t1, tier=effective)
        entry: dict = {"tier": effective, "rows": frame.n_rows, "metrics": {}}
        if frame.n_rows:
            names = frame.metric_names
            counts = (
                frame.column(COUNT_COLUMN)
                if COUNT_COLUMN in names
                else np.ones(frame.n_rows)
            )
            total = float(counts.sum())
            for name in names:
                if name == COUNT_COLUMN or name.endswith(("::min", "::max")):
                    continue
                col = frame.column(name)
                kind = container.meters.get(name, "gauge")
                if effective != TIER_RAW and kind == "gauge":
                    stats = {
                        "mean": float((col * counts).sum() / total),
                        "min": float(frame.column(f"{name}::min").min()),
                        "max": float(frame.column(f"{name}::max").max()),
                    }
                else:
                    stats = {
                        "mean": float(col.mean()),
                        "min": float(col.min()),
                        "max": float(col.max()),
                    }
                entry["metrics"][name] = {"kind": kind, **stats}
            entry["samples"] = total
        rollup["samplers"][sampler] = entry
    return rollup
