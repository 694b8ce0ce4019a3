"""Historical-store feed for the dashboards.

:func:`dashboard_rollup` summarises a window per sampler/metric from a
downsampled tier, count-weighted so bucket means aggregate honestly.  The
history dashboard and ``dsos stats`` render it.
"""

from __future__ import annotations

import numpy as np

from repro.hist.retention import COUNT_COLUMN, TIER_RAW, TIERS
from repro.hist.store import HistStore

__all__ = ["dashboard_rollup"]


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
