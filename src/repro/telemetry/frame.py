"""Columnar telemetry containers.

LDMS-style telemetry is long-format: one row per (job, node, second) carrying
all sampled metrics.  :class:`TelemetryFrame` stores that table as contiguous
NumPy arrays (a lightweight stand-in for the pandas DataFrames the paper's
DataGenerator produces, with the same three index columns ``job_id``,
``component_id``, ``timestamp``).  :class:`NodeSeries` is the per-node slice —
the ``Time x M metrics`` matrix the paper's feature extractor consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.util.validation import check_array

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.telemetry.schema import MetricSchema

__all__ = ["TelemetryFrame", "NodeSeries", "resample_uniform"]


def resample_uniform(
    timestamps: np.ndarray, values: np.ndarray, n_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(grid, values)``: *values* linearly interpolated onto *n_points*
    uniform samples spanning *timestamps* (:meth:`NodeSeries.resample`).

    All columns interpolate in one shot instead of one ``np.interp`` call
    per column.  The arithmetic mirrors ``np.interp`` exactly — same
    interval search, same slope formula, exact-hit and right-endpoint
    short circuits — so results stay bit-identical to the loop, and a
    column's result does not depend on which other columns come along.
    """
    if n_points < 2:
        raise ValueError(f"n_points must be >= 2, got {n_points}")
    if timestamps.size < 2:
        raise ValueError("cannot resample a series with fewer than 2 samples")
    ts = timestamps
    grid = np.linspace(ts[0], ts[-1], n_points)
    idx = np.searchsorted(ts, grid, side="right") - 1
    idx = np.clip(idx, 0, ts.size - 2)
    x_lo = ts[idx]
    y_lo = values[idx]
    with np.errstate(invalid="ignore", divide="ignore"):
        slope = (values[idx + 1] - y_lo) / (ts[idx + 1] - x_lo)[:, None]
        out = slope * (grid - x_lo)[:, None] + y_lo
    out = np.where((grid == x_lo)[:, None], y_lo, out)
    out[-1] = values[-1]
    return grid, out


@dataclass(frozen=True)
class NodeSeries:
    """Telemetry of one compute node during one application run.

    Attributes
    ----------
    job_id, component_id:
        Identify the run and the node within it.
    timestamps:
        ``(T,)`` seconds, strictly increasing.
    values:
        ``(T, M)`` metric matrix; column ``j`` is ``metric_names[j]``.
    metric_names:
        Names in ``<metric>::<sampler>`` form (e.g. ``MemFree::meminfo``),
        per-card sub-entities flattened as ``<metric>::<sampler>::card0``.
    schema:
        Optional :class:`~repro.telemetry.schema.MetricSchema` reference
        describing the columns; heterogeneous-fleet code groups series by
        its digest.  Column-preserving transforms propagate it.
    """

    job_id: int
    component_id: int
    timestamps: np.ndarray
    values: np.ndarray
    metric_names: tuple[str, ...]
    schema: "MetricSchema | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=np.float64)
        vals = np.asarray(self.values, dtype=np.float64)
        if ts.ndim != 1:
            raise ValueError(f"timestamps must be 1-D, got shape {ts.shape}")
        if vals.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {vals.shape}")
        if vals.shape[0] != ts.shape[0]:
            raise ValueError(
                f"values has {vals.shape[0]} rows but there are {ts.shape[0]} timestamps"
            )
        if vals.shape[1] != len(self.metric_names):
            raise ValueError(
                f"values has {vals.shape[1]} columns but {len(self.metric_names)} metric names"
            )
        if ts.size > 1 and np.any(np.diff(ts) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "metric_names", tuple(self.metric_names))
        if self.schema is not None and self.schema.flat_metric_names != self.metric_names:
            raise ValueError(
                f"schema {self.schema.name!r} describes "
                f"{len(self.schema.flat_metric_names)} columns that do not match "
                f"the series metric names"
            )

    @classmethod
    def _trusted(
        cls,
        job_id: int,
        component_id: int,
        timestamps: np.ndarray,
        values: np.ndarray,
        metric_names: tuple[str, ...],
        schema: "MetricSchema | None" = None,
    ) -> NodeSeries:
        """A series built from arrays that already passed ``__post_init__``.

        For the streaming hot path only: chunks copied out of a transport
        ring (the producer pushed validated series) and windows
        snapshotted from a node ring (filled from validated chunks, in
        time order).  The caller guarantees float64 arrays of matching
        shapes, strictly increasing timestamps, a name tuple and a
        matching schema; nothing is re-checked.  Every public construction
        keeps all of its checks.
        """
        series = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(series, "job_id", job_id)
        setattr_(series, "component_id", component_id)
        setattr_(series, "timestamps", timestamps)
        setattr_(series, "values", values)
        setattr_(series, "metric_names", metric_names)
        setattr_(series, "schema", schema)
        return series

    # -- introspection ------------------------------------------------------

    @property
    def n_timestamps(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def n_metrics(self) -> int:
        return int(self.values.shape[1])

    @property
    def duration(self) -> float:
        """Wall-clock span of the series in seconds (0 for single samples)."""
        if self.n_timestamps < 2:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    def metric_index(self, name: str) -> int:
        try:
            return self.metric_names.index(name)
        except ValueError:
            raise KeyError(f"unknown metric {name!r}") from None

    def metric(self, name: str) -> np.ndarray:
        """Return the ``(T,)`` series of one metric."""
        return self.values[:, self.metric_index(name)]

    @property
    def schema_digest(self) -> str:
        """Grouping key for schema-partitioned extraction.

        The schema's digest when one is attached, else the digest of the
        flat column names — identical by construction for series produced
        from that schema.
        """
        from repro.telemetry.schema import names_digest

        if self.schema is not None:
            return self.schema.digest
        return names_digest(self.metric_names)

    # -- transformations ----------------------------------------------------

    def with_values(self, values: np.ndarray) -> NodeSeries:
        """Return a copy carrying *values* (same shape contract)."""
        return NodeSeries(
            self.job_id, self.component_id, self.timestamps, values,
            self.metric_names, schema=self.schema,
        )

    def trim(self, seconds: float) -> NodeSeries:
        """Drop the first and last *seconds* of the run.

        The paper removes 60 s from each end to discard initialisation and
        termination transients (Sec. 5.4.1).  If the run is too short to trim,
        the series is returned unchanged.
        """
        if seconds <= 0 or self.n_timestamps == 0:
            return self
        t0, t1 = self.timestamps[0] + seconds, self.timestamps[-1] - seconds
        mask = (self.timestamps >= t0) & (self.timestamps <= t1)
        if not np.any(mask):
            return self
        return NodeSeries(
            self.job_id, self.component_id, self.timestamps[mask], self.values[mask],
            self.metric_names, schema=self.schema,
        )

    def resample(self, n_points: int) -> NodeSeries:
        """Linearly interpolate onto a uniform grid of *n_points* samples.

        Fixed-length series let the feature extractor batch all samples of a
        dataset into one ``(N, T)`` array per metric — the vectorisation that
        keeps extraction tractable without compiled code.
        """
        grid, out = resample_uniform(self.timestamps, self.values, n_points)
        return NodeSeries(
            self.job_id, self.component_id, grid, out, self.metric_names, schema=self.schema
        )

    def select_metrics(self, names: Sequence[str]) -> NodeSeries:
        idx = [self.metric_index(n) for n in names]
        return NodeSeries(
            self.job_id, self.component_id, self.timestamps, self.values[:, idx], tuple(names)
        )


class TelemetryFrame:
    """Long-format telemetry table with (job_id, component_id, timestamp) index.

    Rows need not be sorted; per-node extraction sorts on demand.  All metric
    columns share a single ``(N, M)`` float64 block for cache-friendly access.
    """

    def __init__(
        self,
        job_id: np.ndarray,
        component_id: np.ndarray,
        timestamp: np.ndarray,
        values: np.ndarray,
        metric_names: Sequence[str],
    ):
        self.job_id = np.asarray(job_id, dtype=np.int64)
        self.component_id = np.asarray(component_id, dtype=np.int64)
        self.timestamp = np.asarray(timestamp, dtype=np.float64)
        self.values = check_array(values, name="values", ndim=2, allow_empty=True, finite=False)
        self.metric_names = tuple(metric_names)
        n = self.job_id.shape[0]
        if not (self.component_id.shape[0] == self.timestamp.shape[0] == self.values.shape[0] == n):
            raise ValueError("index columns and values must have equal length")
        if self.values.shape[1] != len(self.metric_names):
            raise ValueError(
                f"values has {self.values.shape[1]} columns but "
                f"{len(self.metric_names)} metric names"
            )
        if len(set(self.metric_names)) != len(self.metric_names):
            raise ValueError("metric names must be unique")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_node_series(cls, series: Iterable[NodeSeries]) -> TelemetryFrame:
        """Stack per-node series into one long-format frame."""
        series = list(series)
        if not series:
            raise ValueError("need at least one NodeSeries")
        names = series[0].metric_names
        for s in series[1:]:
            if s.metric_names != names:
                raise ValueError("all NodeSeries must share the same metric names")
        job = np.concatenate([np.full(s.n_timestamps, s.job_id, dtype=np.int64) for s in series])
        comp = np.concatenate(
            [np.full(s.n_timestamps, s.component_id, dtype=np.int64) for s in series]
        )
        ts = np.concatenate([s.timestamps for s in series])
        vals = np.vstack([s.values for s in series])
        return cls(job, comp, ts, vals, names)

    @classmethod
    def concat(cls, frames: Sequence["TelemetryFrame"]) -> TelemetryFrame:
        if not frames:
            raise ValueError("need at least one frame")
        names = frames[0].metric_names
        for f in frames[1:]:
            if f.metric_names != names:
                raise ValueError("all frames must share the same metric names")
        return cls(
            np.concatenate([f.job_id for f in frames]),
            np.concatenate([f.component_id for f in frames]),
            np.concatenate([f.timestamp for f in frames]),
            np.vstack([f.values for f in frames]),
            names,
        )

    # -- introspection ------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return int(self.job_id.shape[0])

    @property
    def n_metrics(self) -> int:
        return len(self.metric_names)

    def jobs(self) -> np.ndarray:
        """Sorted unique job ids present in the frame."""
        return np.unique(self.job_id)

    def components(self, job_id: int) -> np.ndarray:
        """Sorted unique component (node) ids participating in *job_id*."""
        return np.unique(self.component_id[self.job_id == job_id])

    def metric_index(self, name: str) -> int:
        try:
            return self.metric_names.index(name)
        except ValueError:
            raise KeyError(f"unknown metric {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.metric_index(name)]

    # -- slicing ------------------------------------------------------------

    def select(self, *, job_id: int | None = None, component_id: int | None = None) -> TelemetryFrame:
        """Filter rows by job and/or component id."""
        mask = np.ones(self.n_rows, dtype=bool)
        if job_id is not None:
            mask &= self.job_id == job_id
        if component_id is not None:
            mask &= self.component_id == component_id
        return TelemetryFrame(
            self.job_id[mask],
            self.component_id[mask],
            self.timestamp[mask],
            self.values[mask],
            self.metric_names,
        )

    def node_series(self, job_id: int, component_id: int) -> NodeSeries:
        """Extract the sorted ``Time x M`` series of one node in one job."""
        mask = (self.job_id == job_id) & (self.component_id == component_id)
        if not np.any(mask):
            raise KeyError(f"no rows for job_id={job_id}, component_id={component_id}")
        ts = self.timestamp[mask]
        vals = self.values[mask]
        order = np.argsort(ts, kind="stable")
        ts, vals = ts[order], vals[order]
        # LDMS aggregation can duplicate a sampling instant; keep the first.
        keep = np.concatenate(([True], np.diff(ts) > 0))
        return NodeSeries(job_id, component_id, ts[keep], vals[keep], self.metric_names)

    def iter_node_series(self) -> Iterator[NodeSeries]:
        """Yield one :class:`NodeSeries` per (job, node) pair, sorted by ids."""
        for job in self.jobs():
            for comp in self.components(int(job)):
                yield self.node_series(int(job), int(comp))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TelemetryFrame(rows={self.n_rows}, metrics={self.n_metrics}, "
            f"jobs={len(self.jobs())})"
        )
