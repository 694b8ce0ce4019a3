"""DataGenerator (paper Sec. 4.2.1, Fig. 3).

Queries raw sampler data from the DSOS store for a job, then applies the
preprocessing the paper describes: join the samplers on common timestamps,
linear-interpolate missing values, difference the accumulating counters,
and trim initialisation/termination transients.  Output is one clean
:class:`NodeSeries` per compute node of the job — the input shape of the
feature pipeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.telemetry.frame import NodeSeries
from repro.telemetry.preprocessing import (
    align_common_timestamps,
    difference_counters,
    interpolate_missing,
    trim_edges,
)
from repro.workloads.metrics import MetricCatalog

if TYPE_CHECKING:
    from repro.hist.store import HistStore

__all__ = ["DataGenerator"]


class DataGenerator:
    """Raw DSOS rows -> preprocessed per-node series.

    Parameters
    ----------
    store:
        The telemetry database.
    catalog:
        Metric catalog (defines which metrics are accumulating counters).
    trim_seconds:
        Transient trim at each end of a run (paper: 60 s).
    """

    def __init__(self, store: HistStore, catalog: MetricCatalog, *, trim_seconds: float = 60.0):
        self.store = store
        self.catalog = catalog
        self.trim_seconds = trim_seconds

    def node_series(self, job_id: int, component_id: int) -> NodeSeries:
        """Preprocessed telemetry of one node in one job.

        On heterogeneous fleets a node only reports to the samplers its
        class carries (a CPU node has no ``gpu`` rows), so samplers with no
        data for this node are skipped rather than treated as an error; the
        node's schema is recovered from the store's registry when its final
        column layout matches a registered node class.
        """
        parts = []
        for sampler in self.store.samplers:
            frame = self.store.query(sampler, job_id=job_id, component_id=component_id)
            if frame.n_rows == 0:
                continue
            parts.append(frame.node_series(job_id, component_id))
        if not parts:
            raise LookupError(
                f"no sampler data for job {job_id}, component {component_id}"
            )
        joined = align_common_timestamps(parts)
        # Restore catalog ordering after the per-sampler concatenation,
        # keeping only the columns this node actually reports.
        reported = set(joined.metric_names)
        ordered = [m for m in self.catalog.metric_names if m in reported]
        if not ordered:
            raise LookupError(
                f"job {job_id}, component {component_id}: none of the reported "
                f"columns are in catalog {self.catalog.name!r}"
            )
        joined = joined.select_metrics(ordered)
        clean = interpolate_missing(joined)
        counters = tuple(c for c in self.catalog.counter_names if c in reported)
        clean = difference_counters(clean, counters)
        out = trim_edges(clean, self.trim_seconds)
        schema = self.store.schemas.for_metric_names(out.metric_names)
        if schema is not None:
            out = NodeSeries(
                out.job_id, out.component_id, out.timestamps, out.values,
                out.metric_names, schema=schema,
            )
        return out

    def job_series(self, job_id: int) -> list[NodeSeries]:
        """Preprocessed series for every node that reported data for the job."""
        components = self.store.components(job_id)
        if components.size == 0:
            raise LookupError(f"job {job_id} not found in the store")
        return [self.node_series(job_id, int(c)) for c in components]

    def all_job_ids(self) -> np.ndarray:
        return self.store.jobs()
