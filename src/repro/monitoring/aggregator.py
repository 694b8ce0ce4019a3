"""Monitoring aggregation: node samplers -> monitoring-cluster store.

Mirrors the Eclipse deployment (Sec. 5.1): ``ldmsd`` samplers on every
compute node publish metric sets each second; the aggregation hop to the
monitoring cluster (Shirley) is where collection faults occur; the
aggregated stream is ingested into the DSOS database.

:class:`Aggregator` performs that hop in simulation — per-sampler fault
injection, then ingestion of long-format rows into any store exposing an
``ingest(sampler, frame)`` method (see :mod:`repro.hist`).
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.monitoring.faults import FaultModel
from repro.monitoring.sampler import SamplerDaemon
from repro.telemetry.frame import TelemetryFrame
from repro.util.rng import derive_seed, ensure_rng
from repro.workloads.cluster import JobResult
from repro.workloads.metrics import MetricCatalog

__all__ = ["TelemetrySink", "Aggregator"]


class TelemetrySink(Protocol):
    """Destination for aggregated telemetry (implemented by HistStore)."""

    def ingest(self, sampler: str, frame: TelemetryFrame) -> int: ...


class Aggregator:
    """Collects sampler sets from all nodes of executed jobs into a sink.

    Parameters
    ----------
    catalog:
        Metric catalog shared with the job runner.
    sink:
        Ingestion target (e.g. :class:`repro.hist.HistStore`).
    faults:
        Collection fault model; defaults to light, realistic loss rates.
    seed:
        Seed for the fault processes.
    """

    def __init__(
        self,
        catalog: MetricCatalog,
        sink: TelemetrySink,
        *,
        faults: FaultModel | None = None,
        seed=None,
    ):
        self.catalog = catalog
        self.sink = sink
        self.faults = faults if faults is not None else FaultModel()
        self.daemon = SamplerDaemon(catalog)
        self._rng = ensure_rng(seed)

    def collect_job(self, result: JobResult) -> int:
        """Aggregate one job's telemetry; returns rows ingested."""
        total = 0
        for comp in result.component_ids:
            node_series = result.frame.node_series(result.spec.job_id, comp)
            for sampler_set in self.daemon.sample(node_series):
                degraded = self.faults.apply(sampler_set.series, derive_seed(self._rng))
                frame = TelemetryFrame.from_node_series([degraded])
                total += self.sink.ingest(sampler_set.sampler, frame)
        return total

    def collect_campaign(self, results: Sequence[JobResult]) -> int:
        """Aggregate a whole data-collection campaign."""
        return sum(self.collect_job(r) for r in results)
