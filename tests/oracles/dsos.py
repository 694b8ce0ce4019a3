"""Legacy in-process DSOS store — the parity oracle for :mod:`repro.hist`.

The production deployment stores aggregated LDMS data in DSOS (Distributed
Scalable Object Storage): schema'd containers optimised for continuous
ingest and indexed queries by job, component, and time.  This module
reproduces that interface in-process, and is kept as the oracle that
:class:`~repro.hist.HistStore` must match bit for bit:

* one :class:`Container` per sampler schema (``meminfo``, ``vmstat``, ...),
* append-only block ingest (cheap during collection),
* consolidated, index-backed queries (built lazily, invalidated on ingest),
* the query API the paper's DataGenerator uses: *give me all sampler data
  for job J* (optionally per component / time window).
"""

from __future__ import annotations

import numpy as np

from repro.hist import Schema
from repro.telemetry.frame import TelemetryFrame
from repro.telemetry.schema import MetricSchema, SchemaRegistry
from repro.util.validation import check_ingest_timestamps

__all__ = ["Container", "DsosStore"]


class Container:
    """Append-oriented storage of long-format rows for one schema."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self._blocks: list[TelemetryFrame] = []
        self._consolidated: TelemetryFrame | None = None
        self._job_index: dict[int, np.ndarray] | None = None
        self._jobs: np.ndarray | None = None

    # -- ingest --------------------------------------------------------------

    def append(self, frame: TelemetryFrame) -> int:
        """Ingest a block of rows; returns the number of rows appended."""
        if frame.metric_names != self.schema.metric_names:
            got, want = frame.metric_names, self.schema.metric_names
            mismatch = f"frame has {len(got)} columns, schema has {len(want)}"
            for i, (g, w) in enumerate(zip(got, want)):
                if g != w:
                    mismatch = f"first mismatch at column {i}: frame {g!r} vs schema {w!r}"
                    break
            raise ValueError(
                f"sampler {self.schema.name!r}: frame columns do not match "
                f"the container schema ({mismatch})"
            )
        if frame.n_rows == 0:
            return 0
        check_ingest_timestamps(frame.timestamp, sampler=self.schema.name)
        self._blocks.append(frame)
        self._consolidated = None
        self._job_index = None
        self._jobs = None
        return frame.n_rows

    # -- stats ----------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return sum(b.n_rows for b in self._blocks)

    def jobs(self) -> np.ndarray:
        """Sorted unique job ids, cached until the next ingest."""
        if self._jobs is None:
            if not self._blocks:
                self._jobs = np.empty(0, dtype=np.int64)
            else:
                self._jobs = np.unique(np.concatenate([b.jobs() for b in self._blocks]))
        return self._jobs

    # -- query -----------------------------------------------------------------

    def _consolidate(self) -> TelemetryFrame:
        if self._consolidated is None:
            if not self._blocks:
                # An empty container is a valid (if boring) query target:
                # every filter selects zero of its zero rows.
                self._consolidated = TelemetryFrame(
                    np.empty(0, np.int64),
                    np.empty(0, np.int64),
                    np.empty(0),
                    np.empty((0, len(self.schema.metric_names))),
                    self.schema.metric_names,
                )
                self._job_index = {}
                self._jobs = self._consolidated.jobs()
                return self._consolidated
            self._consolidated = (
                self._blocks[0]
                if len(self._blocks) == 1
                else TelemetryFrame.concat(self._blocks)
            )
            order = np.argsort(self._consolidated.job_id, kind="stable")
            c = self._consolidated
            self._consolidated = TelemetryFrame(
                c.job_id[order], c.component_id[order], c.timestamp[order], c.values[order], c.metric_names
            )
            # Row ranges per job over the job-sorted layout; the unique jobs
            # come out as a byproduct, so cache them alongside the index.
            jobs, starts = np.unique(self._consolidated.job_id, return_index=True)
            bounds = np.append(starts, self._consolidated.n_rows)
            self._job_index = {
                int(j): np.arange(bounds[i], bounds[i + 1]) for i, j in enumerate(jobs)
            }
            self._jobs = jobs
        return self._consolidated

    def query(
        self,
        *,
        job_id: int | None = None,
        component_id: int | None = None,
        t0: float | None = None,
        t1: float | None = None,
    ) -> TelemetryFrame:
        """Indexed row selection; any filter may be omitted."""
        frame = self._consolidate()
        if job_id is not None:
            assert self._job_index is not None
            rows = self._job_index.get(int(job_id))
            if rows is None:
                return TelemetryFrame(
                    np.empty(0, np.int64),
                    np.empty(0, np.int64),
                    np.empty(0),
                    np.empty((0, len(frame.metric_names))),
                    frame.metric_names,
                )
            frame = TelemetryFrame(
                frame.job_id[rows],
                frame.component_id[rows],
                frame.timestamp[rows],
                frame.values[rows],
                frame.metric_names,
            )
        mask = np.ones(frame.n_rows, dtype=bool)
        if component_id is not None:
            mask &= frame.component_id == component_id
        if t0 is not None:
            mask &= frame.timestamp >= t0
        if t1 is not None:
            mask &= frame.timestamp <= t1
        if mask.all():
            return frame
        return TelemetryFrame(
            frame.job_id[mask],
            frame.component_id[mask],
            frame.timestamp[mask],
            frame.values[mask],
            frame.metric_names,
        )


class DsosStore:
    """The monitoring cluster's database: one container per sampler.

    Implements the :class:`~repro.monitoring.aggregator.TelemetrySink`
    protocol so an :class:`~repro.monitoring.aggregator.Aggregator` can
    ingest directly.
    """

    def __init__(self) -> None:
        self._containers: dict[str, Container] = {}
        #: node-class metric schemas registered by the ingest layer; lets
        #: the DataGenerator recover which class a node's columns belong to
        #: on heterogeneous fleets.
        self.schemas = SchemaRegistry()

    # -- ingest side -----------------------------------------------------------

    def register_schema(self, schema: MetricSchema) -> MetricSchema:
        """Declare a node-class schema (e.g. a catalog's) for this store."""
        return self.schemas.register(schema)

    def create_container(self, schema: Schema) -> Container:
        if schema.name in self._containers:
            raise ValueError(f"container {schema.name!r} already exists")
        container = Container(schema)
        self._containers[schema.name] = container
        return container

    def ingest(self, sampler: str, frame: TelemetryFrame) -> int:
        """Append rows, creating the container on first contact."""
        container = self._containers.get(sampler)
        if container is None:
            container = self.create_container(Schema(sampler, frame.metric_names))
        return container.append(frame)

    # -- query side --------------------------------------------------------------

    @property
    def samplers(self) -> tuple[str, ...]:
        return tuple(self._containers)

    def container(self, sampler: str) -> Container:
        try:
            return self._containers[sampler]
        except KeyError:
            raise KeyError(
                f"no container {sampler!r}; available: {sorted(self._containers)}"
            ) from None

    def query(self, sampler: str, **filters) -> TelemetryFrame:
        return self.container(sampler).query(**filters)

    def jobs(self) -> np.ndarray:
        """All job ids across containers."""
        if not self._containers:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate([c.jobs() for c in self._containers.values()]))

    def components(self, job_id: int) -> np.ndarray:
        """All component ids that reported data for *job_id*."""
        comps = [
            c.query(job_id=job_id).component_id
            for c in self._containers.values()
        ]
        comps = [c for c in comps if c.size]
        if not comps:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(comps))

    @property
    def n_rows(self) -> int:
        return sum(c.n_rows for c in self._containers.values())
