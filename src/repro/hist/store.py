"""HistStore — the columnar, time-partitioned telemetry store.

Its surface is the one the paper's DSOS deployment offers (``ingest``/
``query``/``jobs``/``components``/``samplers``/``register_schema``, i.e.
the :class:`~repro.monitoring.aggregator.TelemetrySink` protocol and the
query surface :class:`~repro.pipeline.datagenerator.DataGenerator`
consumes); its substrate is built for long history:

* ingest copies each frame into the container's in-memory **memtable**,
  one contiguous block (the index columns plus one ``(rows, M)`` values
  array) whose capacity doubles but never past what the next flush
  needs; when it reaches ``flush_rows`` (or on :meth:`flush`), its rows
  are partitioned by ``segment_span``-second time windows and sealed as
  immutable columnar :mod:`segments <repro.hist.segment>`;
* queries prune segments by zone map, scan the survivors in one serial
  loop, filter the memtable block with one mask, and re-establish the
  legacy row order with one ``(job, ingest-seq)`` sort — results are
  **bit-identical** to the legacy in-process store (the parity oracle in
  ``tests/oracles/dsos.py``) on the same ingest stream;
* :meth:`~HistContainer.compact` builds the downsampled retention tiers
  (:mod:`repro.hist.retention`), queryable via ``query(..., tier=...)``.
  Every tier segment records the raw segments it was derived from
  (``raw_sources``), so compaction is incremental: tier segments whose raw
  backing was retained away are the only remaining copy and are preserved,
  everything still backed by raw is rebuilt, and retention only drops a
  raw segment once a tier segment records it as aggregated — history
  degrades in resolution, never to holes.

Persistence is a plain directory tree (``<root>/<sampler>/<tier>/*.seg``
plus a small ``manifest.json`` carrying the schema, meter kinds, and the
sealed ingest high-water mark).  The manifest is written at a
container's first flush, when its meter kinds change, and when retention
drops raw rows — not on every flush, because while raw segments remain
their ``seq`` column holds the high-water mark.  Re-opening a flushed
store picks up every sealed segment — even when retention has emptied
the raw tier — and continues the ingest sequence where it left off.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.hist.meters import GAUGE, METER_KINDS, resolve_meters
from repro.hist.retention import (
    COUNT_COLUMN,
    RetentionPolicy,
    TIER_RAW,
    TIERS,
    downsample,
)
from repro.hist.segment import Segment, write_segment
from repro.runtime.instrumentation import get_instrumentation
from repro.telemetry.frame import TelemetryFrame
from repro.telemetry.schema import MetricSchema, SchemaRegistry
from repro.util.validation import check_ingest_timestamps

__all__ = ["HistContainer", "HistStore", "Schema"]

_SEGMENT_SUFFIX = ".seg"
_MANIFEST = "manifest.json"


@dataclass(frozen=True)
class Schema:
    """Attribute layout of one container (index columns + metric columns)."""

    name: str
    metric_names: tuple[str, ...]

    INDEX_ATTRS = ("job_id", "component_id", "timestamp")

    def __post_init__(self) -> None:
        if not self.metric_names:
            raise ValueError(f"schema {self.name!r} needs at least one metric")
        if len(set(self.metric_names)) != len(self.metric_names):
            raise ValueError(f"schema {self.name!r} has duplicate metrics")


def _empty_frame(metric_names: tuple[str, ...]) -> TelemetryFrame:
    block = _empty_block(len(metric_names), 0)
    return TelemetryFrame(**block, metric_names=metric_names)


def _empty_block(n_metrics: int, capacity: int) -> dict[str, np.ndarray]:
    """Uninitialised memtable columns, keyed like a segment scan's output."""
    return {
        "job_id": np.empty(capacity, np.int64),
        "component_id": np.empty(capacity, np.int64),
        "timestamp": np.empty(capacity),
        "values": np.empty((capacity, n_metrics)),
    }


class HistContainer:
    """One sampler's history: memtable + sealed segments + retention tiers."""

    def __init__(
        self,
        schema: Schema,
        root: Path,
        *,
        segment_span: float,
        flush_rows: int,
        meters: dict[str, str] | None = None,
    ):
        self.schema = schema
        self.root = Path(root)
        self.segment_span = float(segment_span)
        self.flush_rows = int(flush_rows)
        self.meters: dict[str, str] = dict(meters or {})
        #: sealed segments per retention tier, in seal order
        self.segments: dict[str, list[Segment]] = {tier: [] for tier in TIERS}
        #: the memtable: its first ``_memtable_rows`` rows are the unsealed
        #: tail, ingest seqs ``[_next_seq - _memtable_rows, _next_seq)``
        self._block = _empty_block(len(schema.metric_names), 0)
        self._memtable_rows = 0
        self._next_seq = 0
        self._jobs: np.ndarray | None = None
        self._load_existing()

    def _load_existing(self) -> None:
        manifest = self.root / _MANIFEST
        self._has_manifest = manifest.is_file()
        if self._has_manifest:
            # The sealed high-water mark survives retention dropping every
            # raw segment: ingest seq never restarts behind dropped history.
            self._next_seq = int(json.loads(manifest.read_text()).get("next_seq", 0))
        for tier in TIERS:
            tier_dir = self.root / tier
            if not tier_dir.is_dir():
                continue
            for path in sorted(tier_dir.glob(f"*{_SEGMENT_SUFFIX}")):
                seg = Segment(path)
                self.segments[tier].append(seg)
                if tier == TIER_RAW:
                    self._next_seq = max(self._next_seq, seg.seq_max + 1)

    def _write_manifest(self) -> None:
        """Persist the container's identity and sealed high-water mark.

        Written when the identity is first sealed or changes, and when
        retention drops raw rows — not per flush: while raw segments
        remain, reopening recovers the high-water mark from their ``seq``.
        """
        payload = {
            "sampler": self.schema.name,
            "metric_names": list(self.schema.metric_names),
            "meters": {k: self.meters.get(k, GAUGE) for k in self.schema.metric_names},
            "next_seq": self._next_seq - self._memtable_rows,  # sealed rows only
        }
        tmp = self.root / f".{_MANIFEST}.tmp"
        tmp.write_text(json.dumps(payload, separators=(",", ":")))
        os.replace(tmp, self.root / _MANIFEST)
        self._has_manifest = True

    def update_meters(self, meters: dict[str, str]) -> None:
        """Merge resolved meter kinds; a sealed container persists them."""
        self.meters.update(meters)
        if self._has_manifest:
            self._write_manifest()

    # -- ingest ----------------------------------------------------------------

    def append(self, frame: TelemetryFrame) -> int:
        """Ingest one block; returns rows appended (flushes when due)."""
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
        start = self._memtable_rows
        end = start + frame.n_rows
        capacity = self._block["timestamp"].shape[0]
        if end > capacity:
            # Geometric growth, never past what the next flush needs: the
            # block flushes once it holds flush_rows, so at most
            # flush_rows - 1 rows plus this frame.
            grown = _empty_block(
                len(self.schema.metric_names),
                min(max(end, 2 * capacity), self.flush_rows + frame.n_rows),
            )
            for name, col in self._block.items():
                grown[name][:start] = col[:start]
            self._block = grown
        for name, col in self._block.items():
            col[start:end] = getattr(frame, name)
        self._memtable_rows = end
        self._next_seq += frame.n_rows
        self._jobs = None
        if end >= self.flush_rows:
            self.flush()
        return frame.n_rows

    def flush(self) -> list[Segment]:
        """Seal the memtable into time-partitioned segments (may be empty).

        The block is released, not kept for later appends: a container
        holds memory only for the rows it has not sealed.
        """
        n = self._memtable_rows
        if not n:
            return []
        with get_instrumentation().stage("hist_flush", items=n):
            block = {name: col[:n] for name, col in self._block.items()}
            seq = np.arange(self._next_seq - n, self._next_seq, dtype=np.int64)
            self._block = _empty_block(len(self.schema.metric_names), 0)
            self._memtable_rows = 0
            written: list[Segment] = []
            partition = np.floor_divide(block["timestamp"], self.segment_span).astype(np.int64)
            windows = np.unique(partition)
            for window in windows:
                rows = slice(None) if windows.size == 1 else np.flatnonzero(partition == window)
                part = {name: col[rows] for name, col in block.items()}
                part["seq"] = seq[rows]
                path = self.root / TIER_RAW / (
                    f"segment-{int(part['seq'][0]):012d}-w{int(window)}{_SEGMENT_SUFFIX}"
                )
                seg = write_segment(
                    path,
                    sampler=self.schema.name,
                    tier=TIER_RAW,
                    metric_names=self.schema.metric_names,
                    meters=self.meters,
                    **part,
                )
                self.segments[TIER_RAW].append(seg)
                written.append(seg)
            if not self._has_manifest:
                self._write_manifest()
        return written

    # -- stats -----------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._memtable_rows + sum(s.n_rows for s in self.segments[TIER_RAW])

    def jobs(self) -> np.ndarray:
        if self._jobs is None:
            parts = [s.jobs for s in self.segments[TIER_RAW]]
            parts.append(self._block["job_id"][: self._memtable_rows])
            self._jobs = np.unique(np.concatenate(parts))
        return self._jobs

    def stats(self) -> dict:
        """JSON-ready layout snapshot for dashboards and ``dsos stats``."""
        tiers = {}
        for tier, segs in self.segments.items():
            codecs: dict[str, int] = {}
            for seg in segs:
                for codec, n in seg.codec_counts.items():
                    codecs[codec] = codecs.get(codec, 0) + n
            tiers[tier] = {
                "segments": len(segs),
                "rows": sum(s.n_rows for s in segs),
                "bytes": sum(s.nbytes for s in segs),
                "codecs": codecs,
            }
        return {
            "sampler": self.schema.name,
            "columns": len(self.schema.metric_names),
            "memtable_rows": self._memtable_rows,
            "rows": self.n_rows,
            "meters": {k: self.meters.get(k, GAUGE) for k in self.schema.metric_names},
            "tiers": tiers,
        }

    # -- query -----------------------------------------------------------------

    def query(
        self,
        *,
        job_id: int | None = None,
        component_id: int | None = None,
        t0: float | None = None,
        t1: float | None = None,
        tier: str = TIER_RAW,
    ) -> TelemetryFrame:
        """Filtered rows in legacy order — bit-identical to the DSOS oracle.

        The legacy store consolidates ingest-order blocks and stable-sorts
        by job, so its row order is ``(job_id, ingest position)``.  Every
        row here carries its ingest ``seq``; a single ``lexsort`` restores
        exactly that order over segment gathers + the memtable tail.
        """
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}; available: {TIERS}")
        metric_names = (
            self.schema.metric_names
            if tier == TIER_RAW or not self.segments[tier]
            else self.segments[tier][0].metric_names
        )
        filters = dict(job_id=job_id, component_id=component_id, t0=t0, t1=t1)
        candidates = [s for s in self.segments[tier] if s.may_contain(**filters)]
        parts = []
        if candidates:
            with get_instrumentation().stage("hist_scan", items=len(candidates)):
                parts = [s.scan(**filters) for s in candidates]
        if tier == TIER_RAW:
            parts.extend(self._scan_memtable(job_id, component_id, t0, t1))
        parts = [p for p in parts if p["job_id"].size]
        if not parts:
            return _empty_frame(metric_names)
        job = np.concatenate([p["job_id"] for p in parts])
        comp = np.concatenate([p["component_id"] for p in parts])
        ts = np.concatenate([p["timestamp"] for p in parts])
        seq = np.concatenate([p["seq"] for p in parts])
        vals = np.vstack([p["values"] for p in parts])
        order = np.lexsort((seq, job))
        return TelemetryFrame(job[order], comp[order], ts[order], vals[order], metric_names)

    def _scan_memtable(self, job_id, component_id, t0, t1) -> list[dict]:
        n = self._memtable_rows
        block = {name: col[:n] for name, col in self._block.items()}
        mask = np.ones(n, dtype=bool)
        if job_id is not None:
            mask &= block["job_id"] == job_id
        if component_id is not None:
            mask &= block["component_id"] == component_id
        if t0 is not None:
            mask &= block["timestamp"] >= t0
        if t1 is not None:
            mask &= block["timestamp"] <= t1
        rows = np.flatnonzero(mask)
        if not rows.size:
            return []
        part = {name: col[rows] for name, col in block.items()}
        part["seq"] = (self._next_seq - n) + rows.astype(np.int64)
        return [part]

    # -- compaction / retention -------------------------------------------------

    def compact(self) -> dict[str, int]:
        """Incrementally (re)build the downsampled tiers from the tier below.

        The raw tier is flushed first so tiers always cover everything
        ingested.  Each tier segment records the raw segments it aggregates
        (``raw_sources``), which splits the existing tier into two classes:

        * segments whose raw backing is all still present are re-derivable
          — they are deleted and rebuilt (so repeated compaction of the
          same data stays idempotent);
        * segments whose raw backing was dropped by retention are the only
          remaining copy of that history — they are preserved untouched,
          and their sources are excluded from re-aggregation so nothing is
          double-counted.

        Raw data is never touched.
        """
        self.flush()
        counts: dict[str, int] = {}
        with get_instrumentation().stage("hist_compact", items=self.n_rows):
            raw_present = {s.path.name for s in self.segments[TIER_RAW]}
            source_tier = TIER_RAW
            for tier in TIERS[1:]:
                keep: list[Segment] = []
                for seg in self.segments[tier]:
                    # Pre-provenance segments (no raw_sources recorded) are
                    # only rebuilt while raw still exists to rebuild from.
                    rederivable = (
                        set(seg.raw_sources) <= raw_present
                        if seg.raw_sources
                        else bool(raw_present)
                    )
                    if rederivable:
                        seg.path.unlink(missing_ok=True)  # re-derivable below
                    else:
                        keep.append(seg)
                represented = {name for s in keep for name in s.raw_sources}
                if source_tier == TIER_RAW:
                    sources = [
                        s
                        for s in self.segments[source_tier]
                        if s.path.name not in represented
                    ]
                else:
                    sources = [
                        s
                        for s in self.segments[source_tier]
                        if not set(s.raw_sources) <= represented
                    ]
                agg = downsample(
                    sources, tier=tier, source_tier=source_tier, meters=self.meters
                )
                self.segments[tier] = keep
                if agg is not None and agg["job_id"].size:
                    # Tier seq continues past the preserved segments so the
                    # cross-segment "last observation" order of cumulative
                    # meters follows compaction (≈ ingest) order.
                    seq0 = max((s.seq_max for s in keep), default=-1) + 1
                    agg["seq"] = agg["seq"] + seq0
                    provenance = (
                        {s.path.name for s in sources}
                        if source_tier == TIER_RAW
                        else {name for s in sources for name in s.raw_sources}
                    )
                    seg = write_segment(
                        self.root / tier / f"segment-{seq0:012d}{_SEGMENT_SUFFIX}",
                        sampler=self.schema.name,
                        tier=tier,
                        raw_sources=provenance,
                        **agg,
                    )
                    self.segments[tier].append(seg)
                counts[tier] = sum(s.n_rows for s in self.segments[tier])
                source_tier = tier
        return counts

    def apply_retention(self, policy: RetentionPolicy, *, now: float) -> dict[str, int]:
        """Drop whole segments older than each tier's horizon; returns drops.

        Only explicit retention ever removes data — by default every tier
        keeps forever, preserving the bit-parity guarantee with the legacy
        store.  A raw segment is only dropped when a downsampled tier
        records it as aggregated (so dashboards degrade in resolution, not
        to holes); raw ingested after the last :meth:`compact` — including
        backfill inside an already-downsampled window — is always kept.
        """
        dropped: dict[str, int] = {}
        for tier in TIERS:
            horizon = policy.horizon(tier)
            if horizon is None:
                continue
            cutoff = now - horizon
            keep: list[Segment] = []
            for seg in self.segments[tier]:
                if seg.t_max >= cutoff:
                    keep.append(seg)
                    continue
                if tier == TIER_RAW and not self._covered_downsampled(seg):
                    keep.append(seg)
                    continue
                dropped[tier] = dropped.get(tier, 0) + seg.n_rows
                seg.path.unlink(missing_ok=True)
            self.segments[tier] = keep
        if dropped.get(TIER_RAW):
            self._jobs = None
            # The dropped segments may have held the sealed high-water
            # mark that reopening reads from raw seqs: persist it.
            self._write_manifest()
        return dropped

    def _covered_downsampled(self, seg: Segment) -> bool:
        # Exact provenance, not time-span containment: a raw segment is
        # covered only once some tier segment actually aggregated its rows.
        return any(
            seg.path.name in other.raw_sources
            for tier in TIERS[1:]
            for other in self.segments[tier]
        )


class HistStore:
    """The telemetry database: one :class:`HistContainer` per sampler.

    Implements the :class:`~repro.monitoring.aggregator.TelemetrySink`
    protocol and the query surface that aggregators, the
    :class:`~repro.pipeline.datagenerator.DataGenerator` and the
    dashboards read.

    Parameters
    ----------
    root:
        Directory for sealed segments; created on demand.  Opening a root
        with existing segments resumes that store.
    segment_span:
        Seconds of telemetry time per partition (one sealed segment never
        spans two partitions).
    flush_rows:
        Memtable rows per container that trigger an automatic flush.
    meters:
        Per-sampler meter-kind overrides:
        ``{sampler: {column: cumulative|delta|gauge}}``.  Columns described
        by a registered :class:`~repro.telemetry.schema.MetricSchema` are
        typed automatically (counter -> cumulative).
    """

    def __init__(
        self,
        root: str | Path,
        *,
        segment_span: float = 3600.0,
        flush_rows: int = 262_144,
        meters: dict[str, dict[str, str]] | None = None,
    ):
        if segment_span <= 0:
            raise ValueError(f"segment_span must be > 0, got {segment_span}")
        if flush_rows < 1:
            raise ValueError(f"flush_rows must be >= 1, got {flush_rows}")
        self.root = Path(root)
        self.segment_span = float(segment_span)
        self.flush_rows = int(flush_rows)
        self.schemas = SchemaRegistry()
        self._meter_overrides = {k: dict(v) for k, v in (meters or {}).items()}
        self._containers: dict[str, HistContainer] = {}
        if self.root.is_dir():
            for sampler_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
                self._open_existing(sampler_dir)

    def _open_existing(self, sampler_dir: Path) -> None:
        identity = self._existing_identity(sampler_dir)
        if identity is None:
            return
        metric_names, meters = identity
        schema = Schema(sampler_dir.name, metric_names)
        container = HistContainer(
            schema,
            sampler_dir,
            segment_span=self.segment_span,
            flush_rows=self.flush_rows,
            meters=meters,
        )
        self._containers[schema.name] = container

    @staticmethod
    def _existing_identity(
        sampler_dir: Path,
    ) -> tuple[tuple[str, ...], dict[str, str]] | None:
        """(metric_names, meters) of an on-disk container, or None if empty.

        The manifest is authoritative; without one, fall back to the first
        raw segment, and — when retention has emptied the raw tier — to the
        first segment of any downsampled tier, whose base columns (minus
        the ``::min``/``::max`` envelopes and the sample-count column)
        reconstruct the raw schema.  A container therefore never becomes
        unreachable just because its raw history aged out.
        """
        manifest = sampler_dir / _MANIFEST
        if manifest.is_file():
            payload = json.loads(manifest.read_text())
            return tuple(payload["metric_names"]), dict(payload["meters"])
        for tier in TIERS:
            paths = sorted((sampler_dir / tier).glob(f"*{_SEGMENT_SUFFIX}"))
            if not paths:
                continue
            head = Segment(paths[0])
            if tier == TIER_RAW:
                return head.metric_names, head.meters
            base = tuple(
                n
                for n in head.metric_names
                if n != COUNT_COLUMN and not n.endswith(("::min", "::max"))
            )
            return base, {n: head.meters[n] for n in base}
        return None

    # -- ingest side -----------------------------------------------------------

    def register_schema(self, schema: MetricSchema) -> MetricSchema:
        """Declare a node-class schema; drives meter typing for its columns."""
        return self.schemas.register(schema)

    def set_meters(self, sampler: str, meters: dict[str, str]) -> None:
        """Override meter kinds for a sampler's columns.

        Segments sealed earlier keep the kinds they were encoded with;
        compaction and later flushes use the new ones, and a container
        that already has a manifest rewrites it so the kinds survive a
        reopen.
        """
        for kind in meters.values():
            if kind not in METER_KINDS:
                raise ValueError(f"meter kind must be one of {METER_KINDS}, got {kind!r}")
        self._meter_overrides.setdefault(sampler, {}).update(meters)
        container = self._containers.get(sampler)
        if container is not None:
            container.update_meters(
                resolve_meters(
                    container.schema.metric_names,
                    registry=self.schemas,
                    overrides=self._meter_overrides[sampler],
                )
            )

    def create_container(self, schema: Schema) -> HistContainer:
        if schema.name in self._containers:
            raise ValueError(f"container {schema.name!r} already exists")
        container = HistContainer(
            schema,
            self.root / schema.name,
            segment_span=self.segment_span,
            flush_rows=self.flush_rows,
            meters=resolve_meters(
                schema.metric_names,
                registry=self.schemas,
                overrides=self._meter_overrides.get(schema.name),
            ),
        )
        self._containers[schema.name] = container
        return container

    def ingest(self, sampler: str, frame: TelemetryFrame) -> int:
        """Append rows, creating the container on first contact."""
        container = self._containers.get(sampler)
        if container is None:
            container = self.create_container(Schema(sampler, frame.metric_names))
        return container.append(frame)

    def flush(self) -> int:
        """Seal every container's memtable; returns segments written."""
        return sum(len(c.flush()) for c in self._containers.values())

    def compact(self) -> dict[str, dict[str, int]]:
        """Build/refresh downsampled tiers for every container."""
        return {name: c.compact() for name, c in self._containers.items()}

    def apply_retention(
        self, policy: RetentionPolicy, *, now: float
    ) -> dict[str, dict[str, int]]:
        """Enforce per-tier horizons across all containers."""
        out = {}
        for name, container in self._containers.items():
            dropped = container.apply_retention(policy, now=now)
            if dropped:
                out[name] = dropped
        return out

    # -- query side --------------------------------------------------------------

    @property
    def samplers(self) -> tuple[str, ...]:
        return tuple(self._containers)

    def container(self, sampler: str) -> HistContainer:
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
            c.query(job_id=job_id).component_id for c in self._containers.values()
        ]
        comps = [c for c in comps if c.size]
        if not comps:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(comps))

    @property
    def n_rows(self) -> int:
        return sum(c.n_rows for c in self._containers.values())

    def stats(self) -> dict:
        """JSON-ready store snapshot for dashboards and the ``dsos`` CLI."""
        return {
            "root": str(self.root),
            "segment_span": self.segment_span,
            "flush_rows": self.flush_rows,
            "n_rows": self.n_rows,
            "samplers": {name: c.stats() for name, c in self._containers.items()},
        }
