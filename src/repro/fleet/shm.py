"""Shared-memory transport segments for process-backed fleet workers.

One :class:`WorkerSegment` per scoring worker carries the entire
coordinator<->worker data plane in a single POSIX shared-memory block:

```
  +--------------------------------------------------------------+
  | status block  int64[16]   heartbeat, scored_seq, counters,   |
  |                           waiting word                       |
  +--------------------------------------------------------------+
  | chunk ring    ctrl int64[2] (head, tail — monotonic seqs)    |
  |               slot 0: header | timestamps[S] | values[S*M]   |
  |               slot 1: ...                                    |
  +--------------------------------------------------------------+
  | verdict ring  ctrl int64[2]                                  |
  |               slot 0..V-1: one VERDICT_DTYPE record each     |
  +--------------------------------------------------------------+
```

Telemetry payloads are written **once** into a chunk slot as raw float64
(timestamps then the row-major ``T x M`` value matrix) and read back as
numpy views — no pickling ever touches a sample.  The reader copies the
views into private arrays before releasing the slot (the slot is reused;
``StreamingDetector`` buffers chunk arrays across calls), so the cost per
chunk is exactly two memcpys, not a serialize/deserialize round trip.

Both rings are single-producer/single-consumer: the coordinator produces
chunks and consumes verdicts, the worker does the reverse.  ``head`` and
``tail`` are monotonic sequence counters (slot index = ``seq % n_slots``)
with exactly one writer each, stored as aligned 8-byte words — CPython
emits one untorn store per assignment, and payload writes precede the
``head`` bump program-order (sufficient on the x86-class hosts this
targets; the parity tests would catch a platform where it is not).

The coordinator *creates* every segment and is the only process that ever
``unlink``s one.  Workers receive the mapped :class:`WorkerSegment` object
through ``fork`` inheritance — no by-name attach, so Python's
``resource_tracker`` never double-registers a segment and a SIGKILL-ed
worker cannot tear a live segment down behind the coordinator's back.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable

import numpy as np

from repro.telemetry.frame import NodeSeries

__all__ = [
    "CHUNK_HEADER_DTYPE",
    "VERDICT_DTYPE",
    "RingSpec",
    "WorkerSegment",
    "ChunkRing",
    "VerdictRing",
]

#: Per-slot chunk metadata, all int64 words (written and read as one
#: ``int64[7]`` view). ``schema_idx`` indexes the control-channel
#: schema table (digest -> metric names), so variable-length names never
#: ride in the ring; ``seq`` is the chunk's transport sequence number —
#: the unit of salvage accounting after a worker death.  ``ctl_seq`` is
#: the count of control-pipe messages the coordinator had sent when it
#: pushed the chunk: the worker must apply at least that many before
#: scoring it, which orders the two channels (a threshold set *before* a
#: push can never be applied *after* the chunk it should govern).
CHUNK_HEADER_DTYPE = np.dtype([
    ("job_id", "<i8"),
    ("component_id", "<i8"),
    ("n_timestamps", "<i8"),
    ("n_metrics", "<i8"),
    ("schema_idx", "<i8"),
    ("seq", "<i8"),
    ("ctl_seq", "<i8"),
])
_HEADER_WORDS = len(CHUNK_HEADER_DTYPE.names)

#: One scored window, returned through the verdict ring.
VERDICT_DTYPE = np.dtype([
    ("job_id", "<i8"),
    ("component_id", "<i8"),
    ("window_end", "<f8"),
    ("anomaly_score", "<f8"),
    ("alert", "<i8"),
    ("streak", "<i8"),
])

_CTRL_WORDS = 2  # head, tail
_I8 = np.dtype("<i8").itemsize

#: Status-block word indices (worker writes, coordinator reads).
STATUS_WORDS = 16
STATUS_HEARTBEAT = 0      # bumped ~every 2 ms by the worker's beat thread
STATUS_SCORED_SEQ = 1     # highest chunk seq whose verdicts are published
STATUS_DRAINED = 2        # chunks popped + scored
STATUS_BATCHES = 3        # ingest_many dispatches
STATUS_VERDICTS = 4       # verdicts published
STATUS_TRACKED = 5        # nodes with buffered worker-side state
STATUS_STOPPED = 6        # worker exited its loop cleanly
STATUS_FAILED = 7         # worker loop raised (crash, not kill)
STATUS_WAITING = 8        # 1 from an empty pop to the next batch: push rings
STATUS_BUSY_US = 9        # microseconds spent popping, scoring, publishing
STATUS_WAKES = 10         # idle waits ended by a doorbell byte


@dataclass(frozen=True)
class RingSpec:
    """Fixed geometry of one worker segment.

    ``slot_samples`` / ``slot_metrics`` bound the largest chunk a slot can
    carry; pushing a bigger chunk is a hard error (the coordinator sizes
    the spec from its workload, it never silently truncates telemetry).
    """

    chunk_slots: int = 64
    slot_samples: int = 256
    slot_metrics: int = 64
    verdict_slots: int = 4096

    def __post_init__(self) -> None:
        for name in ("chunk_slots", "slot_samples", "slot_metrics", "verdict_slots"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def payload_doubles(self) -> int:
        return self.slot_samples * (self.slot_metrics + 1)

    @property
    def chunk_slot_bytes(self) -> int:
        return CHUNK_HEADER_DTYPE.itemsize + self.payload_doubles * 8

    @property
    def status_bytes(self) -> int:
        return STATUS_WORDS * _I8

    @property
    def chunk_ring_bytes(self) -> int:
        return _CTRL_WORDS * _I8 + self.chunk_slots * self.chunk_slot_bytes

    @property
    def verdict_ring_bytes(self) -> int:
        return _CTRL_WORDS * _I8 + self.verdict_slots * VERDICT_DTYPE.itemsize

    @property
    def total_bytes(self) -> int:
        return self.status_bytes + self.chunk_ring_bytes + self.verdict_ring_bytes


class ChunkRing:
    """SPSC ring of telemetry chunks (coordinator -> worker)."""

    def __init__(self, spec: RingSpec, buf: memoryview):
        self.spec = spec
        self._ctrl = np.frombuffer(buf, dtype="<i8", count=_CTRL_WORDS)
        slot_bytes = spec.chunk_slot_bytes
        base = _CTRL_WORDS * _I8
        self._headers = []
        self._timestamps = []
        self._values = []
        for i in range(spec.chunk_slots):
            off = base + i * slot_bytes
            self._headers.append(
                np.frombuffer(buf, dtype="<i8", count=_HEADER_WORDS, offset=off)
            )
            pay = off + CHUNK_HEADER_DTYPE.itemsize
            self._timestamps.append(
                np.frombuffer(buf, dtype="<f8", count=spec.slot_samples, offset=pay)
            )
            self._values.append(
                np.frombuffer(
                    buf, dtype="<f8",
                    count=spec.slot_samples * spec.slot_metrics,
                    offset=pay + spec.slot_samples * 8,
                )
            )

    @property
    def head(self) -> int:
        return int(self._ctrl[0])

    @property
    def tail(self) -> int:
        return int(self._ctrl[1])

    def __len__(self) -> int:
        return self.head - self.tail

    def try_push(
        self,
        chunk: NodeSeries,
        schema_idx: int,
        seq: int,
        ctl_seq: int = 0,
        columns: np.ndarray | None = None,
    ) -> bool:
        """Write one chunk into the next free slot; False when the ring is full.

        With *columns*, only those value columns travel, in that order
        (*schema_idx* then names that layout).
        """
        spec = self.spec
        if chunk.n_timestamps > spec.slot_samples or chunk.n_metrics > spec.slot_metrics:
            raise ValueError(
                f"chunk ({chunk.n_timestamps} samples x {chunk.n_metrics} metrics) "
                f"exceeds the ring slot ({spec.slot_samples} x {spec.slot_metrics}); "
                f"size the transport's RingSpec for the workload"
            )
        head = self.head
        if head - self.tail >= spec.chunk_slots:
            return False
        slot = head % spec.chunk_slots
        values = chunk.values if columns is None else chunk.values[:, columns]
        t, m = values.shape
        self._timestamps[slot][:t] = chunk.timestamps
        self._values[slot][: t * m] = values.reshape(-1)
        # CHUNK_HEADER_DTYPE's fields, in order.
        self._headers[slot][:] = (
            chunk.job_id, chunk.component_id, t, m, schema_idx, seq, ctl_seq
        )
        self._ctrl[0] = head + 1  # publish: payload writes precede this store
        return True

    def pop_many(
        self,
        max_chunks: int,
        resolve_schema: Callable[[int], tuple[tuple[str, ...], object]],
    ) -> list[tuple[int, int, NodeSeries]]:
        """Copy up to *max_chunks* chunks out of the ring, oldest first.

        Returns ``(seq, ctl_seq, series)`` triples.  *resolve_schema* maps
        a slot's ``schema_idx`` to ``(metric_names, schema)`` — registered
        over the control channel before the first chunk carrying that
        index is ever pushed.  Payload views are **copied** before the
        tail advances: the slot is free for reuse the moment the pop is
        visible.  The producer pushed validated series, so the copies are
        not validated again.
        """
        out: list[tuple[int, int, NodeSeries]] = []
        tail = self.tail
        end = min(self.head, tail + max_chunks)
        n_slots = self.spec.chunk_slots
        for pos in range(tail, end):
            slot = pos % n_slots
            job, comp, t, m, schema_idx, seq, ctl_seq = self._headers[slot].tolist()
            names, schema = resolve_schema(schema_idx)
            series = NodeSeries._trusted(
                job,
                comp,
                self._timestamps[slot][:t].copy(),
                self._values[slot][: t * m].reshape(t, m).copy(),
                names,
                schema,
            )
            out.append((seq, ctl_seq, series))
            self._ctrl[1] = pos + 1  # release the slot after the copy
        return out


class VerdictRing:
    """SPSC ring of fixed-size verdict records (worker -> coordinator)."""

    def __init__(self, spec: RingSpec, buf: memoryview):
        self.spec = spec
        self._ctrl = np.frombuffer(buf, dtype="<i8", count=_CTRL_WORDS)
        self._slots = np.frombuffer(
            buf, dtype=VERDICT_DTYPE, count=spec.verdict_slots,
            offset=_CTRL_WORDS * _I8,
        )

    @property
    def head(self) -> int:
        return int(self._ctrl[0])

    @property
    def tail(self) -> int:
        return int(self._ctrl[1])

    def __len__(self) -> int:
        return self.head - self.tail

    def push_many(self, records: np.ndarray) -> int:
        """Write as many of *records* as fit, oldest first; returns how many.

        One vectorised store per contiguous run of slots (at most two),
        then one ``head`` bump publishes them all.
        """
        head = self.head
        slots = self.spec.verdict_slots
        n = min(len(records), slots - (head - self.tail))
        if n <= 0:
            return 0
        start = head % slots
        first = min(n, slots - start)
        self._slots[start : start + first] = records[:first]
        self._slots[: n - first] = records[first:n]
        self._ctrl[0] = head + n
        return n

    def pop_all(self, max_records: int | None = None) -> np.ndarray:
        """Copy every pending verdict record out (oldest first)."""
        tail, head = self.tail, self.head
        n = head - tail
        if max_records is not None:
            n = min(n, max_records)
        if n <= 0:
            return np.empty(0, dtype=VERDICT_DTYPE)
        slots = self.spec.verdict_slots
        idx = np.arange(tail, tail + n) % slots
        out = self._slots[idx].copy()
        self._ctrl[1] = tail + n
        return out


class WorkerSegment:
    """One worker's shared-memory block: status + chunk ring + verdict ring.

    Created (and later unlinked) by the coordinator; the worker process
    inherits the mapped object through ``fork``.
    """

    def __init__(self, spec: RingSpec, shm: shared_memory.SharedMemory):
        self.spec = spec
        self._shm = shm
        self._build_views()

    def _build_views(self) -> None:
        buf = self._shm.buf
        spec = self.spec
        self.status = np.frombuffer(buf, dtype="<i8", count=STATUS_WORDS)
        chunk_off = spec.status_bytes
        self.chunks = ChunkRing(spec, buf[chunk_off : chunk_off + spec.chunk_ring_bytes])
        verdict_off = chunk_off + spec.chunk_ring_bytes
        self.verdicts = VerdictRing(
            spec, buf[verdict_off : verdict_off + spec.verdict_ring_bytes]
        )

    @classmethod
    def create(cls, spec: RingSpec) -> "WorkerSegment":
        shm = shared_memory.SharedMemory(create=True, size=spec.total_bytes)
        # Fresh segments are zero-filled on Linux, but never rely on it.
        np.frombuffer(shm.buf, dtype="<u1")[:] = 0
        return cls(spec, shm)

    @property
    def name(self) -> str:
        return self._shm.name

    def release_views(self) -> None:
        """Drop every numpy view so the mapping can be closed."""
        self.status = None
        self.chunks = None
        self.verdicts = None

    def close(self) -> None:
        """Unmap this process's view (views must be dropped first)."""
        self.release_views()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external view
            pass

    def unlink(self) -> None:
        """Destroy the backing segment (coordinator only, after close)."""
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
