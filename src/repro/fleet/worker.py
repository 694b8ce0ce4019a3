"""Scoring workers: per-shard streaming detectors behind bounded queues.

A :class:`ScoringWorker` owns one :class:`~repro.monitoring.streaming.
StreamingDetector` and a bounded FIFO ingest queue.  The coordinator
routes each node's chunks to its shard owner; the worker drains its queue
in micro-batches through ``ingest_many`` (one engine dispatch per batch).

Overload is handled by **drop-oldest load shedding**: when a chunk
arrives at a full queue, the oldest queued chunk is discarded and counted
(``shed_chunks`` / ``shed_samples``) — never silently.  Dropping the
oldest pending chunk keeps per-node time order intact (the victim was
never ingested, so later chunks still advance the node's buffer
monotonically) and biases the fleet toward fresh telemetry, which is what
an online detector should score.
"""

from __future__ import annotations

import time
from collections import deque

from repro.monitoring.streaming import StreamingDetector, StreamVerdict
from repro.telemetry.frame import NodeSeries

__all__ = ["ScoringWorker"]


class ScoringWorker:
    """One shard of the fleet: a streaming detector fed by a bounded queue.

    This is the **inline** transport: the coordinator drains it on its own
    thread, so scoring is cooperative and deterministic — the parity
    oracle the process transport (:mod:`repro.fleet.transport`) is checked
    against.  Both transports expose the same handle surface (``enqueue``
    / ``drain`` / ``beating`` / ``finalize`` / fan-out setters), keeping
    the coordinator transport-blind.

    Parameters
    ----------
    worker_id:
        Ring identity; also the label under which per-shard stage timings
        are recorded (``shard:<worker_id>``).
    stream:
        The worker's private :class:`StreamingDetector`.  Workers must not
        share one — per-node buffers and alert streaks are shard state.
    queue_capacity:
        Maximum queued chunks before drop-oldest shedding kicks in.
    """

    transport = "inline"

    def __init__(
        self,
        worker_id: str,
        stream: StreamingDetector,
        *,
        queue_capacity: int = 256,
    ):
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.worker_id = str(worker_id)
        self.stream = stream
        self.queue_capacity = int(queue_capacity)
        self._queue: deque[NodeSeries] = deque()
        #: flipped by fault injection; an unresponsive worker neither
        #: accepts nor drains chunks, exactly like a hung process.
        self.responsive = True
        self.shed_chunks = 0
        self.shed_samples = 0
        self.drained_chunks = 0
        self.batches = 0
        self.verdicts = 0
        #: microseconds spent in ``ingest_many``, on this worker's clock
        self.busy_us = 0
        #: tracked-node count as of the last drain — what ``status()``
        #: reports, so snapshots never race an in-progress batch.
        self._tracked_snapshot = 0

    # -- ingest --------------------------------------------------------------

    def enqueue(self, chunk: NodeSeries) -> int:
        """Queue one chunk; returns how many chunks were shed to make room.

        Raises ``RuntimeError`` if the worker is unresponsive — the
        coordinator treats that as a delivery failure and requeues after
        rebalancing.
        """
        if not self.responsive:
            raise RuntimeError(f"worker {self.worker_id} is not responsive")
        shed = 0
        while len(self._queue) >= self.queue_capacity:
            victim = self._queue.popleft()
            self.shed_chunks += 1
            self.shed_samples += victim.n_timestamps
            shed += 1
        self._queue.append(chunk)
        return shed

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    # -- scoring -------------------------------------------------------------

    def drain(self, max_chunks: int | None = None) -> list[StreamVerdict]:
        """Score up to *max_chunks* queued chunks as one micro-batch."""
        if not self.responsive or not self._queue:
            return []
        take = len(self._queue) if max_chunks is None else min(max_chunks, len(self._queue))
        batch = [self._queue.popleft() for _ in range(take)]
        start = time.perf_counter_ns()
        verdicts = self.stream.ingest_many(batch)
        self.busy_us += (time.perf_counter_ns() - start) // 1000
        self.drained_chunks += take
        self.batches += 1
        self.verdicts += len(verdicts)
        self._tracked_snapshot = self.stream.n_tracked
        return verdicts

    def beating(self) -> bool:
        """Inline liveness is synchronous: responsive means beating."""
        return self.responsive

    def busy(self) -> bool:
        """Chunks are waiting that the next drain would score."""
        return self.responsive and bool(self._queue)

    # -- deployment fan-out --------------------------------------------------

    @property
    def threshold(self) -> float:
        return self.stream.threshold_

    def set_threshold(self, value: float) -> None:
        self.stream.threshold_ = float(value)

    def swap_detector(self, detector) -> None:
        self.stream._swap_detector(detector)

    def reset_node(self, job_id: int, component_id: int) -> None:
        self.stream.reset(job_id, component_id)

    # -- failure / rebalance -------------------------------------------------

    def kill(self) -> None:
        """Fault injection: stop responding (simulated worker crash)."""
        self.responsive = False

    def take_pending(self) -> list[NodeSeries]:
        """Salvage the queued chunks (in FIFO order) for requeueing."""
        pending = list(self._queue)
        self._queue.clear()
        return pending

    def finalize(self) -> tuple[list[StreamVerdict], list[NodeSeries]]:
        """Post-mortem: nothing published late inline, just the salvage."""
        return [], self.take_pending()

    def close(self, timeout: float = 0.0) -> None:
        """Inline workers own no OS resources; shutdown is a no-op."""

    # -- reporting -----------------------------------------------------------

    def tracked_nodes(self) -> list[tuple[int, int]]:
        return self.stream.tracked_nodes()

    def queued_keys(self) -> list[tuple[int, int]]:
        """Node keys with chunks waiting in the ingest queue (FIFO order)."""
        return [(c.job_id, c.component_id) for c in self._queue]

    def status(self) -> dict:
        """Counter snapshot; ``tracked_nodes`` is the last drain's value,
        never a live call into detector state (see the process transport,
        where that state belongs to another OS process)."""
        return {
            "worker_id": self.worker_id,
            "transport": self.transport,
            "responsive": self.responsive,
            "queued": self.queue_depth,
            "queue_capacity": self.queue_capacity,
            "shed_chunks": self.shed_chunks,
            "shed_samples": self.shed_samples,
            "drained_chunks": self.drained_chunks,
            "batches": self.batches,
            "busy_us": self.busy_us,
            # Drained on the coordinator's thread: there is nothing to wake.
            "doorbell_wakes": 0,
            "verdicts": self.verdicts,
            "tracked_nodes": self._tracked_snapshot,
        }
