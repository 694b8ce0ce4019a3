"""FleetCoordinator: the dispatch loop of the sharded scoring service.

The coordinator owns the ring (:class:`~repro.fleet.router.ShardRouter`),
the workers, and the rollup (:class:`~repro.fleet.rollup.ClusterRollup`).
Workers come in two **transports** behind one handle interface:

* ``inline`` — :class:`~repro.fleet.worker.ScoringWorker`, drained
  cooperatively on this thread.  Deterministic, zero IPC: the parity
  oracle.
* ``process`` — :class:`~repro.fleet.transport.ProcessWorkerHandle`, one
  OS process per worker fed over the shared-memory rings of
  :mod:`repro.fleet.shm`.  ``drain`` only moves bytes (non-blocking push
  of staged chunks, batched verdict collection), so every worker's
  scoring overlaps the coordinator's dispatch loop.

Telemetry chunks enter via :meth:`submit` (routed by ``(job_id,
component_id)``), and :meth:`pump` runs one cycle of the dispatch loop:

1. drain every responsive worker (inline: score its queue as one
   micro-batch; process: push staged chunks into its ring and collect
   published verdicts), recording a per-shard stage timing
   (``shard:<worker_id>``) and stamping heartbeats — inline workers beat
   synchronously, process workers through a heartbeat word in their
   segment's status block;
2. declare dead workers and **rebalance**: an inline worker that missed
   ``heartbeat_timeout`` consecutive pumps, or a worker process that the
   OS reports dead (or whose heartbeat word stalled past
   ``heartbeat_grace`` seconds), has its ring arcs removed, its final
   published verdicts collected, its unscored chunks salvaged (staged,
   in-ring, and popped-but-unscored alike — the worker's ``scored_seq``
   is the salvage watermark) and redelivered to the new owners, with
   every count surfaced (never silent);
3. apply any lifecycle promotion **atomically between batches**
   (inline transport only — per-window lifecycle observation is
   coordinator-side state a forked scorer cannot share);
4. fold the cycle's verdicts into the cluster rollup.

Backpressure: :meth:`submit` returns ``False`` once the target queue
crosses its high-watermark — the producer should pump before submitting
more.  If it does not, the worker sheds oldest-first with counted drops.
Shedding ownership is **coordinator-side** in both transports: only
staged chunks are ever dropped, never payloads already in a ring.

The coordinator also keeps an **owner table** — ``(job, component) ->
worker_id`` for every key it has ever delivered — so
:meth:`tracked_nodes` and :meth:`status` are pure coordinator state and
never race a scoring process (a ``fleet status`` probe cannot block on,
or crash into, a worker mid-batch).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterable, Protocol

from repro.core.prodigy import ProdigyDetector
from repro.fleet.rollup import ClusterRollup
from repro.fleet.router import ShardRouter
from repro.fleet.shm import RingSpec
from repro.fleet.transport import ProcessWorkerHandle, process_transport_available
from repro.fleet.worker import ScoringWorker
from repro.monitoring.streaming import StreamingDetector, StreamVerdict
from repro.pipeline.datapipeline import DataPipeline
from repro.runtime.instrumentation import Instrumentation, get_instrumentation
from repro.telemetry.frame import NodeSeries

__all__ = ["FleetCoordinator"]


class FaultSchedule(Protocol):
    """Anything that injects worker failures during a stream replay."""

    def due(self, n_submitted: int) -> list[str]: ...


class FleetCoordinator:
    """Sharded multi-worker scoring over one fitted deployment.

    Parameters
    ----------
    pipeline, detector:
        The fitted deployment every worker scores with.  Inline workers
        share the pipeline object; process workers inherit a forked copy
        (copy-on-write) and privatize its engine.
    n_workers / worker_ids:
        Pool size (ids default to ``w0..wN-1``).
    transport:
        ``"inline"`` (cooperatively scheduled on the coordinator thread —
        the parity oracle) or ``"process"`` (one OS process per worker fed
        over shared-memory rings).  ``"process"`` falls back to inline —
        with the reason recorded in :attr:`transport_fallback` and
        ``status()`` — where ``fork`` is unavailable.
    queue_capacity:
        Per-worker ingest bound (drop-oldest beyond it).
    high_watermark:
        Queue depth at which :meth:`submit` signals backpressure;
        defaults to half the capacity.
    heartbeat_timeout:
        Missed pump cycles before a silent worker is *eligible* to be
        declared dead.  Process workers additionally require either an
        OS-confirmed death or ``heartbeat_grace`` seconds of wall-clock
        heartbeat silence — pump ticks can outrun a descheduled-but-alive
        process on a loaded machine, and a false death declaration is a
        full rebalance.
    heartbeat_grace:
        Wall-clock seconds of heartbeat silence after which an alive
        worker process is considered wedged.
    stall_timeout:
        Wall-clock seconds :meth:`run_stream` tolerates busy workers
        making zero progress before raising (a wedged fleet should fail
        loudly, not hang the caller).
    ring_spec:
        Shared-memory ring geometry for process workers; ``None`` uses
        the :class:`~repro.fleet.shm.RingSpec` defaults.  Size
        ``slot_samples``/``slot_metrics`` to the workload's chunk shape.
    stream_kwargs:
        Passed to every worker's :class:`StreamingDetector`
        (``window_seconds``, ``evaluate_every``, ``consecutive_alerts``).
    lifecycle:
        Optional :class:`LifecycleManager`; put into deferred-promotion
        mode so hot-swaps happen only at pump boundaries, fleet-wide.
        Inline transport only.
    rollup:
        Cluster rollup; a default one is built if omitted.
    """

    def __init__(
        self,
        pipeline: DataPipeline,
        detector: ProdigyDetector,
        *,
        n_workers: int = 2,
        worker_ids: list[str] | None = None,
        transport: str = "inline",
        queue_capacity: int = 256,
        high_watermark: int | None = None,
        heartbeat_timeout: int = 2,
        heartbeat_grace: float = 5.0,
        stall_timeout: float = 120.0,
        replicas: int = 64,
        ring_spec: RingSpec | None = None,
        stream_kwargs: dict | None = None,
        lifecycle=None,
        rollup: ClusterRollup | None = None,
        instrumentation: Instrumentation | None = None,
    ):
        if worker_ids is None:
            if n_workers < 1:
                raise ValueError("n_workers must be >= 1")
            worker_ids = [f"w{i}" for i in range(n_workers)]
        if len(set(worker_ids)) != len(worker_ids):
            raise ValueError("worker ids must be unique")
        if heartbeat_timeout < 1:
            raise ValueError("heartbeat_timeout must be >= 1")
        if transport not in ("inline", "process"):
            raise ValueError(f"unknown fleet transport {transport!r}")
        self.transport_fallback: str | None = None
        if transport == "process" and not process_transport_available():
            self.transport_fallback = (
                "process transport needs the fork start method; running inline"
            )
            transport = "inline"
        if transport == "process" and lifecycle is not None:
            raise ValueError(
                "lifecycle integration requires the inline transport: per-window "
                "observation feeds coordinator-side drift/shadow state that a "
                "forked scorer cannot share"
            )
        self.transport = transport
        self.pipeline = pipeline
        self.detector = detector
        self.queue_capacity = int(queue_capacity)
        self.high_watermark = (
            max(1, queue_capacity // 2) if high_watermark is None else int(high_watermark)
        )
        self.heartbeat_timeout = int(heartbeat_timeout)
        self.heartbeat_grace = float(heartbeat_grace)
        self.stall_timeout = float(stall_timeout)
        self.ring_spec = ring_spec
        self.stream_kwargs = dict(stream_kwargs or {})
        self.lifecycle = lifecycle
        if lifecycle is not None:
            lifecycle.defer_promotions = True
        engine = getattr(pipeline, "engine", None)
        self.instrumentation = (
            instrumentation
            if instrumentation is not None
            else (engine.instrumentation if engine is not None else get_instrumentation())
        )
        self.rollup = rollup if rollup is not None else ClusterRollup()
        self.router = ShardRouter(worker_ids, replicas=replicas)
        self._threshold = float(detector.threshold_)
        self.workers: dict[str, ScoringWorker | ProcessWorkerHandle] = {
            worker_id: self._build_worker(worker_id) for worker_id in worker_ids
        }
        self.dead_workers: dict[str, dict] = {}
        self._tick = 0
        self._last_beat: dict[str, int] = {w: 0 for w in worker_ids}
        self._last_beat_time: dict[str, float] = {
            w: time.monotonic() for w in worker_ids
        }
        #: owner table: every key the fleet has delivered, and whose shard
        #: is minding it.  Pure coordinator state — reporting never calls
        #: into live detector state (which may be another OS process).
        self._node_owner: dict[tuple[int, int], str] = {}
        #: chunks whose delivery failed (unresponsive owner); redelivered
        #: after the next rebalance, shed-oldest beyond queue_capacity.
        self._retry: deque[NodeSeries] = deque()
        self.submitted = 0
        self.backpressure_events = 0
        self.redelivered = 0
        self.retry_shed_chunks = 0
        self.rebalances = 0
        self.moved_keys = 0
        self.promotion_fanouts = 0

    def _build_worker(self, worker_id: str):
        if self.transport == "process":
            return ProcessWorkerHandle(
                worker_id,
                self.pipeline,
                self.detector,
                self.stream_kwargs,
                queue_capacity=self.queue_capacity,
                spec=self.ring_spec,
                instrumentation=self.instrumentation,
                threshold=self._threshold,
            )
        stream = StreamingDetector(
            self.pipeline, self.detector,
            lifecycle=self.lifecycle, **self.stream_kwargs,
        )
        worker = ScoringWorker(worker_id, stream, queue_capacity=self.queue_capacity)
        worker.set_threshold(self._threshold)
        return worker

    # -- membership ----------------------------------------------------------

    def add_worker(self, worker_id: str):
        """Scale out: place a fresh worker on the ring.

        Only the keys landing on the newcomer's ring arcs move (bounded by
        consistent hashing); their buffered window tails on the previous
        owners are dropped so exactly one shard minds each node.
        """
        worker = self._build_worker(worker_id)
        self.router.add_worker(worker_id)
        self.workers[worker_id] = worker
        self._last_beat[worker_id] = self._tick
        self._last_beat_time[worker_id] = time.monotonic()
        moved = 0
        for key, owner_id in list(self._node_owner.items()):
            new_owner = self.router.assign(key)
            if new_owner == owner_id:
                continue
            old = self.workers.get(owner_id)
            if old is not None and old.responsive:
                old.reset_node(*key)
            self._node_owner[key] = new_owner
            moved += 1
        self.moved_keys += moved
        if moved:
            self.instrumentation.count("fleet_moved_keys", moved)
        return worker

    def kill_worker(self, worker_id: str) -> None:
        """Fault injection: the worker stops responding.

        Inline workers flip their responsive flag; process workers take a
        real ``SIGKILL``.  Either way the coordinator is *not* told — it
        finds out through liveness detection, exactly like production.
        """
        self.workers[worker_id].kill()

    def alive_workers(self) -> list[str]:
        return self.router.workers

    # -- ingest --------------------------------------------------------------

    def submit(self, chunk: NodeSeries) -> bool:
        """Route one chunk to its shard owner.

        Returns ``False`` when the owner's queue is past its
        high-watermark (backpressure: pump before submitting more).
        Chunks addressed to an unresponsive-but-undetected worker are
        parked for redelivery after the rebalance.
        """
        self.submitted += 1
        self.instrumentation.count("fleet_submitted", 1)
        key = (chunk.job_id, chunk.component_id)
        worker_id = self.router.assign(key)
        worker = self.workers[worker_id]
        try:
            shed = worker.enqueue(chunk)
        except RuntimeError:
            self._park_for_retry(chunk)
            return True
        self._node_owner[key] = worker_id
        if shed:
            self.instrumentation.count("fleet_shed_chunks", shed)
        if worker.queue_depth >= self.high_watermark:
            self.backpressure_events += 1
            self.instrumentation.count("fleet_backpressure", 1)
            return False
        return True

    def _park_for_retry(self, chunk: NodeSeries) -> None:
        while len(self._retry) >= self.queue_capacity:
            self._retry.popleft()
            self.retry_shed_chunks += 1
            self.instrumentation.count("fleet_shed_chunks", 1)
        self._retry.append(chunk)

    # -- the dispatch loop ---------------------------------------------------

    def pump(self) -> list[StreamVerdict]:
        """One dispatch cycle; returns the verdicts it produced."""
        self._tick += 1
        verdicts: list[StreamVerdict] = []
        pending_promotion = None
        for worker_id in self.alive_workers():
            worker = self.workers[worker_id]
            if not worker.responsive:
                continue  # no heartbeat this cycle
            start = time.perf_counter()
            batch = worker.drain()
            self.instrumentation.record(
                f"shard:{worker_id}", time.perf_counter() - start, items=len(batch)
            )
            if worker.beating():
                self._last_beat[worker_id] = self._tick
                self._last_beat_time[worker_id] = time.monotonic()
            verdicts.extend(batch)
            if self.lifecycle is not None:
                promoted = self.lifecycle.take_pending_promotion()
                if promoted is not None:
                    pending_promotion = promoted
        verdicts.extend(self._check_heartbeats())
        self._flush_retries()
        if pending_promotion is not None:
            self._fanout_swap(pending_promotion)
        with self.instrumentation.stage("rollup", items=len(verdicts)):
            self.rollup.observe_many(verdicts)
        return verdicts

    def _check_heartbeats(self) -> list[StreamVerdict]:
        """Declare dead workers; returns verdicts salvaged post-mortem."""
        salvaged: list[StreamVerdict] = []
        now = time.monotonic()
        for worker_id in self.alive_workers():
            worker = self.workers[worker_id]
            tick_stale = self._tick - self._last_beat[worker_id] > self.heartbeat_timeout
            if worker.transport == "process":
                # Real death is OS-confirmed; a silent-but-alive process
                # additionally needs wall-clock grace — pump ticks can
                # outrun a descheduled scorer on a loaded machine.
                wall_stale = now - self._last_beat_time[worker_id] > self.heartbeat_grace
                if not worker.responsive or (tick_stale and wall_stale):
                    salvaged.extend(self._handle_dead(worker_id))
            elif tick_stale:
                salvaged.extend(self._handle_dead(worker_id))
        return salvaged

    def _handle_dead(self, worker_id: str) -> list[StreamVerdict]:
        """Rebalance a dead worker's shards onto the survivors.

        Returns the worker's final published-but-uncollected verdicts
        (process transport; a chunk's verdicts are published *before* its
        ``scored_seq`` advances, so nothing a dead worker scored is lost).
        """
        worker = self.workers[worker_id]
        worker.responsive = False
        if len(self.router) <= 1:
            self.close()
            raise RuntimeError(
                f"worker {worker_id} died and no replacement remains on the ring"
            )
        final_verdicts, pending = worker.finalize()
        lost_nodes = [k for k, w in self._node_owner.items() if w == worker_id]
        self.router.remove_worker(worker_id)
        self.rebalances += 1
        moved = {(c.job_id, c.component_id) for c in pending} | set(lost_nodes)
        for key in moved:
            self._node_owner[key] = self.router.assign(key)
        self.moved_keys += len(moved)
        self.instrumentation.count("fleet_rebalances", 1)
        self.instrumentation.count("fleet_moved_keys", len(moved))
        self.dead_workers[worker_id] = {
            "at_tick": self._tick,
            "moved_keys": len(moved),
            "requeued_chunks": len(pending),
            "salvaged_verdicts": len(final_verdicts),
        }
        # Unacked chunks redeliver to the new shard owners.  They predate
        # anything parked via the delivery-failure path, so they go to the
        # FRONT of the retry buffer — per-node time order must survive the
        # rebalance or the new owner rejects the stream as out-of-order.
        merged = deque(pending)
        merged.extend(self._retry)
        self._retry = merged
        while len(self._retry) > self.queue_capacity:
            self._retry.popleft()
            self.retry_shed_chunks += 1
            self.instrumentation.count("fleet_shed_chunks", 1)
        return final_verdicts

    def _flush_retries(self) -> None:
        """Redeliver parked chunks to their (possibly new) shard owners.

        A chunk whose owner is still unresponsive-but-undetected is parked
        again without counting as redelivered — only a successful enqueue
        is a redelivery.  Chunks were counted as submitted on first entry.
        """
        if not self._retry:
            return
        parked = list(self._retry)
        self._retry.clear()
        for chunk in parked:
            key = (chunk.job_id, chunk.component_id)
            worker_id = self.router.assign(key)
            try:
                shed = self.workers[worker_id].enqueue(chunk)
            except RuntimeError:
                self._park_for_retry(chunk)
                continue
            self._node_owner[key] = worker_id
            self.redelivered += 1
            self.instrumentation.count("fleet_redelivered", 1)
            if shed:
                self.instrumentation.count("fleet_shed_chunks", shed)

    def _fanout_swap(self, promoted: ProdigyDetector) -> None:
        """Hot-swap every worker onto the promoted model, between batches."""
        self.detector = promoted
        self._threshold = float(promoted.threshold_)
        for worker in self.workers.values():
            worker.swap_detector(promoted)
        self.promotion_fanouts += 1
        self.instrumentation.count("fleet_promotion_fanouts", 1)

    # -- stream replay -------------------------------------------------------

    def run_stream(
        self,
        chunks: Iterable[NodeSeries],
        *,
        pump_every: int = 8,
        faults: FaultSchedule | None = None,
    ) -> list[StreamVerdict]:
        """Feed a chunk stream through the fleet, pumping as it goes.

        Pumps every *pump_every* submissions, and whenever backpressure is
        signalled pumps until the signalling worker's queue is back under
        the high watermark (see :meth:`_relieve`); then drains until every
        queue is empty.  *faults* may inject worker failures keyed on the
        running submission count.
        """
        if pump_every < 1:
            raise ValueError("pump_every must be >= 1")
        verdicts: list[StreamVerdict] = []
        for i, chunk in enumerate(chunks, 1):
            if faults is not None:
                for worker_id in faults.due(i):
                    self.kill_worker(worker_id)
            if not self.submit(chunk):
                owner = self._node_owner[(chunk.job_id, chunk.component_id)]
                verdicts.extend(self._relieve(owner))
            elif i % pump_every == 0:
                verdicts.extend(self.pump())
        # Drain what remains.  Three distinct states keep the loop honest:
        # progress (verdicts / rebalances / redeliveries) resets the idle
        # clock; a busy worker (process transport scoring asynchronously)
        # means wait, not exit; and only quiet-with-nothing-pending idles
        # toward termination — after heartbeat_timeout extra pumps for
        # death detection to fire on silent workers.
        idle = 0
        last_progress = time.monotonic()
        while self._work_remaining():
            before = (len(verdicts), self.rebalances, self.redelivered)
            verdicts.extend(self.pump())
            if (len(verdicts), self.rebalances, self.redelivered) != before:
                idle = 0
                last_progress = time.monotonic()
                continue
            if any(
                self.workers[w].busy() for w in self.alive_workers()
            ):
                idle = 0
                self._wait_for_scorers(last_progress)
                continue
            idle += 1
            if idle > self.heartbeat_timeout:
                break
        return verdicts

    def _relieve(self, worker_id: str) -> list[StreamVerdict]:
        """Pump until *worker_id*'s queue is back under the high watermark.

        An inline pump scores the whole queue, so this returns after one
        cycle.  A process pump only moves bytes, so this waits for the
        worker process to score; submitting on instead would shed.  It
        also returns once the worker stops responding (the heartbeat check
        declares it dead and rebalances its queue), and raises after
        ``stall_timeout`` seconds in which the queue did not shrink.
        """
        worker = self.workers[worker_id]
        verdicts: list[StreamVerdict] = []
        depth = worker.queue_depth
        last_progress = time.monotonic()
        while True:
            batch = self.pump()
            verdicts.extend(batch)
            if not worker.responsive or worker.queue_depth < self.high_watermark:
                return verdicts
            if batch or worker.queue_depth < depth:
                depth = worker.queue_depth
                last_progress = time.monotonic()
                continue
            self._wait_for_scorers(last_progress)

    def _wait_for_scorers(self, last_progress: float) -> None:
        """Yield the cores to busy workers; raise once they stalled too long."""
        if time.monotonic() - last_progress > self.stall_timeout:
            self.close()
            raise RuntimeError(
                f"fleet stalled: busy workers made no progress for "
                f"{self.stall_timeout:.0f}s"
            )
        time.sleep(0.001)

    def _work_remaining(self) -> bool:
        if self._retry:
            return True
        for worker_id in self.alive_workers():
            worker = self.workers[worker_id]
            if not worker.responsive:
                return True  # death detection still pending
            if worker.queue_depth or worker.busy():
                return True
        return False

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        """Graceful shutdown: every worker joined, every segment unlinked.

        Inline workers are no-ops; process workers get a stop sentinel,
        drain their rings, and are joined (terminated if wedged).  Safe to
        call repeatedly; dead workers were already disposed at rebalance.
        """
        for worker in self.workers.values():
            worker.close()

    def __enter__(self) -> "FleetCoordinator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- deployment-wide controls -------------------------------------------

    @property
    def threshold_(self) -> float:
        return self._threshold

    def set_threshold(self, value: float) -> None:
        """Fan a window threshold out to every worker."""
        self._threshold = float(value)
        for worker in self.workers.values():
            worker.set_threshold(self._threshold)

    def calibrate(self, healthy_series: list[NodeSeries], *, percentile: float = 99.0) -> float:
        """Window-threshold calibration (Sec. 3.3 streaming analogue), fleet-wide.

        Calibrates one scratch detector and fans the threshold out, so all
        shards agree regardless of which nodes they own.
        """
        scratch = StreamingDetector(self.pipeline, self.detector, **self.stream_kwargs)
        threshold = scratch.calibrate(healthy_series, percentile=percentile)
        self.set_threshold(threshold)
        return threshold

    # -- reporting -----------------------------------------------------------

    def tracked_nodes(self) -> list[tuple[int, int]]:
        """Every node the fleet is minding: scored, queued, or in redelivery.

        Read from the coordinator's owner table — never from live worker
        detector state, which (process transport) belongs to another OS
        process mid-batch.
        """
        keys = set(self._node_owner)
        keys.update((c.job_id, c.component_id) for c in self._retry)
        return sorted(keys)

    def status(self) -> dict:
        """JSON-ready fleet snapshot: workers, totals, ring, rollup.

        Safe to call during an active stream: every field is coordinator
        state or a shared-memory counter snapshot.
        """
        alive = set(self.alive_workers())
        workers = []
        for worker_id in sorted(self.workers):
            entry = self.workers[worker_id].status()
            entry["alive"] = worker_id in alive
            entry["last_beat_tick"] = self._last_beat.get(worker_id, 0)
            if worker_id in self.dead_workers:
                entry.update(self.dead_workers[worker_id])
            workers.append(entry)
        shed_chunks = (
            sum(w.shed_chunks for w in self.workers.values()) + self.retry_shed_chunks
        )
        shed_samples = sum(w.shed_samples for w in self.workers.values())
        status = {
            "tick": self._tick,
            "transport": self.transport,
            "transport_fallback": self.transport_fallback,
            "n_workers": len(self.workers),
            "alive": sorted(alive),
            "dead": sorted(self.dead_workers),
            "workers": workers,
            "totals": {
                "submitted": self.submitted,
                "verdicts": sum(w.verdicts for w in self.workers.values()),
                "shed_chunks": shed_chunks,
                "shed_samples": shed_samples,
                "backpressure_events": self.backpressure_events,
                "redelivered": self.redelivered,
                "rebalances": self.rebalances,
                "moved_keys": self.moved_keys,
                "promotion_fanouts": self.promotion_fanouts,
                "tracked_nodes": len(self.tracked_nodes()),
            },
            "shard_timings": {
                name.split(":", 1)[1]: {
                    "calls": s.calls,
                    "seconds": s.seconds,
                    "items": s.items,
                    "mean_ms": s.mean_ms,
                }
                for name, s in self.instrumentation.prefixed_stages("shard:").items()
            },
            "router": self.router.summary(),
            "rollup": self.rollup.summary(),
            "threshold": self.threshold_,
        }
        if self.transport == "process":
            handles = [
                w for w in self.workers.values()
                if isinstance(w, ProcessWorkerHandle)
            ]
            status["ipc"] = {
                "pushed_chunks": sum(w.pushed_chunks for w in handles),
                "ring_full_events": sum(w.ring_full_events for w in handles),
                "ctl_messages": sum(w.ctl_messages for w in handles),
                "timings": {
                    name.split(":", 1)[1]: {
                        "calls": s.calls,
                        "seconds": s.seconds,
                        "items": s.items,
                        "mean_ms": s.mean_ms,
                    }
                    for name, s in self.instrumentation.prefixed_stages("ipc:").items()
                },
            }
        return status
