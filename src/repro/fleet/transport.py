"""Process-backed fleet workers over shared-memory rings.

The fleet's two transports share one coordinator:

* **inline** — :class:`~repro.fleet.worker.ScoringWorker` objects drained
  cooperatively on the coordinator thread.  Zero IPC, deterministic, the
  parity oracle — but one core, so workers buy isolation accounting, not
  throughput.
* **process** — each worker is a real OS process (``fork``) owning a
  private :class:`~repro.monitoring.streaming.StreamingDetector`, fed by
  the shared-memory rings of :mod:`repro.fleet.shm`.  Telemetry payloads
  are written once into the worker's chunk ring and read back as numpy
  views — never pickled per sample.  Only the low-rate control channel
  (schema registrations, threshold updates, promotion fan-out, shutdown)
  rides a pipe.

Crash accounting is coordinator-side: every pushed chunk stays on an
in-flight ledger until the worker's ``scored_seq`` (published through the
segment's status block *after* the batch's verdicts hit the verdict ring)
passes it.  When a worker dies — detected by ``Process.is_alive`` plus a
stalled heartbeat word — the coordinator collects the final published
verdicts, salvages every chunk past ``scored_seq`` (undrained ring slots
and drained-but-unscored alike), and hands them to the rebalance protocol.
The worker process never owns recovery state the coordinator cannot read
post-mortem.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from dataclasses import replace
from typing import Callable

import numpy as np

from repro.fleet.shm import (
    STATUS_BATCHES,
    STATUS_DRAINED,
    STATUS_FAILED,
    STATUS_HEARTBEAT,
    STATUS_SCORED_SEQ,
    STATUS_STOPPED,
    STATUS_TRACKED,
    STATUS_VERDICTS,
    VERDICT_DTYPE,
    RingSpec,
    WorkerSegment,
)
from repro.monitoring.streaming import StreamVerdict
from repro.telemetry.frame import NodeSeries

__all__ = ["RingSpec", "ProcessWorkerHandle", "process_transport_available"]

#: Idle poll interval of the worker loop (seconds).  Short enough that a
#: pump never waits long on a quiet worker, long enough not to burn a core.
_IDLE_SLEEP = 0.0005

#: Heartbeat-thread period.  The beat thread runs independently of the
#: scoring loop, so liveness stays visible through a long micro-batch.
_BEAT_PERIOD = 0.002


def process_transport_available() -> bool:
    """True when this host can run the process transport (needs ``fork``).

    The workers receive their pipeline/detector and the mapped shm segment
    through fork inheritance — nothing model-sized is ever pickled — so
    spawn-only platforms fall back to the inline transport.
    """
    import multiprocessing as mp

    return "fork" in mp.get_all_start_methods()


# -- worker-process side -------------------------------------------------------


def _apply_ctl(msg, stream, schemas: dict) -> bool:
    """Apply one control message; returns False on the stop sentinel."""
    kind = msg[0]
    if kind == "schema":
        _, idx, names, schema = msg
        schemas[idx] = (tuple(names), schema)
    elif kind == "threshold":
        stream.threshold_ = float(msg[1])
    elif kind == "detector":
        stream._swap_detector(msg[1])
    elif kind == "reset":
        stream.reset(msg[1], msg[2])
    elif kind == "stop":
        return False
    return True


def _worker_main(worker_id, segment, ctl, pipeline, detector, stream_kwargs) -> None:
    """Entry point of one scoring worker process.

    Loop: apply pending control messages, pop every available chunk from
    the ring, score the micro-batch through the private
    ``StreamingDetector``, publish the verdicts to the verdict ring, and
    only then advance ``scored_seq`` — so a chunk the coordinator sees as
    scored always has its verdicts physically published.
    """
    import threading

    from repro.monitoring.streaming import StreamingDetector
    from repro.runtime.instrumentation import Instrumentation

    parent = os.getppid()
    status = segment.status
    applied_ctl = 0
    # Score with private, silent instrumentation; any full extraction
    # stays on the scoring thread.
    engine = getattr(pipeline, "engine", None)
    if engine is not None:
        engine.config = replace(engine.config, n_workers=1)
        engine.instrumentation = Instrumentation(enabled=False)

    def beat() -> None:
        while True:
            status[STATUS_HEARTBEAT] += 1
            time.sleep(_BEAT_PERIOD)

    threading.Thread(target=beat, daemon=True).start()

    stream = StreamingDetector(pipeline, detector, **stream_kwargs)
    schemas: dict[int, tuple[tuple[str, ...], object]] = {}
    running = True

    def orphaned() -> bool:
        return os.getppid() != parent

    def apply_ctl(block: bool) -> bool:
        """Apply one pending control message; True when one was applied."""
        nonlocal running, applied_ctl
        if not ctl.poll(0.01 if block else 0):
            return False
        running = _apply_ctl(ctl.recv(), stream, schemas) and running
        applied_ctl += 1
        return True

    def catch_up_ctl(need: int) -> None:
        """Block until *need* control messages were applied.

        Only called for floors carried by already-popped chunks, whose
        sends happened-before the push — the messages are guaranteed to be
        in the pipe, so this terminates (barring a vanished coordinator).
        """
        while applied_ctl < need:
            if not apply_ctl(True) and orphaned():
                raise RuntimeError("coordinator vanished mid control catch-up")

    def resolve_schema(idx: int):
        """Schema lookups may outrun the pipe by one loop iteration."""
        deadline = time.monotonic() + 10.0
        while idx not in schemas:
            if not apply_ctl(True) and (orphaned() or time.monotonic() > deadline):
                raise RuntimeError(f"schema index {idx} never registered")
        return schemas[idx]

    def publish(verdicts: list[StreamVerdict]) -> None:
        for v in verdicts:
            record = np.zeros((), dtype=VERDICT_DTYPE)
            record["job_id"] = v.job_id
            record["component_id"] = v.component_id
            record["window_end"] = v.window_end
            record["anomaly_score"] = v.anomaly_score
            record["alert"] = int(v.alert)
            record["streak"] = v.streak
            while not segment.verdicts.try_push(record):
                if orphaned():
                    raise RuntimeError("coordinator vanished with a full verdict ring")
                time.sleep(_IDLE_SLEEP)

    try:
        while True:
            while apply_ctl(False):
                pass
            batch = segment.chunks.pop_many(segment.spec.chunk_slots, resolve_schema)
            if not batch:
                if not running:
                    break
                if orphaned():
                    break
                time.sleep(_IDLE_SLEEP)
                continue
            # Channel-ordering floor: everything the coordinator sent
            # before pushing these chunks must be applied before scoring
            # them (matches inline semantics, where a threshold set before
            # a drain governs every chunk that drain scores).
            catch_up_ctl(max(ctl_seq for _, ctl_seq, _ in batch))
            verdicts = stream.ingest_many([chunk for _, _, chunk in batch])
            publish(verdicts)
            # Publish-then-advance: scored_seq moving past a chunk implies
            # its verdicts are already readable coordinator-side.
            status[STATUS_SCORED_SEQ] = batch[-1][0]
            status[STATUS_DRAINED] += len(batch)
            status[STATUS_BATCHES] += 1
            status[STATUS_VERDICTS] += len(verdicts)
            status[STATUS_TRACKED] = len(stream.tracked_nodes())
        status[STATUS_STOPPED] = 1
    except Exception:  # pragma: no cover - crash path, exercised via SIGKILL tests
        status[STATUS_FAILED] = 1
        raise
    finally:
        segment.release_views()
        ctl.close()


# -- coordinator side ----------------------------------------------------------


class ProcessWorkerHandle:
    """Coordinator-side endpoint of one process-backed scoring worker.

    Presents the same surface as the inline :class:`ScoringWorker`
    (``enqueue`` / ``drain`` / ``kill`` / ``finalize`` / counters) so the
    coordinator's dispatch loop, shedding accounting, and rebalance
    protocol are transport-blind.

    Shedding stays **coordinator-side**: chunks wait in a bounded staging
    deque (drop-oldest beyond ``queue_capacity``, counted) and move into
    the ring as slots free up; ``queue_depth`` counts staged plus
    in-flight-unscored, mirroring the inline queue semantics.
    """

    transport = "process"

    def __init__(
        self,
        worker_id: str,
        pipeline,
        detector,
        stream_kwargs: dict,
        *,
        queue_capacity: int = 256,
        spec: RingSpec | None = None,
        instrumentation=None,
        threshold: float | None = None,
    ):
        if not process_transport_available():
            raise RuntimeError("process transport requires the fork start method")
        import multiprocessing as mp

        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        self.worker_id = str(worker_id)
        self.queue_capacity = int(queue_capacity)
        self.spec = spec if spec is not None else RingSpec()
        self.instrumentation = instrumentation
        self.segment = WorkerSegment.create(self.spec)
        ctx = mp.get_context("fork")
        self._ctl, child_ctl = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(worker_id, self.segment, child_ctl, pipeline, detector, stream_kwargs),
            name=f"fleet-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_ctl.close()

        self._staged: deque[NodeSeries] = deque()
        self._inflight: deque[tuple[int, NodeSeries]] = deque()
        self._next_seq = 1
        self._schema_idx: dict[tuple[str, ...], int] = {}
        self._threshold = float(threshold) if threshold is not None else (
            float(detector.threshold_)
        )
        self._hb_seen = -1
        self._dead = False
        self._closed = False
        self._final_words = [0] * 8

        # Inline-compatible counters.
        self.shed_chunks = 0
        self.shed_samples = 0
        self.drained_chunks = 0
        self.batches = 0
        self.verdicts = 0
        # Transport counters.
        self.pushed_chunks = 0
        self.ring_full_events = 0
        self.ctl_messages = 0

    # -- liveness -------------------------------------------------------------

    @property
    def responsive(self) -> bool:
        return not self._dead and self.process.is_alive()

    @responsive.setter
    def responsive(self, value: bool) -> None:
        # The coordinator's death path sets ``responsive = False``; for a
        # process worker that is a declaration of death.
        if not value:
            self._dead = True

    def beating(self) -> bool:
        """True when the worker showed a fresh heartbeat since last asked."""
        if not self.responsive:
            return False
        hb = int(self.segment.status[STATUS_HEARTBEAT])
        fresh = hb != self._hb_seen
        self._hb_seen = hb
        return fresh

    def busy(self) -> bool:
        """Work is staged, in flight, or published but not yet collected."""
        if self._closed or not self.responsive:
            return False
        return bool(self._staged or self._inflight or len(self.segment.verdicts))

    # -- ingest ---------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._staged) + len(self._inflight)

    def enqueue(self, chunk: NodeSeries) -> int:
        """Stage one chunk; returns chunks shed to respect ``queue_capacity``.

        Only staged chunks can be shed — in-flight payloads already live in
        the ring and cannot be retracted — so the bound degrades softly when
        the ring itself holds a full capacity of unscored work.
        """
        if not self.responsive:
            raise RuntimeError(f"worker {self.worker_id} is not responsive")
        shed = 0
        while self.queue_depth >= self.queue_capacity and self._staged:
            victim = self._staged.popleft()
            self.shed_chunks += 1
            self.shed_samples += victim.n_timestamps
            shed += 1
        self._staged.append(chunk)
        return shed

    def _send_ctl(self, msg) -> bool:
        try:
            self._ctl.send(msg)
        except (BrokenPipeError, OSError):
            return False
        self.ctl_messages += 1
        return True

    def _schema_index(self, chunk: NodeSeries) -> int:
        # Keyed on the column names: a schema's digest is the digest of its
        # flat names, so equal tuples are exactly the chunks that share a
        # digest, without hashing every name per pushed chunk.
        names = chunk.metric_names
        idx = self._schema_idx.get(names)
        if idx is None:
            idx = len(self._schema_idx)
            self._schema_idx[names] = idx
            # Register before the first push so the worker can always
            # resolve a header's schema_idx from its control channel.
            self._send_ctl(("schema", idx, chunk.metric_names, chunk.schema))
        return idx

    def _push_staged(self) -> int:
        pushed = 0
        while self._staged:
            chunk = self._staged[0]
            idx = self._schema_index(chunk)
            if not self.segment.chunks.try_push(
                chunk, idx, self._next_seq, self.ctl_messages
            ):
                self.ring_full_events += 1
                break
            self._inflight.append((self._next_seq, chunk))
            self._next_seq += 1
            self._staged.popleft()
            pushed += 1
        self.pushed_chunks += pushed
        return pushed

    def _collect(self) -> list[StreamVerdict]:
        records = self.segment.verdicts.pop_all()
        out = [
            StreamVerdict(
                job_id=int(r["job_id"]),
                component_id=int(r["component_id"]),
                window_end=float(r["window_end"]),
                anomaly_score=float(r["anomaly_score"]),
                alert=bool(r["alert"]),
                streak=int(r["streak"]),
            )
            for r in records
        ]
        self.verdicts += len(out)
        return out

    def _refresh(self) -> None:
        status = self.segment.status
        scored = int(status[STATUS_SCORED_SEQ])
        while self._inflight and self._inflight[0][0] <= scored:
            self._inflight.popleft()
        self.drained_chunks = int(status[STATUS_DRAINED])
        self.batches = int(status[STATUS_BATCHES])

    # -- the pump interface ----------------------------------------------------

    def drain(self, max_chunks: int | None = None) -> list[StreamVerdict]:
        """One non-blocking transport cycle: push staged, collect verdicts.

        Unlike the inline worker, scoring happens asynchronously in the
        worker process — ``drain`` only moves bytes, so the coordinator
        overlaps its dispatch loop with every worker's compute.
        """
        if not self.responsive:
            return []
        if self.instrumentation is not None:
            with self.instrumentation.stage("ipc:push"):
                pushed = self._push_staged()
            with self.instrumentation.stage("ipc:collect") as _:
                verdicts = self._collect()
            self.instrumentation.count("fleet_ring_pushed", pushed)
        else:
            self._push_staged()
            verdicts = self._collect()
        self._refresh()
        return verdicts

    # -- control fan-out --------------------------------------------------------

    @property
    def threshold(self) -> float:
        return self._threshold

    def set_threshold(self, value: float) -> None:
        self._threshold = float(value)
        self._send_ctl(("threshold", float(value)))

    def swap_detector(self, detector) -> None:
        self._threshold = float(detector.threshold_)
        self._send_ctl(("detector", detector))

    def reset_node(self, job_id: int, component_id: int) -> None:
        self._send_ctl(("reset", job_id, component_id))

    # -- failure / salvage ------------------------------------------------------

    def kill(self) -> None:
        """Fault injection: SIGKILL the worker process mid-whatever."""
        if self.process.is_alive() and self.process.pid is not None:
            os.kill(self.process.pid, signal.SIGKILL)

    def finalize(self) -> tuple[list[StreamVerdict], list[NodeSeries]]:
        """Post-mortem: (final published verdicts, salvageable chunks).

        Reaps the process (terminating it if it is merely hung), drains the
        verdict ring one last time, then salvages every chunk newer than the
        worker's final ``scored_seq`` — undrained ring slots and popped-but-
        unscored chunks alike, in FIFO order — plus everything still staged.
        The segment is closed and unlinked; nothing leaks.
        """
        self._dead = True
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        verdicts = self._collect()
        scored = int(self.segment.status[STATUS_SCORED_SEQ])
        salvage = [chunk for seq, chunk in self._inflight if seq > scored]
        salvage.extend(self._staged)
        self.drained_chunks = int(self.segment.status[STATUS_DRAINED])
        self.batches = int(self.segment.status[STATUS_BATCHES])
        self._inflight.clear()
        self._staged.clear()
        self._dispose_segment()
        return verdicts, salvage

    def take_pending(self) -> list[NodeSeries]:
        """Inline-compatible salvage entry point (drops the verdicts)."""
        return self.finalize()[1]

    def close(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: stop sentinel, join, unlink the segment.

        The worker drains control messages even while chunks are pending,
        so a clean close should only follow a fully-pumped stream; anything
        still in the ring dies with the segment (counted by the caller).
        """
        if self._closed:
            return
        if self.process.is_alive():
            self._send_ctl(("stop",))
            self.process.join(timeout=timeout)
            if self.process.is_alive():  # pragma: no cover - wedged worker
                self.process.terminate()
                self.process.join(timeout=5.0)
        self._dead = True
        self._dispose_segment()
        try:
            self._ctl.close()
        except OSError:  # pragma: no cover
            pass

    def _dispose_segment(self) -> None:
        if self._closed:
            return
        self._final_words = [int(w) for w in self.segment.status[:8]]
        self._closed = True
        self.segment.close()
        self.segment.unlink()

    # -- reporting --------------------------------------------------------------

    def queued_keys(self) -> list[tuple[int, int]]:
        """Node keys with staged or in-flight chunks (FIFO order)."""
        keys = [(c.job_id, c.component_id) for _, c in self._inflight]
        keys.extend((c.job_id, c.component_id) for c in self._staged)
        return keys

    def ipc_stats(self) -> dict:
        return {
            "pushed_chunks": self.pushed_chunks,
            "ring_full_events": self.ring_full_events,
            "ctl_messages": self.ctl_messages,
            "staged": len(self._staged),
            "in_flight": len(self._inflight),
            "pending_results": (
                0 if self._closed else len(self.segment.verdicts)
            ),
        }

    def status(self) -> dict:
        """Snapshot from the status block — never calls into the worker."""
        if self._closed:
            words = self._final_words
        else:
            words = [int(w) for w in self.segment.status[:8]]
        return {
            "worker_id": self.worker_id,
            "transport": "process",
            "pid": self.process.pid,
            "responsive": self.responsive,
            "queued": self.queue_depth,
            "queue_capacity": self.queue_capacity,
            "shed_chunks": self.shed_chunks,
            "shed_samples": self.shed_samples,
            "drained_chunks": words[STATUS_DRAINED],
            "batches": words[STATUS_BATCHES],
            "verdicts": self.verdicts,
            "tracked_nodes": words[STATUS_TRACKED],
            "scored_seq": words[STATUS_SCORED_SEQ],
            "stopped": bool(words[STATUS_STOPPED]),
            "failed": bool(words[STATUS_FAILED]),
            "ipc": self.ipc_stats(),
        }
