"""Tests for the process-backed fleet transport.

Covers the shared-memory ring primitives (:mod:`repro.fleet.shm`), the
:class:`ProcessWorkerHandle` lifecycle, coordinator parity between the
``inline`` and ``process`` transports (including SIGKILL-mid-run salvage),
segment cleanup on shutdown, the inline fallback when fork is missing,
and the coordinator's default transport.

Fixtures mirror ``test_fleet.py``: a stateless mean-score detector over
an engine-backed pipeline, so process-transport verdicts can be compared
against the inline path without training a model.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.features import FeatureExtractor
from repro.fleet import (
    FleetCoordinator,
    ProcessWorkerHandle,
    RingSpec,
    WorkerSegment,
    process_transport_available,
)
from repro.fleet.shm import STATUS_HEARTBEAT, VERDICT_DTYPE
from repro.monitoring import (
    FleetFaultSchedule,
    StreamingDetector,
    WorkerFailure,
)
from repro.runtime import ExecutionConfig, Instrumentation, ParallelExtractor
from repro.telemetry import NodeSeries

requires_fork = pytest.mark.skipif(
    not process_transport_available(),
    reason="process transport needs the fork start method",
)


class EnginePipeline:
    """Minimal pipeline routing window features through a runtime engine."""

    def __init__(self):
        self.engine = ParallelExtractor(
            FeatureExtractor(resample_points=16),
            config=ExecutionConfig(n_workers=1, cache_size=512),
            instrumentation=Instrumentation(),
        )

    def transform_single(self, window: NodeSeries) -> np.ndarray:
        return self.engine.extract_matrix([window])[0]

    def transform_series(self, windows) -> np.ndarray:
        return self.engine.extract_matrix(list(windows))[0]


class PerWindowPipeline(EnginePipeline):
    """Extracts window by window, so one micro-batch may mix column layouts."""

    def transform_series(self, windows) -> np.ndarray:
        return np.vstack([self.transform_single(w) for w in windows])


class MeanDetector:
    """Stateless: score = mean of the feature row.  Order-independent."""

    def __init__(self, threshold=0.5):
        self.threshold_ = threshold

    def anomaly_score(self, features: np.ndarray) -> np.ndarray:
        return features.mean(axis=1)


def node_chunks(job, comp, *, n=60, size=10, seed=0):
    rng = np.random.default_rng(seed + 997 * job + comp)
    values = rng.random((n, 3))
    ts = np.arange(float(n))
    names = ("m0", "m1", "m2")
    return [
        NodeSeries(job, comp, ts[s:s + size], values[s:s + size], names)
        for s in range(0, n, size)
    ]


def interleave(per_node):
    out = []
    for i in range(max(len(p) for p in per_node)):
        for stream in per_node:
            if i < len(stream):
                out.append(stream[i])
    return out


STREAM_KW = dict(window_seconds=16, evaluate_every=10, consecutive_alerts=2)

NODES = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


def fleet_chunks():
    return interleave([node_chunks(j, c) for j, c in NODES])


def verdict_map(verdicts):
    return {
        (v.job_id, v.component_id, v.window_end):
            (round(v.anomaly_score, 12), v.alert, v.streak)
        for v in verdicts
    }


def drain_until_idle(handle, timeout=60):
    """Pump *handle* until nothing is staged, in flight or unread."""
    verdicts = []
    deadline = time.monotonic() + timeout
    while (handle.busy() or handle.queue_depth) and time.monotonic() < deadline:
        verdicts.extend(handle.drain())
        time.sleep(0.002)
    verdicts.extend(handle.drain())
    return verdicts


def shm_entries():
    """Names of POSIX shm segments, or None where /dev/shm is not a thing."""
    if not os.path.isdir("/dev/shm"):
        return None
    return set(os.listdir("/dev/shm"))


# -- ring primitives ---------------------------------------------------------


class TestRingSpec:
    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError, match="chunk_slots"):
            RingSpec(chunk_slots=0)
        with pytest.raises(ValueError, match="slot_samples"):
            RingSpec(slot_samples=-1)

    def test_total_bytes_is_sum_of_sections(self):
        spec = RingSpec(chunk_slots=4, slot_samples=16, slot_metrics=4,
                        verdict_slots=8)
        assert spec.total_bytes == (
            spec.status_bytes + spec.chunk_ring_bytes + spec.verdict_ring_bytes
        )


class TestChunkRing:
    SPEC = RingSpec(chunk_slots=4, slot_samples=16, slot_metrics=4,
                    verdict_slots=8)

    def _resolve(self, idx):
        assert idx == 7
        return ("m0", "m1", "m2"), None

    def test_roundtrip_preserves_payload_and_metadata(self):
        seg = WorkerSegment.create(self.SPEC)
        try:
            chunks = node_chunks(3, 5, n=30, size=10)
            for i, chunk in enumerate(chunks):
                assert seg.chunks.try_push(chunk, 7, seq=i + 1, ctl_seq=i)
            popped = seg.chunks.pop_many(10, self._resolve)
            assert [(s, c) for s, c, _ in popped] == [(1, 0), (2, 1), (3, 2)]
            # Popped arrays must be private copies, not live ring views:
            # overwrite every freed slot and re-check the popped payloads.
            for i, chunk in enumerate(node_chunks(8, 8, n=30, size=10)):
                assert seg.chunks.try_push(chunk, 7, seq=100 + i)
            for original, (_, _, series) in zip(chunks, popped):
                assert series.job_id == 3 and series.component_id == 5
                assert series.metric_names == ("m0", "m1", "m2")
                np.testing.assert_array_equal(series.timestamps,
                                              original.timestamps)
                np.testing.assert_array_equal(series.values, original.values)
        finally:
            seg.close()
            seg.unlink()

    def test_wraparound_and_capacity(self):
        seg = WorkerSegment.create(self.SPEC)
        try:
            ring = seg.chunks
            chunks = node_chunks(1, 0, n=60, size=10)  # 6 > 4 slots
            seq = 0
            popped = []
            for chunk in chunks[:4]:
                seq += 1
                assert ring.try_push(chunk, 7, seq=seq)
            # Full: a fifth push is refused, never overwritten.
            assert not ring.try_push(chunks[4], 7, seq=seq + 1)
            popped += ring.pop_many(2, self._resolve)
            for chunk in chunks[4:]:
                seq += 1
                assert ring.try_push(chunk, 7, seq=seq)
            popped += ring.pop_many(10, self._resolve)
            assert [s for s, _, _ in popped] == [1, 2, 3, 4, 5, 6]
            ts = np.concatenate([series.timestamps for _, _, series in popped])
            np.testing.assert_array_equal(ts, np.arange(60.0))
        finally:
            ring = None  # drop the test's ring views before unmapping
            seg.close()
            seg.unlink()

    def test_oversized_chunk_is_a_hard_error(self):
        seg = WorkerSegment.create(self.SPEC)
        try:
            big = NodeSeries(1, 0, np.arange(32.0), np.random.rand(32, 3),
                             ("m0", "m1", "m2"))
            with pytest.raises(ValueError, match="exceeds the ring slot"):
                seg.chunks.try_push(big, 0, seq=1)
        finally:
            seg.close()
            seg.unlink()


class TestVerdictRing:
    SPEC = RingSpec(chunk_slots=2, slot_samples=8, slot_metrics=2,
                    verdict_slots=4)

    def _records(self, comps):
        rec = np.zeros(len(comps), dtype=VERDICT_DTYPE)
        rec["job_id"], rec["component_id"] = 9, comps
        rec["window_end"] = rec["anomaly_score"] = 0.25 * np.asarray(comps)
        rec["alert"], rec["streak"] = rec["anomaly_score"] > 0.5, 1
        return rec

    def test_roundtrip_and_wraparound(self):
        seg = WorkerSegment.create(self.SPEC)
        try:
            ring = seg.verdicts
            got = []
            for i in range(4):
                assert ring.push_many(self._records([i])) == 1
            assert ring.push_many(self._records([99])) == 0  # full
            got.append(ring.pop_all())
            for i in range(4, 6):
                assert ring.push_many(self._records([i])) == 1
            got.append(ring.pop_all())
            records = np.concatenate(got)
            assert list(records["component_id"]) == [0, 1, 2, 3, 4, 5]
            np.testing.assert_allclose(records["anomaly_score"],
                                       0.25 * np.arange(6))
            assert ring.pop_all().size == 0
        finally:
            ring = None  # drop the test's ring views before unmapping
            seg.close()
            seg.unlink()

    def test_batch_push_wraps_and_stops_when_full(self):
        seg = WorkerSegment.create(self.SPEC)
        try:
            ring = seg.verdicts
            assert ring.push_many(self._records([0, 1, 2])) == 3
            assert list(ring.pop_all(2)["component_id"]) == [0, 1]
            # Three free slots, two of them past the wrap: five offered.
            assert ring.push_many(self._records([3, 4, 5, 6, 7])) == 3
            assert ring.push_many(self._records([8])) == 0
            assert list(ring.pop_all()["component_id"]) == [2, 3, 4, 5]
        finally:
            ring = None  # drop the test's ring views before unmapping
            seg.close()
            seg.unlink()


# -- process worker handle ---------------------------------------------------


@requires_fork
class TestProcessWorkerHandle:
    def test_scores_through_a_tiny_ring_backlog(self):
        # 6 staged chunks against 2 ring slots: the handle must feed the
        # ring incrementally and still deliver every verdict.
        spec = RingSpec(chunk_slots=2, slot_samples=16, slot_metrics=4,
                        verdict_slots=64)
        handle = ProcessWorkerHandle(
            "wx", EnginePipeline(), MeanDetector(), dict(STREAM_KW),
            queue_capacity=16, spec=spec,
        )
        try:
            chunks = node_chunks(1, 0)
            for chunk in chunks:
                assert handle.enqueue(chunk) == 0  # nothing shed
            verdicts = drain_until_idle(handle)

            oracle = StreamingDetector(
                EnginePipeline(), MeanDetector(), **STREAM_KW)
            expected = [v for c in chunks
                        if (v := oracle.ingest(c)) is not None]
            assert verdict_map(verdicts) == verdict_map(expected)
            stats = handle.ipc_stats()
            assert stats["pushed_chunks"] == len(chunks)
            final, pending = handle.finalize()
            assert final == [] and pending == []
        finally:
            handle.close()
        status = handle.status()
        assert status["transport"] == "process"
        assert status["drained_chunks"] == 6
        assert json.dumps(status)

    def test_one_schema_message_per_name_tuple(self):
        # Two column layouts, every chunk carrying its own (equal) name
        # tuple: the worker learns each layout once and scores both like
        # the inline oracle.
        def renamed(chunks, names):
            return [
                NodeSeries(c.job_id, c.component_id, c.timestamps, c.values,
                           tuple(names))
                for c in chunks
            ]

        chunks = interleave([
            renamed(node_chunks(1, 0), ["m0", "m1", "m2"]),
            renamed(node_chunks(1, 1), ["m0", "m1", "m2"]),
            renamed(node_chunks(2, 0), ["n0", "n1", "n2"]),
        ])
        handle = ProcessWorkerHandle(
            "wz", PerWindowPipeline(), MeanDetector(), dict(STREAM_KW),
            queue_capacity=len(chunks),
        )
        sent = []
        send_ctl = handle._send_ctl

        def record(msg):
            sent.append(msg[0])
            return send_ctl(msg)

        handle._send_ctl = record
        try:
            for chunk in chunks:
                assert handle.enqueue(chunk) == 0
            verdicts = drain_until_idle(handle)
        finally:
            handle.close()
        assert sent.count("schema") == 2
        oracle = StreamingDetector(PerWindowPipeline(), MeanDetector(), **STREAM_KW)
        expected = [v for c in chunks if (v := oracle.ingest(c)) is not None]
        assert expected
        assert verdict_map(verdicts) == verdict_map(expected)

    def test_heartbeat_advances_while_idle(self):
        handle = ProcessWorkerHandle(
            "wy", EnginePipeline(), MeanDetector(), dict(STREAM_KW))
        try:
            deadline = time.monotonic() + 10
            beats = 0
            while beats < 2 and time.monotonic() < deadline:
                if handle.beating():
                    beats += 1
                time.sleep(0.01)
            assert beats >= 2, "idle worker stopped heartbeating"
            assert int(handle.segment.status[STATUS_HEARTBEAT]) > 0
        finally:
            handle.close()


    def test_idle_worker_wakes_for_a_pushed_chunk(self):
        # A second of idling parks the worker on its doorbell; the push
        # must ring it, and the chunk's window must come back scored.
        handle = ProcessWorkerHandle(
            "wi", EnginePipeline(), MeanDetector(), dict(STREAM_KW))
        try:
            chunks = node_chunks(1, 0, n=20, size=10)
            handle.enqueue(chunks[0])
            drain_until_idle(handle)
            time.sleep(1.0)
            wakes = handle.status()["doorbell_wakes"]
            handle.enqueue(chunks[1])
            verdicts = drain_until_idle(handle, timeout=10)
            assert [v.window_end for v in verdicts] == [19.0]
            # A push that lands while the worker runs its loop between two
            # waits still leaves its byte, which ends the next wait.
            deadline = time.monotonic() + 5
            while handle.status()["doorbell_wakes"] == wakes and time.monotonic() < deadline:
                time.sleep(0.01)
            assert handle.status()["doorbell_wakes"] > wakes
        finally:
            handle.close()

    def test_push_that_loses_its_wake_is_scored_within_the_timeout(self):
        # A push landing between the worker's ring re-check and its wait
        # sees the waiting word too late or too early; model the lost
        # byte by never ringing: the wait's timeout must still find it.
        handle = ProcessWorkerHandle(
            "wr", EnginePipeline(), MeanDetector(), dict(STREAM_KW))
        handle._ring_doorbell = lambda: None
        try:
            time.sleep(0.2)
            for chunk in node_chunks(1, 0, n=20, size=10):
                handle.enqueue(chunk)
            verdicts = drain_until_idle(handle, timeout=10)
            assert [v.window_end for v in verdicts] == [9.0, 19.0]
            assert handle.status()["doorbell_wakes"] == 0
        finally:
            handle.close()

    def test_counters_advance_after_a_burst(self):
        handle = ProcessWorkerHandle(
            "wc", EnginePipeline(), MeanDetector(), dict(STREAM_KW),
            queue_capacity=64)
        try:
            before = handle.status()
            assert (before["busy_us"], before["batches"]) == (0, 0)
            for chunk in fleet_chunks():
                handle.enqueue(chunk)
            drain_until_idle(handle)
            after = handle.status()
        finally:
            handle.close()
        assert after["busy_us"] > 0
        assert after["batches"] >= 1
        assert after["doorbell_wakes"] >= 0
        assert handle.status()["busy_us"] == after["busy_us"]  # kept past close


@requires_fork
class TestPlanColumnTransport:
    def test_only_plan_columns_travel_and_verdicts_match_inline(self):
        from test_rolling import _fit_deployment, _make_series

        rng = np.random.default_rng(17)
        names = tuple(f"m{i}" for i in range(6))
        series = [_make_series(160, names, 3, comp, rng) for comp in range(3)]
        selected = [f"{m}|{f}" for m in ("m1", "m4")
                    for f in ("mean", "quantile_q0.9", "c3_lag1")]
        pipeline, detector = _fit_deployment(series, names=selected)
        chunks = interleave([
            [NodeSeries(s.job_id, s.component_id, s.timestamps[i:i + 8],
                        s.values[i:i + 8], names) for i in range(0, 160, 8)]
            for s in series
        ])
        kw = dict(window_seconds=40, evaluate_every=10, consecutive_alerts=1)
        oracle = StreamingDetector(pipeline, detector, **kw)
        expected = [v for c in chunks if (v := oracle.ingest(c)) is not None]

        handle = ProcessWorkerHandle(
            "wp", pipeline, detector, kw, queue_capacity=len(chunks))
        sent = []
        send_ctl = handle._send_ctl

        def record(msg):
            sent.append(msg)
            return send_ctl(msg)

        handle._send_ctl = record
        try:
            for chunk in chunks:
                handle.enqueue(chunk)
            verdicts = drain_until_idle(handle)
        finally:
            handle.close()
        assert [msg[2] for msg in sent if msg[0] == "schema"] == [("m1", "m4")]
        assert verdicts == expected  # scores bit for bit


def open_fds() -> set[int] | None:
    """This process's open file descriptors, where /proc shows them."""
    path = "/proc/self/fd"
    return set(map(int, os.listdir(path))) if os.path.isdir(path) else None


def fd_is_open(fd: int) -> bool:
    try:
        os.fstat(fd)
    except OSError:
        return False
    return True


@requires_fork
class TestProcessWorkerResources:
    """Start, close() and SIGKILL leave no descriptor or segment behind."""

    def _handle(self, name):
        return ProcessWorkerHandle(
            name, EnginePipeline(), MeanDetector(), dict(STREAM_KW))

    def _check_released(self, stop):
        self._handle("warm").close()  # starts the shm resource tracker once
        fds, segments = open_fds(), shm_entries()
        handle = self._handle("wl")
        own = [handle._bell, handle._ctl.fileno()]
        for chunk in node_chunks(1, 0, n=20, size=10):
            handle.enqueue(chunk)
        drain_until_idle(handle)
        stop(handle)
        assert not any(map(fd_is_open, own)), "doorbell or control pipe left open"
        if segments is not None:
            assert shm_entries() - segments == set(), "leaked shared-memory segment"
        # Checked while the handle lives on, as a dead worker's does in
        # the coordinator: the Process sentinel pipe must be closed too.
        if fds is not None:
            assert open_fds() - fds == set(), "leaked file descriptors"
        assert handle.exitcode is not None
        assert handle.status()["pid"] == handle.pid

    def test_close_releases_everything(self):
        def stop(handle):
            handle.close()
            handle.close()  # idempotent

        self._check_released(stop)

    def test_sigkill_salvage_releases_everything(self):
        def stop(handle):
            handle.kill()
            handle.process.join(timeout=10)
            handle.finalize()
            handle.close()  # a no-op after the salvage

        self._check_released(stop)


# -- coordinator over the process transport ----------------------------------


@requires_fork
class TestProcessTransportParity:
    def test_verdicts_match_inline_at_every_width(self):
        chunks = fleet_chunks()
        maps = {}
        for transport, n_workers in (
            ("inline", 1), ("process", 1), ("process", 2), ("process", 3),
        ):
            fleet = FleetCoordinator(
                EnginePipeline(), MeanDetector(), n_workers=n_workers,
                stream_kwargs=STREAM_KW, transport=transport,
                queue_capacity=len(chunks),
            )
            with fleet:
                verdicts = fleet.run_stream(iter(chunks), pump_every=7)
                status = fleet.status()
            maps[(transport, n_workers)] = verdict_map(verdicts)
            assert status["transport"] == transport
            assert fleet.tracked_nodes() == sorted(NODES)
        reference = maps[("inline", 1)]
        assert reference
        for key, got in maps.items():
            assert got == reference, f"{key} diverged from inline"

    def test_status_snapshot_during_active_scoring(self):
        # Regression: status() must never call into live detector state —
        # with process workers that state lives in another OS process, so
        # a mid-run status call has to be answerable from coordinator-side
        # snapshots alone (and must not block on a busy scorer).
        chunks = fleet_chunks()
        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=2,
            stream_kwargs=STREAM_KW, transport="process",
            queue_capacity=len(chunks),
        )
        with fleet:
            for chunk in chunks:
                fleet.submit(chunk)
            # Non-blocking: workers are now actively scoring.
            verdicts = fleet.pump()
            start = time.monotonic()
            status = fleet.status()
            elapsed = time.monotonic() - start
            assert elapsed < 1.0, "status() blocked on a scoring process"
            assert json.dumps(status)
            assert status["transport"] == "process"
            assert fleet.tracked_nodes() == sorted(NODES)
            by_id = {w["worker_id"]: w for w in status["workers"]}
            assert sum(w["tracked_nodes"] for w in by_id.values()) \
                <= len(NODES)
            # Drain out; the mid-run peek must not have perturbed scoring.
            verdicts += fleet.run_stream(iter([]), pump_every=1)
        oracle = StreamingDetector(EnginePipeline(), MeanDetector(), **STREAM_KW)
        expected = [v for c in chunks if (v := oracle.ingest(c)) is not None]
        assert verdict_map(verdicts) == verdict_map(expected)

    def test_threshold_set_before_push_governs_those_chunks(self):
        # The ctl pipe and the chunk ring are separate channels; ctl_seq
        # sequencing must stop a threshold update racing the chunks pushed
        # right after it.  Inline and process agree on the full history.
        def run(transport):
            chunks = fleet_chunks()
            fleet = FleetCoordinator(
                EnginePipeline(), MeanDetector(), n_workers=1,
                stream_kwargs=STREAM_KW, transport=transport,
                queue_capacity=len(chunks),
            )
            with fleet:
                verdicts = []
                for chunk in chunks[:12]:
                    fleet.submit(chunk)
                verdicts += fleet.run_stream(iter([]), pump_every=1)
                fleet.set_threshold(-1.0)  # every later window alerts
                for chunk in chunks[12:]:
                    fleet.submit(chunk)
                verdicts += fleet.run_stream(iter([]), pump_every=1)
            return verdict_map(verdicts)

        process_map = run("process")
        assert process_map == run("inline")
        # The new threshold really governed the post-change windows.
        assert any(alert for _, alert, _ in process_map.values())

    def test_run_stream_waits_out_backpressure_without_shedding(self):
        # A burst several times the queue capacity, pumped only when
        # backpressure is signalled, into a 2-slot ring: run_stream must
        # wait for the worker process to score instead of submitting on
        # and shedding the chunks staged behind the full ring.
        chunks = fleet_chunks()
        capacity = 6
        assert len(chunks) > 5 * capacity
        spec = RingSpec(chunk_slots=2, slot_samples=16, slot_metrics=4,
                        verdict_slots=64)
        maps = {}
        for transport in ("inline", "process"):
            fleet = FleetCoordinator(
                EnginePipeline(), MeanDetector(), n_workers=1,
                stream_kwargs=STREAM_KW, transport=transport,
                queue_capacity=capacity, high_watermark=4, ring_spec=spec,
            )
            with fleet:
                verdicts = fleet.run_stream(iter(chunks), pump_every=len(chunks))
                totals = fleet.status()["totals"]
            assert totals["backpressure_events"] > 0
            assert totals["shed_chunks"] == 0, transport
            maps[transport] = verdict_map(verdicts)
        assert maps["inline"]
        assert maps["process"] == maps["inline"]

    def test_overload_sheds_coordinator_side_and_conserves(self):
        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=2,
            queue_capacity=4, stream_kwargs=STREAM_KW, transport="process",
        )
        with fleet:
            for chunk in fleet_chunks():
                fleet.submit(chunk)
            totals = fleet.status()["totals"]
            queued = sum(w.queue_depth for w in fleet.workers.values())
            assert totals["shed_chunks"] > 0
            assert queued + totals["shed_chunks"] == totals["submitted"]


@requires_fork
class TestProcessWorkerDeath:
    def test_sigkill_mid_batch_salvages_and_realigns(self):
        chunks = fleet_chunks()
        before = shm_entries()
        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=3,
            stream_kwargs=STREAM_KW, transport="process",
            queue_capacity=len(chunks),
        )
        faults = FleetFaultSchedule([WorkerFailure("w1", after_chunks=12)])
        with fleet:
            verdicts = fleet.run_stream(iter(chunks), pump_every=5,
                                        faults=faults)
            status = fleet.status()
        assert faults.triggered and status["dead"] == ["w1"]
        assert status["alive"] == ["w0", "w2"]
        assert status["totals"]["rebalances"] == 1
        # Salvage-to-retry loses no tracked node.
        assert fleet.tracked_nodes() == sorted(NODES)
        assert json.dumps(status)

        # Chunks the dead process had consumed die with it, so windows
        # overlapping the kill may diverge — but windows age out after
        # window_seconds, so every verdict one span past the kill must
        # match the serial oracle exactly.
        oracle = StreamingDetector(EnginePipeline(), MeanDetector(), **STREAM_KW)
        expected = verdict_map(
            [v for c in chunks if (v := oracle.ingest(c)) is not None])
        got = verdict_map(verdicts)
        realign_after = float(chunks[11].timestamps[-1]) \
            + STREAM_KW["window_seconds"]
        steady = {k for k in expected if k[2] > realign_after}
        assert steady
        for key in steady:
            assert got.get(key) == expected[key], (
                f"verdict {key} did not realign after salvage"
            )
        # Every node kept producing verdicts after the rebalance.
        assert {(j, c) for j, c, _ in got} == set(NODES)
        # The dead worker's segment was torn down with it.
        after = shm_entries()
        if before is not None:
            assert after - before == set()


@requires_fork
class TestProcessShutdown:
    def test_close_joins_workers_and_unlinks_segments(self):
        before = shm_entries()
        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=2,
            stream_kwargs=STREAM_KW, transport="process",
            queue_capacity=64,
        )
        with fleet:
            verdicts = fleet.run_stream(iter(fleet_chunks()), pump_every=4)
        assert verdicts
        for worker in fleet.workers.values():
            assert worker.exitcode == 0
        after = shm_entries()
        if before is not None:
            assert after - before == set(), "leaked shared-memory segments"
        fleet.close()  # idempotent

    def test_status_still_reports_after_close(self):
        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=1,
            stream_kwargs=STREAM_KW, transport="process", queue_capacity=64,
        )
        with fleet:
            fleet.run_stream(iter(node_chunks(1, 0)), pump_every=3)
        status = fleet.status()
        worker = status["workers"][0]
        assert worker["drained_chunks"] == 6
        assert worker["verdicts"] > 0
        assert json.dumps(status)


# -- transport selection and config ------------------------------------------


class TestTransportSelection:
    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet transport"):
            FleetCoordinator(
                EnginePipeline(), MeanDetector(), n_workers=1,
                stream_kwargs=STREAM_KW, transport="threads",
            )

    def test_process_falls_back_inline_without_fork(self, monkeypatch):
        import repro.fleet.coordinator as coordinator_module

        monkeypatch.setattr(
            coordinator_module, "process_transport_available", lambda: False)
        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=1,
            stream_kwargs=STREAM_KW, transport="process",
        )
        assert fleet.transport == "inline"
        assert "fork" in fleet.transport_fallback
        status = fleet.status()
        assert status["transport"] == "inline"
        assert status["transport_fallback"] == fleet.transport_fallback

    @requires_fork
    def test_lifecycle_requires_inline_transport(self):
        with pytest.raises(ValueError, match="inline transport"):
            FleetCoordinator(
                EnginePipeline(), MeanDetector(), n_workers=1,
                stream_kwargs=STREAM_KW, transport="process",
                lifecycle=object(),
            )


class TestFleetTransportConfig:
    def test_default_is_inline(self):
        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=1, stream_kwargs=STREAM_KW
        )
        assert fleet.transport == "inline"
        fleet.close()
