"""Tests for the fleet layer: router, workers, coordinator, rollup.

The coordinator tests use a stateless mean-score detector and an
engine-backed pipeline, so fleet verdicts can be compared bit-for-bit
against the single StreamingDetector path (the parity contract) without
training a model.
"""

import copy
import json

import numpy as np
import pytest

from repro.features import FeatureExtractor
from repro.fleet import ClusterRollup, FleetCoordinator, ScoringWorker, ShardRouter
from repro.monitoring import (
    FleetFaultSchedule,
    StreamingDetector,
    StreamVerdict,
    WorkerFailure,
)
from repro.runtime import ExecutionConfig, Instrumentation, ParallelExtractor
from repro.telemetry import NodeSeries


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
    """Round-robin merge, as concurrently-reporting nodes would arrive."""
    out = []
    for i in range(max(len(p) for p in per_node)):
        for stream in per_node:
            if i < len(stream):
                out.append(stream[i])
    return out


STREAM_KW = dict(window_seconds=16, evaluate_every=10, consecutive_alerts=2)


def verdict_map(verdicts):
    return {
        (v.job_id, v.component_id, v.window_end):
            (round(v.anomaly_score, 12), v.alert, v.streak)
        for v in verdicts
    }


class TestShardRouter:
    KEYS = [(j, c) for j in range(3) for c in range(32)]

    def test_deterministic_across_instances(self):
        a = ShardRouter(["w0", "w1", "w2"])
        b = ShardRouter(["w2", "w0", "w1"])  # construction order irrelevant
        assert a.assignment(self.KEYS) == b.assignment(self.KEYS)

    def test_every_key_lands_on_a_member(self):
        router = ShardRouter(["w0", "w1"])
        assert set(router.assignment(self.KEYS).values()) <= {"w0", "w1"}

    def test_load_is_roughly_balanced(self):
        router = ShardRouter([f"w{i}" for i in range(4)], replicas=128)
        counts = {}
        for worker in router.assignment(self.KEYS).values():
            counts[worker] = counts.get(worker, 0) + 1
        assert len(counts) == 4
        assert max(counts.values()) <= 3 * min(counts.values())

    def test_join_moves_bounded_fraction(self):
        before = ShardRouter(["w0", "w1", "w2"])
        after = copy.deepcopy(before)
        after.add_worker("w3")
        moved = before.moved_keys(self.KEYS, after)
        # Only keys on the newcomer's arcs move: ~K/W, far below a reshuffle.
        assert 0 < len(moved) <= len(self.KEYS) // 2
        # And every moved key moved TO the newcomer.
        assert all(after.assign(k) == "w3" for k in moved)

    def test_leave_moves_only_departed_keys(self):
        before = ShardRouter(["w0", "w1", "w2"])
        after = copy.deepcopy(before)
        after.remove_worker("w1")
        owned = [k for k, w in before.assignment(self.KEYS).items() if w == "w1"]
        moved = before.moved_keys(self.KEYS, after)
        assert sorted(owned) == moved

    def test_membership_errors(self):
        router = ShardRouter(["w0"])
        with pytest.raises(ValueError, match="already"):
            router.add_worker("w0")
        with pytest.raises(KeyError):
            router.remove_worker("nope")
        router.remove_worker("w0")
        with pytest.raises(RuntimeError, match="no workers"):
            router.assign((1, 1))

    def test_summary(self):
        router = ShardRouter(["w0", "w1"], replicas=8)
        summary = router.summary()
        assert summary["workers"] == ["w0", "w1"]
        assert summary["ring_points"] == 16
        assert summary["points_per_worker"] == {"w0": 8, "w1": 8}


class TestScoringWorker:
    def make(self, capacity=4):
        stream = StreamingDetector(EnginePipeline(), MeanDetector(), **STREAM_KW)
        return ScoringWorker("w0", stream, queue_capacity=capacity)

    def test_drop_oldest_shedding_is_counted(self):
        worker = self.make(capacity=3)
        chunks = node_chunks(1, 0, n=50, size=10)
        for chunk in chunks[:3]:
            assert worker.enqueue(chunk) == 0
        assert worker.enqueue(chunks[3]) == 1  # oldest chunk shed
        assert worker.queue_depth == 3
        assert worker.shed_chunks == 1
        assert worker.shed_samples == chunks[0].n_timestamps
        # The victim was chunks[0]; the queue kept the newest three.
        assert worker.queued_keys() == [(1, 0)] * 3

    def test_drain_scores_in_one_batch(self):
        worker = self.make(capacity=8)
        for chunk in node_chunks(1, 0, n=40, size=10):
            worker.enqueue(chunk)
        verdicts = worker.drain()
        assert len(verdicts) == 4
        assert worker.batches == 1
        assert worker.drained_chunks == 4
        assert worker.queue_depth == 0

    def test_status_reports_the_process_worker_counters(self):
        worker = self.make(capacity=8)
        before = worker.status()
        assert (before["busy_us"], before["batches"], before["doorbell_wakes"]) == (0, 0, 0)
        for chunk in node_chunks(1, 0, n=40, size=10):
            worker.enqueue(chunk)
        worker.drain()
        after = worker.status()
        assert after["busy_us"] > 0 and after["batches"] == 1
        assert after["doorbell_wakes"] == 0  # drained inline: nothing to wake
        assert after["tracked_nodes"] == 1

    def test_killed_worker_rejects_and_salvages(self):
        worker = self.make(capacity=8)
        chunks = node_chunks(1, 0, n=30, size=10)
        worker.enqueue(chunks[0])
        worker.kill()
        with pytest.raises(RuntimeError, match="not responsive"):
            worker.enqueue(chunks[1])
        assert worker.drain() == []
        assert worker.take_pending() == [chunks[0]]
        assert worker.queue_depth == 0


class TestClusterRollup:
    def verdict(self, job, comp, score, alert=False, streak=0, end=10.0):
        return StreamVerdict(job, comp, end, score, alert, streak)

    def test_rack_and_app_aggregation(self):
        rollup = ClusterRollup(nodes_per_rack=2, app_of={1: "lammps"}, top_k=3)
        rollup.observe_many([
            self.verdict(1, 0, 0.2),
            self.verdict(1, 1, 0.9, alert=True, streak=2),
            self.verdict(2, 2, 0.4),
        ])
        summary = rollup.summary()
        assert summary["nodes_tracked"] == 3
        assert summary["alerts"] == 1
        assert summary["racks"]["0"]["verdicts"] == 2
        assert summary["racks"]["0"]["alert_rate"] == 0.5
        assert summary["racks"]["1"]["alerts"] == 0
        assert summary["apps"]["lammps"]["verdicts"] == 2
        assert summary["apps"]["unknown"]["verdicts"] == 1

    def test_top_nodes_ranked_by_peak_with_deterministic_ties(self):
        rollup = ClusterRollup(top_k=2)
        rollup.observe_many([
            self.verdict(1, 5, 0.3),
            self.verdict(1, 2, 0.8),
            self.verdict(2, 0, 0.8),  # tie on peak: key order breaks it
        ])
        top = rollup.top_nodes()
        assert [(n["job_id"], n["component_id"]) for n in top] == [(1, 2), (2, 0)]

    def test_peak_survives_later_lower_scores(self):
        rollup = ClusterRollup()
        rollup.observe(self.verdict(1, 0, 0.9, end=10.0))
        rollup.observe(self.verdict(1, 0, 0.1, end=20.0))
        node = rollup.top_nodes(1)[0]
        assert node["peak_score"] == 0.9
        assert node["last_score"] == 0.1


class TestFleetCoordinator:
    NODES = [(1, c) for c in range(8)]

    def chunks(self):
        return interleave([node_chunks(j, c) for j, c in self.NODES])

    def test_parity_with_single_detector(self):
        """Fleet scoring must be verdict-identical to the serial path."""
        chunks = self.chunks()
        single = StreamingDetector(EnginePipeline(), MeanDetector(), **STREAM_KW)
        reference = []
        for chunk in chunks:
            reference.extend(single.ingest_many([chunk]))

        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=3, stream_kwargs=STREAM_KW
        )
        verdicts = fleet.run_stream(iter(chunks), pump_every=5)
        assert verdict_map(verdicts) == verdict_map(reference)
        assert fleet.tracked_nodes() == sorted(self.NODES)

    def test_parity_independent_of_worker_count(self):
        chunks = self.chunks()
        maps = []
        for n_workers in (1, 2, 4):
            fleet = FleetCoordinator(
                EnginePipeline(), MeanDetector(),
                n_workers=n_workers, stream_kwargs=STREAM_KW,
            )
            maps.append(verdict_map(fleet.run_stream(iter(chunks), pump_every=7)))
        assert maps[0] == maps[1] == maps[2]

    def test_worker_death_rebalances_without_losing_nodes(self):
        """The acceptance drill: kill a worker mid-run, nothing disappears."""
        chunks = self.chunks()
        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=3,
            stream_kwargs=STREAM_KW, heartbeat_timeout=2,
        )
        faults = FleetFaultSchedule([WorkerFailure("w1", after_chunks=12)])
        verdicts = fleet.run_stream(iter(chunks), pump_every=5, faults=faults)

        status = fleet.status()
        assert faults.triggered and status["dead"] == ["w1"]
        assert status["alive"] == ["w0", "w2"]
        assert status["totals"]["rebalances"] == 1
        assert status["totals"]["moved_keys"] > 0
        # Every node is still minded by a surviving shard.
        assert fleet.tracked_nodes() == sorted(self.NODES)
        # Scoring resumed after the rebalance: survivors produced verdicts
        # for nodes the dead worker owned.
        dead_nodes = set(fleet.workers["w1"].tracked_nodes())
        assert dead_nodes
        rescored = {
            (v.job_id, v.component_id) for v in verdicts
        } & dead_nodes
        assert rescored
        # Anything dropped is counted, never silent.
        assert status["totals"]["shed_chunks"] >= 0
        assert status["totals"]["redelivered"] > 0
        assert json.dumps(status)  # JSON-serialisable for `fleet status`

    def test_last_worker_death_is_fatal(self):
        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=1,
            stream_kwargs=STREAM_KW, heartbeat_timeout=1,
        )
        faults = FleetFaultSchedule([WorkerFailure("w0", after_chunks=2)])
        with pytest.raises(RuntimeError, match="no replacement"):
            fleet.run_stream(iter(self.chunks()), pump_every=4, faults=faults)

    def test_overload_sheds_oldest_and_reports(self):
        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=2,
            queue_capacity=2, stream_kwargs=STREAM_KW,
        )
        # Submit everything without ever pumping: queues must shed.
        for chunk in self.chunks():
            fleet.submit(chunk)
        status = fleet.status()
        assert status["totals"]["shed_chunks"] > 0
        assert status["totals"]["backpressure_events"] > 0
        queued = sum(w["queued"] for w in status["workers"])
        assert queued <= 2 * fleet.queue_capacity
        # Conservation: every submitted chunk is queued, scored, or shed.
        drained = sum(w["drained_chunks"] for w in status["workers"])
        assert queued + drained + status["totals"]["shed_chunks"] == \
            status["totals"]["submitted"]

    def test_backpressure_signalled_at_high_watermark(self):
        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=1,
            queue_capacity=8, high_watermark=2, stream_kwargs=STREAM_KW,
        )
        results = [fleet.submit(c) for c in node_chunks(1, 0, n=40, size=10)]
        assert results[0] is True
        assert False in results
        assert fleet.backpressure_events > 0

    def test_add_worker_moves_bounded_keys(self):
        chunks = self.chunks()
        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=2, stream_kwargs=STREAM_KW
        )
        fleet.run_stream(iter(chunks[:16]), pump_every=4)
        tracked_before = fleet.tracked_nodes()
        fleet.add_worker("w9")
        assert "w9" in fleet.workers and "w9" in fleet.router
        moved = fleet.moved_keys
        assert moved < len(tracked_before)  # strictly partial handover
        # Continue the stream: the newcomer picks up its keys.
        fleet.run_stream(iter(chunks[16:]), pump_every=4)
        assert fleet.tracked_nodes() == sorted(self.NODES)

    def test_per_shard_timings_recorded(self):
        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=2, stream_kwargs=STREAM_KW
        )
        fleet.run_stream(iter(self.chunks()), pump_every=4)
        timings = fleet.status()["shard_timings"]
        assert set(timings) == {"w0", "w1"}
        assert all(t["calls"] > 0 for t in timings.values())

    def test_calibrate_fans_threshold_to_all_workers(self):
        fleet = FleetCoordinator(
            EnginePipeline(), MeanDetector(), n_workers=3, stream_kwargs=STREAM_KW
        )
        rng = np.random.default_rng(5)
        healthy = NodeSeries(
            7, 0, np.arange(60.0), rng.random((60, 3)), ("m0", "m1", "m2")
        )
        threshold = fleet.calibrate([healthy])
        assert fleet.threshold_ == threshold
        assert all(
            w.stream.threshold_ == threshold for w in fleet.workers.values()
        )


class _StubLifecycle:
    """Deferred-promotion double: promotes a scripted detector once."""

    def __init__(self, promoted):
        self.defer_promotions = False
        self._promoted = promoted
        self._pending = None
        self.observed = 0

    def observe_window(self, window, features, score, *, alert, active_detector):
        self.observed += 1
        if self._promoted is not None and self.observed >= 4:
            promoted, self._promoted = self._promoted, None
            if self.defer_promotions:
                self._pending = promoted
                return None
            return promoted
        return None

    def take_pending_promotion(self):
        pending, self._pending = self._pending, None
        return pending


class TestPromotionFanout:
    def test_promotion_applies_to_every_worker_at_pump_boundary(self):
        old = MeanDetector(threshold=0.5)
        new = MeanDetector(threshold=0.9)
        lifecycle = _StubLifecycle(new)
        fleet = FleetCoordinator(
            EnginePipeline(), old, n_workers=3,
            stream_kwargs=STREAM_KW, lifecycle=lifecycle,
        )
        # Attaching the coordinator turns deferral on: streams never
        # self-swap mid-batch.
        assert lifecycle.defer_promotions is True
        chunks = interleave([node_chunks(1, c) for c in range(6)])
        fleet.run_stream(iter(chunks), pump_every=4)
        assert fleet.promotion_fanouts == 1
        assert fleet.detector is new
        assert all(w.stream.detector is new for w in fleet.workers.values())
        assert all(
            w.stream.threshold_ == new.threshold_ for w in fleet.workers.values()
        )
