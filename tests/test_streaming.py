"""Tests for the online/streaming detector."""

import numpy as np
import pytest

from repro.anomalies import MemLeak
from repro.core import ProdigyDetector
from repro.features import FeatureExtractor
from repro.monitoring import StreamingDetector
from repro.pipeline import DataPipeline
from repro.runtime import ExecutionConfig, Instrumentation, ParallelExtractor
from repro.telemetry import NodeSeries
from repro.workloads import ECLIPSE, ECLIPSE_APPS, JobRunner, JobSpec


@pytest.fixture(scope="module")
def stream_deployment(catalog, labeled_runs, tiny_extractor):
    """A fitted pipeline/detector plus fresh healthy and leaking runs."""
    series = [r[0] for r in labeled_runs]
    labels = [r[1] for r in labeled_runs]
    pipe = DataPipeline(tiny_extractor, n_features=48)
    samples = pipe.engine.extract(series, labels)
    pipe.fit(samples)
    det = ProdigyDetector(
        hidden_dims=(16, 8), latent_dim=4, epochs=80, batch_size=8,
        learning_rate=1e-3, seed=2,
    )
    transformed = pipe.transform_samples(samples)
    det.fit(transformed.features, transformed.labels)

    runner = JobRunner(ECLIPSE, catalog=catalog, seed=77)
    healthy = runner.run(
        JobSpec(job_id=50, app=ECLIPSE_APPS["lammps"], n_nodes=1, duration_s=240)
    )
    # A severe leak (100 MB/s) so the trend is visible within one window —
    # milder leaks need the full run to accumulate, which is exactly why the
    # paper scores completed runs.
    leaking = runner.run(
        JobSpec(
            job_id=51, app=ECLIPSE_APPS["lammps"], n_nodes=1, duration_s=240,
            anomalies={0: MemLeak(100.0, 1.0)},
        )
    )
    from repro.telemetry import standard_preprocess

    h = standard_preprocess(
        healthy.frame.node_series(50, healthy.component_ids[0]), catalog.counter_names, trim_seconds=0
    )
    a = standard_preprocess(
        leaking.frame.node_series(51, leaking.component_ids[0]), catalog.counter_names, trim_seconds=0
    )
    return pipe, det, h, a


def chunks_of(series: NodeSeries, size: int):
    for start in range(0, series.n_timestamps, size):
        end = min(start + size, series.n_timestamps)
        if end - start < 1:
            continue
        yield NodeSeries(
            series.job_id,
            series.component_id,
            series.timestamps[start:end],
            series.values[start:end],
            series.metric_names,
        )


class TestStreamingDetector:
    def test_verdicts_emitted_on_schedule(self, stream_deployment):
        pipe, det, healthy, _ = stream_deployment
        stream = StreamingDetector(pipe, det, window_seconds=120, evaluate_every=30)
        verdicts = [v for c in chunks_of(healthy, 30) if (v := stream.ingest(c))]
        assert len(verdicts) >= 3
        assert all(v.component_id == healthy.component_id for v in verdicts)
        # window_end moves forward.
        ends = [v.window_end for v in verdicts]
        assert ends == sorted(ends)

    def test_calibration_raises_threshold(self, stream_deployment):
        pipe, det, healthy, _ = stream_deployment
        stream = StreamingDetector(pipe, det, window_seconds=120, evaluate_every=30)
        before = stream.threshold_
        after = stream.calibrate([healthy])
        # Windowed healthy scores exceed run-level ones, so the calibrated
        # threshold is at least as large.
        assert after >= before * 0.5
        assert stream.threshold_ == after

    def test_healthy_stream_rarely_alerts_after_calibration(self, stream_deployment):
        pipe, det, healthy, _ = stream_deployment
        stream = StreamingDetector(pipe, det, window_seconds=120, evaluate_every=30,
                                   consecutive_alerts=2)
        stream.calibrate([healthy])
        verdicts = [v for c in chunks_of(healthy, 30) if (v := stream.ingest(c))]
        alert_rate = np.mean([v.alert for v in verdicts])
        assert alert_rate <= 0.5

    def test_leak_stream_alerts_eventually(self, stream_deployment):
        pipe, det, healthy, leaking = stream_deployment
        stream = StreamingDetector(pipe, det, window_seconds=120, evaluate_every=30,
                                   consecutive_alerts=2)
        stream.calibrate([healthy])
        verdicts = [v for c in chunks_of(leaking, 30) if (v := stream.ingest(c))]
        assert any(v.alert for v in verdicts)
        # Once the leak saturates the scaled feature range, every subsequent
        # window stays over threshold — the streak only grows.
        streaks = [v.streak for v in verdicts if v.streak]
        assert streaks == sorted(streaks)

    def test_out_of_order_chunk_rejected(self, stream_deployment):
        pipe, det, healthy, _ = stream_deployment
        stream = StreamingDetector(pipe, det)
        chunks = list(chunks_of(healthy, 40))
        stream.ingest(chunks[1])
        with pytest.raises(ValueError, match="out-of-order"):
            stream.ingest(chunks[0])

    def test_reset_clears_state(self, stream_deployment):
        pipe, det, healthy, _ = stream_deployment
        stream = StreamingDetector(pipe, det)
        stream.ingest(next(chunks_of(healthy, 40)))
        assert stream.tracked_nodes() == [(healthy.job_id, healthy.component_id)]
        stream.reset(healthy.job_id, healthy.component_id)
        assert stream.tracked_nodes() == []

    def test_tracked_nodes_sorted_regardless_of_ingest_order(self, stream_deployment):
        pipe, det, healthy, _ = stream_deployment
        stream = StreamingDetector(pipe, det)
        chunk = next(chunks_of(healthy, 40))
        # Ingest in deliberately scrambled key order.
        for job, comp in [(7, 3), (2, 9), (7, 1), (2, 2), (11, 0)]:
            stream.ingest(
                NodeSeries(job, comp, chunk.timestamps, chunk.values, chunk.metric_names)
            )
        assert stream.tracked_nodes() == [(2, 2), (2, 9), (7, 1), (7, 3), (11, 0)]

    def test_validation(self, stream_deployment):
        pipe, det, _, _ = stream_deployment
        with pytest.raises(ValueError):
            StreamingDetector(pipe, det, window_seconds=0)
        with pytest.raises(ValueError):
            StreamingDetector(pipe, det, evaluate_every=0)

    def test_empty_chunk_rejected_with_node_key(self, stream_deployment):
        pipe, det, healthy, _ = stream_deployment
        stream = StreamingDetector(pipe, det)
        empty = NodeSeries(
            healthy.job_id, healthy.component_id,
            healthy.timestamps[:0], healthy.values[:0], healthy.metric_names,
        )
        with pytest.raises(ValueError, match=r"empty chunk for node \(50, "):
            stream.ingest(empty)

    def test_same_width_chunk_with_other_columns_rejected(self, stream_deployment):
        pipe, det, healthy, _ = stream_deployment
        stream = StreamingDetector(pipe, det)
        first, second = list(chunks_of(healthy, 40))[:2]
        stream.ingest(first)
        names = healthy.metric_names
        reordered = names[-1:] + names[:-1]
        renamed = tuple(f"x{i}" for i in range(len(names)))
        for other in (reordered, renamed):
            chunk = NodeSeries(
                healthy.job_id, healthy.component_id,
                second.timestamps, second.values, other,
            )
            with pytest.raises(ValueError, match=r"chunk for node \(50, \d+\) has metrics"):
                stream.ingest(chunk)
        key = f"{healthy.job_id}:{healthy.component_id}"
        assert stream.runtime_stats()["buffered_samples"] == {key: 40}

    def test_calibrate_matches_legacy_mask_scan(self, stream_deployment):
        """searchsorted window bounds are bit-identical to the old O(T^2) mask."""
        pipe, det, healthy, _ = stream_deployment
        stream = StreamingDetector(pipe, det, window_seconds=120, evaluate_every=30)
        new_threshold = stream.calibrate([healthy])

        # The pre-searchsorted implementation, inlined: one boolean age mask
        # over the whole prefix per step.  Its windows are scored through
        # the pipeline transform calibrate uses, one detector call per window.
        windows = []
        step = stream.evaluate_every
        ts = healthy.timestamps
        for end in range(step, healthy.n_timestamps + 1, step):
            mask = ts[:end] >= ts[end - 1] - stream.window_seconds
            if mask.sum() < 8:
                continue
            window = NodeSeries(
                healthy.job_id, healthy.component_id,
                ts[:end][mask], healthy.values[:end][mask], healthy.metric_names,
            )
            if window.duration < stream.window_seconds * 0.5:
                continue
            windows.append(window)
        scores = [
            float(det.anomaly_score(row[None, :])[0])
            for row in pipe.transform_series(windows)
        ]
        assert new_threshold == float(np.percentile(scores, 99.0))


class _EnginePipeline:
    """Minimal pipeline: window features straight from a runtime engine."""

    def __init__(self):
        self.engine = ParallelExtractor(
            FeatureExtractor(resample_points=16),
            config=ExecutionConfig(n_workers=1, cache_size=32),
            instrumentation=Instrumentation(),
        )

    def transform_single(self, window: NodeSeries) -> np.ndarray:
        return self.engine.extract_matrix([window])[0]

    def transform_series(self, windows) -> np.ndarray:
        return self.engine.extract_matrix(list(windows))[0]


class _ScriptedDetector:
    """Detector whose scores follow a fixed script — exercises the debounce."""

    def __init__(self, scores):
        self.threshold_ = 0.5
        self._scores = list(scores)
        self._i = 0

    def anomaly_score(self, features: np.ndarray) -> np.ndarray:
        score = self._scores[min(self._i, len(self._scores) - 1)]
        self._i += 1
        return np.array([score])


def scripted_stream(scores, **kwargs):
    return StreamingDetector(_EnginePipeline(), _ScriptedDetector(scores), **kwargs)


def synthetic_series(n=60, n_metrics=3, job_id=9, seed=3):
    rng = np.random.default_rng(seed)
    return NodeSeries(
        job_id, 0,
        np.arange(float(n)),
        rng.random((n, n_metrics)),
        tuple(f"m{i}" for i in range(n_metrics)),
    )


class TestDebounce:
    """Alert debounce semantics under the runtime-engine path."""

    def run_script(self, scores, consecutive_alerts):
        stream = scripted_stream(
            scores,
            window_seconds=16, evaluate_every=10, consecutive_alerts=consecutive_alerts,
        )
        series = synthetic_series(n=10 * len(scores))
        return [v for c in chunks_of(series, 10) if (v := stream.ingest(c))]

    def test_streak_resets_after_below_threshold_window(self):
        verdicts = self.run_script([1, 1, 0, 1, 1, 1], consecutive_alerts=3)
        assert [v.streak for v in verdicts] == [1, 2, 0, 1, 2, 3]

    def test_alert_fires_only_at_consecutive_alerts(self):
        verdicts = self.run_script([1, 1, 0, 1, 1, 1], consecutive_alerts=3)
        assert [v.alert for v in verdicts] == [False] * 5 + [True]

    def test_alert_stays_on_while_streak_holds(self):
        verdicts = self.run_script([1, 1, 1, 1], consecutive_alerts=2)
        assert [v.alert for v in verdicts] == [False, True, True, True]

    def test_stream_replay_hits_feature_cache(self):
        pipe = _EnginePipeline()
        stream = StreamingDetector(
            pipe, _ScriptedDetector([0.0]),
            window_seconds=16, evaluate_every=10, consecutive_alerts=2,
        )
        series = synthetic_series(n=40)
        chunks = list(chunks_of(series, 10))
        assert sum(1 for c in chunks if stream.ingest(c)) == 4
        assert pipe.engine.cache.hits == 0

        # Restarting over buffered telemetry replays identical windows, so
        # the content-hash cache serves every evaluation.
        stream.reset(series.job_id, series.component_id)
        for c in chunks:
            stream.ingest(c)
        assert pipe.engine.cache.hits == 4
        assert pipe.engine.instrumentation.counter("stream_evaluations") == 8

    def test_runtime_stats_exposes_engine_and_buffers(self):
        stream = scripted_stream([0.0], window_seconds=16, evaluate_every=10)
        stream.ingest(next(chunks_of(synthetic_series(n=10), 10)))
        stats = stream.runtime_stats()
        assert stats["cache"]["misses"] == 1
        assert stats["buffered_samples"] == {"9:0": 10}

    def test_buffer_trimmed_on_every_chunk(self):
        """A node whose windows never come due still holds bounded memory."""
        stream = scripted_stream(
            [0.0], window_seconds=16, evaluate_every=10**9
        )
        series = synthetic_series(n=500)
        for chunk in chunks_of(series, 10):
            assert stream.ingest(chunk) is None
        # One-second cadence: at most window_seconds + one chunk of rows can
        # be live right after an append; with lazy trimming all 500 would be.
        buffered = stream.runtime_stats()["buffered_samples"]["9:0"]
        assert buffered <= 16 + 10 + 1
        state = stream._states[(9, 0)]
        assert state.ring.total_evicted >= 500 - buffered
