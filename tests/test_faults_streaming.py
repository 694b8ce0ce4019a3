"""The faults <-> streaming seam: sensor faults must raise stream scores.

A :class:`SensorFault` (stuck or noisy sensor) destroys the temporal
structure the feature extractor measures, so windows overlapping the
fault should score above healthy windows — and healthy windows should
not alert after calibration.  The detector here is a deterministic
z-score over healthy feature statistics, so the test pins the seam
without training a model.
"""

import numpy as np
import pytest

from repro.features import FeatureExtractor
from repro.monitoring import SensorFault, StreamingDetector
from repro.runtime import ExecutionConfig, Instrumentation, ParallelExtractor
from repro.telemetry import NodeSeries

METRICS = ("cpu_user", "mem_free", "net_rx")


class EnginePipeline:
    def __init__(self):
        self.engine = ParallelExtractor(
            FeatureExtractor(resample_points=16),
            config=ExecutionConfig(n_workers=1, cache_size=256),
            instrumentation=Instrumentation(),
        )

    def transform_single(self, window):
        return self.engine.extract_matrix([window])[0]

    def transform_series(self, windows):
        return self.engine.extract_matrix(list(windows))[0]


class ZScoreDetector:
    """Mean |z| of a feature row against healthy statistics."""

    def __init__(self, healthy_features: np.ndarray):
        self.mean_ = healthy_features.mean(axis=0)
        self.std_ = np.maximum(healthy_features.std(axis=0), 1e-9)
        self.threshold_ = 1.0

    def anomaly_score(self, features: np.ndarray) -> np.ndarray:
        z = np.abs((features - self.mean_) / self.std_)
        return z.mean(axis=1)


def smooth_series(job_id=1, component_id=0, n=240, seed=0):
    """Structured telemetry: slow oscillations plus small noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(float(n))
    values = np.column_stack([
        50 + 10 * np.sin(2 * np.pi * t / 60 + k) + rng.normal(0, 0.5, n)
        for k in range(len(METRICS))
    ])
    return NodeSeries(job_id, component_id, t, values, METRICS)


def chunks_of(series, size):
    for start in range(0, series.n_timestamps, size):
        end = min(start + size, series.n_timestamps)
        yield NodeSeries(
            series.job_id, series.component_id,
            series.timestamps[start:end], series.values[start:end],
            series.metric_names,
        )


@pytest.fixture(scope="module")
def deployment():
    """Pipeline + z-score detector fitted on healthy windows, calibrated."""
    pipeline = EnginePipeline()
    healthy = [smooth_series(job_id=j, seed=j) for j in range(4)]
    windows = []
    for series in healthy:
        windows.extend(
            NodeSeries(series.job_id, series.component_id,
                       series.timestamps[s:s + 60], series.values[s:s + 60],
                       series.metric_names)
            for s in range(0, series.n_timestamps - 60, 30)
        )
    detector = ZScoreDetector(pipeline.transform_series(windows))
    stream = StreamingDetector(
        pipeline, detector,
        window_seconds=60, evaluate_every=30, consecutive_alerts=2,
    )
    threshold = stream.calibrate([smooth_series(job_id=90, seed=90)])
    return pipeline, detector, threshold


def run_stream(deployment, series):
    pipeline, detector, threshold = deployment
    stream = StreamingDetector(
        pipeline, detector,
        window_seconds=60, evaluate_every=30, consecutive_alerts=2,
    )
    stream.threshold_ = threshold
    return [v for c in chunks_of(series, 30) if (v := stream.ingest(c))]


class TestSensorFaultModel:
    def test_stuck_holds_window_start_value(self):
        series = smooth_series()
        fault = SensorFault(("cpu_user",), start_fraction=0.5, duration_fraction=0.4)
        faulted = fault.apply(series)
        start, end = fault.window(series)
        mask = (series.timestamps >= start) & (series.timestamps <= end)
        col = series.metric_index("cpu_user")
        assert np.all(faulted.values[mask, col] == faulted.values[np.argmax(mask), col])
        # Other metrics and out-of-window samples are untouched.
        assert np.array_equal(faulted.values[~mask], series.values[~mask])
        other = series.metric_index("mem_free")
        assert np.array_equal(faulted.values[:, other], series.values[:, other])

    def test_noise_mode_is_seeded_and_in_window(self):
        series = smooth_series()
        fault = SensorFault(("net_rx",), mode="noise", duration_fraction=0.3)
        a = fault.apply(series, seed=7)
        b = fault.apply(series, seed=7)
        assert np.array_equal(a.values, b.values)
        start, end = fault.window(series)
        mask = (series.timestamps >= start) & (series.timestamps <= end)
        col = series.metric_index("net_rx")
        assert not np.array_equal(a.values[mask, col], series.values[mask, col])

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one metric"):
            SensorFault(())
        with pytest.raises(ValueError, match="start_fraction"):
            SensorFault(("m",), start_fraction=1.5)
        with pytest.raises(ValueError, match="mode"):
            SensorFault(("m",), mode="explode")


class TestFaultStreamingSeam:
    def test_healthy_stream_stays_quiet(self, deployment):
        verdicts = run_stream(deployment, smooth_series(job_id=10, seed=10))
        assert verdicts
        assert not any(v.alert for v in verdicts)

    def test_stuck_sensor_raises_scores_in_fault_windows(self, deployment):
        series = smooth_series(job_id=11, seed=11)
        fault = SensorFault(
            ("cpu_user", "mem_free"), start_fraction=0.5, duration_fraction=0.5
        )
        healthy_verdicts = run_stream(deployment, series)
        faulted_verdicts = run_stream(deployment, fault.apply(series))
        start, _ = fault.window(series)

        def split(verdicts):
            pre = [v.anomaly_score for v in verdicts if v.window_end < start]
            post = [v.anomaly_score for v in verdicts if v.window_end >= start + 60]
            return pre, post

        _, healthy_post = split(healthy_verdicts)
        faulted_pre, faulted_post = split(faulted_verdicts)
        # Fault windows score well above the same stream's pre-fault windows
        # and above the unfaulted replay of the same telemetry.
        assert np.mean(faulted_post) > 2 * np.mean(faulted_pre)
        assert np.mean(faulted_post) > 2 * np.mean(healthy_post)
        # And the debounced alert actually fires inside the fault.
        assert any(v.alert for v in faulted_verdicts if v.window_end >= start)
        assert not any(v.alert for v in faulted_verdicts if v.window_end < start)

    def test_noise_fault_also_detectable(self, deployment):
        series = smooth_series(job_id=12, seed=12)
        fault = SensorFault(
            METRICS, mode="noise", start_fraction=0.4, duration_fraction=0.6
        )
        verdicts = run_stream(deployment, fault.apply(series, seed=3))
        start, _ = fault.window(series)
        assert any(v.alert for v in verdicts if v.window_end >= start)
