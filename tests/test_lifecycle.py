"""Tests for the model lifecycle subsystem.

Drift monitoring (quiet on in-distribution traffic, fires on shift,
debounce suppresses flapping), the versioned registry's transition
semantics, shadow promotion criteria, and the end-to-end
drift -> retrain -> shadow -> promote -> rollback acceptance flow.
"""

import json

import numpy as np
import pytest

from repro.core import ProdigyDetector
from repro.lifecycle import (
    DriftMonitor,
    HealthySampleBuffer,
    LifecycleManager,
    ModelRegistry,
    ReferenceProfile,
    RetrainingPolicy,
    ShadowDeployment,
    clone_detector,
    ks_statistic,
    psi,
)
from repro.lifecycle.drift import _bin_counts, _quantile_bins
from repro.pipeline import DataPipeline
from repro.pipeline.modeltrainer import ModelTrainer


# -- statistics ---------------------------------------------------------------


class TestStatistics:
    def test_ks_identical_is_zero(self):
        x = np.linspace(0, 1, 100)
        assert ks_statistic(x, x) == 0.0

    def test_ks_disjoint_is_one(self):
        assert ks_statistic(np.zeros(50), np.ones(50) * 10) == 1.0

    def test_ks_empty_is_zero(self):
        assert ks_statistic(np.array([]), np.ones(5)) == 0.0

    def test_psi_identical_is_small(self):
        rng = np.random.default_rng(0)
        ref = rng.normal(size=2000)
        edges, props = _quantile_bins(ref, 10)
        assert psi(props, edges, ref) < 0.01

    def test_psi_shift_is_large(self):
        rng = np.random.default_rng(0)
        ref = rng.normal(size=2000)
        edges, props = _quantile_bins(ref, 10)
        assert psi(props, edges, ref + 3.0) > 1.0

    def test_psi_bins_keep_histogram_rules(self):
        """+inf lands in the last bin, -inf in the first; NaN is not counted."""
        edges = np.array([-np.inf, -1.0, 0.0, 1.0, np.inf])
        sample = np.array([-np.inf, -1.0, 0.0, 0.5, 1.0, np.inf, np.nan])
        assert _bin_counts(edges, sample).tolist() == [1, 1, 2, 2]
        assert _bin_counts(edges, sample).tolist() == np.histogram(sample, edges)[0].tolist()
        # The NaN still counts in the sample size, as with np.histogram.
        expected = np.array([0.25, 0.25, 0.25, 0.25])
        actual = np.array([1, 1, 2, 2]) / sample.size
        want = float(np.sum((actual - expected) * np.log(actual / expected)))
        assert psi(expected, edges, sample) == want

    def test_psi_bins_match_histogram_on_random_windows(self):
        rng = np.random.default_rng(3)
        for k in range(300):
            edges, _ = _quantile_bins(rng.normal(size=200), int(rng.integers(4, 11)))
            window = rng.normal(size=16) * rng.uniform(0.5, 3.0)
            window[rng.integers(16)] = (np.inf, -np.inf, np.nan, edges[1])[k % 4]
            assert np.array_equal(
                _bin_counts(edges, window), np.histogram(window, bins=edges)[0]
            )


class TestReferenceProfile:
    def test_watches_top_variance_features(self):
        rng = np.random.default_rng(1)
        features = rng.normal(size=(100, 5))
        features[:, 2] *= 10.0  # dominant variance
        profile = ReferenceProfile(
            rng.random(100), features, [f"f{i}" for i in range(5)], watch_features=2
        )
        assert len(profile.watched) == 2
        assert "f2" in [w[0] for w in profile.watched]

    def test_arrays_roundtrip(self):
        rng = np.random.default_rng(2)
        profile = ReferenceProfile(
            rng.random(64), rng.normal(size=(64, 4)), list("abcd"), watch_features=3
        )
        rebuilt = ReferenceProfile.from_arrays(profile.to_arrays())
        np.testing.assert_array_equal(rebuilt.scores, profile.scores)
        assert [w[:2] for w in rebuilt.watched] == [w[:2] for w in profile.watched]

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            ReferenceProfile(np.array([]))

    def test_reference_subsampled_to_cap(self):
        profile = ReferenceProfile(np.arange(5000.0), max_reference=100)
        assert profile.scores.size <= 100


# -- drift monitor ------------------------------------------------------------


def reference_profile(seed=0, n=1024):
    rng = np.random.default_rng(seed)
    return ReferenceProfile(rng.normal(0.2, 0.05, size=n)), rng


class TestDriftMonitor:
    def test_identical_distribution_stays_quiet(self):
        """In-distribution windows emit nothing, through warmup and beyond."""
        for seed in (0, 1, 2):
            profile, rng = reference_profile(seed)
            monitor = DriftMonitor(profile, window_size=32, warmup_windows=2, debounce=2)
            events = []
            for score in rng.normal(0.2, 0.05, size=32 * 40):
                events.extend(monitor.observe(score))
            assert events == [], f"false drift with seed {seed}: {events}"
            assert monitor.windows_evaluated == 40

    def test_mean_variance_shift_fires_within_n_windows(self):
        """A sustained mean+variance shift is confirmed within a few windows."""
        profile, rng = reference_profile(3)
        monitor = DriftMonitor(profile, window_size=32, warmup_windows=2, debounce=2)
        # Warmup on in-distribution traffic first.
        for score in rng.normal(0.2, 0.05, size=32 * 2):
            monitor.observe(score)
        fired_at = None
        for i, score in enumerate(rng.normal(0.5, 0.15, size=32 * 6)):
            if monitor.observe(score):
                fired_at = i // 32 + 1
                break
        assert fired_at is not None and fired_at <= 4
        assert monitor.events and monitor.events[0].source == "score"

    def test_warmup_windows_never_fire(self):
        profile, _ = reference_profile(4)
        monitor = DriftMonitor(profile, window_size=32, warmup_windows=3, debounce=1)
        events = []
        for score in np.full(32 * 3, 5.0):  # grossly out of distribution
            events.extend(monitor.observe(score))
        assert events == []
        assert monitor.windows_evaluated == 3

    def test_debounce_suppresses_flapping(self):
        """Alternating breach/quiet windows never reach the debounce streak."""
        profile, rng = reference_profile(5)
        monitor = DriftMonitor(profile, window_size=32, warmup_windows=0, debounce=2)
        events = []
        for _ in range(6):  # breach, quiet, breach, quiet, ...
            for score in np.full(32, 5.0):
                events.extend(monitor.observe(score))
            for score in rng.normal(0.2, 0.05, size=32):
                events.extend(monitor.observe(score))
        assert events == []
        assert monitor.windows_evaluated == 12

    def test_event_fires_once_per_episode(self):
        """A long episode reports at streak == debounce, then stays silent."""
        profile, _ = reference_profile(6)
        monitor = DriftMonitor(profile, window_size=32, warmup_windows=0, debounce=2)
        fired_windows = []
        for w in range(8):
            out = []
            for score in np.full(32, 5.0):
                out.extend(monitor.observe(score))
            if out:
                fired_windows.append(w)
        assert fired_windows == [1]  # second breaching window only

    def test_quiet_window_rearms_episode(self):
        profile, rng = reference_profile(7)
        monitor = DriftMonitor(profile, window_size=32, warmup_windows=0, debounce=1)
        def feed(values):
            out = []
            for v in values:
                out.extend(monitor.observe(v))
            return out
        assert feed(np.full(32, 5.0))          # episode 1 fires
        assert not feed(rng.normal(0.2, 0.05, size=32))  # quiet re-arms
        assert feed(np.full(32, 5.0))          # episode 2 fires again

    def test_watched_feature_drift_detected(self):
        rng = np.random.default_rng(8)
        features = rng.normal(size=(512, 3))
        profile = ReferenceProfile(
            rng.normal(0.2, 0.05, size=512), features, list("abc"), watch_features=2
        )
        monitor = DriftMonitor(profile, window_size=32, warmup_windows=0, debounce=1)
        events = []
        for _ in range(32):  # scores stay in-distribution; features shift
            row = rng.normal(size=3) + np.array([8.0, 8.0, 8.0])
            events.extend(monitor.observe(rng.normal(0.2, 0.05), row))
        assert events
        assert any(e.source in ("a", "b", "c") for e in events)

    def test_summary_shape(self):
        profile, _ = reference_profile(9)
        monitor = DriftMonitor(profile, window_size=32)
        s = monitor.summary()
        assert s["window_size"] == 32 and s["events"] == 0

    def test_validation(self):
        profile, _ = reference_profile(10)
        with pytest.raises(ValueError):
            DriftMonitor(profile, window_size=2)
        with pytest.raises(ValueError):
            DriftMonitor(profile, debounce=0)
        with pytest.raises(ValueError):
            DriftMonitor(profile, warmup_windows=-1)


# -- shadow deployment --------------------------------------------------------


class _FixedDetector:
    """Stands in for a fitted detector: scores = input's first column."""

    def __init__(self, threshold=0.5, offset=0.0):
        self.threshold_ = threshold
        self.offset = offset

    def anomaly_score(self, features):
        return np.asarray(features)[:, 0] + self.offset


class TestShadowDeployment:
    def feed(self, shadow, rows, active_scores, active_alerts):
        report = None
        for row, sc, al in zip(rows, active_scores, active_alerts):
            report = shadow.observe(np.array([row]), sc, al)
        return report

    def test_promotes_agreeing_candidate(self):
        shadow = ShadowDeployment("v0002", _FixedDetector(threshold=10.0), eval_windows=4)
        rows = [0.1, 0.2, 0.3, 0.4]
        report = self.feed(shadow, rows, rows, [False] * 4)
        assert report.decision == "promote"
        assert report.score_correlation == pytest.approx(1.0)

    def test_rejects_alert_storm(self):
        # Candidate threshold 0.0 -> alerts on every window; active never did.
        shadow = ShadowDeployment(
            "v0002", _FixedDetector(threshold=0.0), eval_windows=4,
            max_alert_rate_increase=0.05, min_score_correlation=-1.0,
        )
        rows = [0.1, 0.2, 0.3, 0.4]
        report = self.feed(shadow, rows, rows, [False] * 4)
        assert report.decision == "reject"
        assert "alert rate" in report.reason

    def test_rejects_uncorrelated_scores(self):
        shadow = ShadowDeployment(
            "v0002", _FixedDetector(threshold=10.0), eval_windows=4,
            min_score_correlation=0.9,
        )
        report = self.feed(
            shadow, [0.1, 0.2, 0.3, 0.4], [0.4, 0.1, 0.3, 0.2], [False] * 4
        )
        assert report.decision == "reject"
        assert "correlation" in report.reason

    def test_no_report_until_window_full(self):
        shadow = ShadowDeployment("v0002", _FixedDetector(), eval_windows=5)
        assert shadow.observe(np.array([0.1]), 0.1, False) is None
        assert shadow.windows_observed == 1


# -- retraining policy & buffer ----------------------------------------------


class TestHealthySampleBuffer:
    def test_ring_semantics(self):
        buf = HealthySampleBuffer(capacity=3)
        for i in range(5):
            buf.add(i)  # NodeSeries in production; identity irrelevant here
        assert len(buf) == 3 and buf.series() == [2, 3, 4]
        buf.clear()
        assert len(buf) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthySampleBuffer(capacity=0)


class TestRetrainingPolicyGate:
    def test_requires_events_and_samples(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        policy = RetrainingPolicy(registry, min_samples=4)
        buf = HealthySampleBuffer(capacity=8)
        event = object()
        assert not policy.should_retrain([], buf, window_index=1)
        assert not policy.should_retrain([event], buf, window_index=1)
        for i in range(4):
            buf.add(i)
        assert policy.should_retrain([event], buf, window_index=1)

    def test_cooldown_blocks_immediate_retrigger(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        policy = RetrainingPolicy(registry, min_samples=2, cooldown_windows=5)
        buf = HealthySampleBuffer()
        buf.add(0), buf.add(1)
        policy._cooldown_until = 10
        assert not policy.should_retrain([object()], buf, window_index=9)
        assert policy.should_retrain([object()], buf, window_index=10)


def test_retrain_on_mixed_buffer_registers_masked_candidate(tmp_path):
    """A healthy buffer of CPU and GPU windows retrains like any other."""
    from repro.features import FeatureExtractor
    from repro.telemetry import NodeSeries

    rng = np.random.default_rng(0)

    def windows(names, n, job_id):
        return [NodeSeries(job_id, c, np.arange(60.0), rng.random((60, len(names))), names)
                for c in range(n)]

    series = windows(("a", "b"), 6, 1) + windows(("a", "b", "gpu0"), 6, 2)
    pipe, _ = DataPipeline(FeatureExtractor(resample_points=16), n_features=16).fit_from_series(
        series, np.arange(len(series)) % 2
    )
    active = ProdigyDetector(hidden_dims=(8,), latent_dim=2, epochs=3, batch_size=4, seed=1)
    buf = HealthySampleBuffer(capacity=16)
    for s in series:
        buf.add(s)
    registry = ModelRegistry(tmp_path / "reg")
    version = RetrainingPolicy(registry, min_samples=2).retrain(pipe, active, buf)
    assert registry.get(version.version).status == "candidate"

    transformed = pipe.transform_samples(pipe.engine.extract(buf.series()))
    assert transformed.present is not None
    masked = clone_detector(active).fit(transformed.features, present=transformed.present)
    _, candidate = registry.load(version.version)
    assert candidate.threshold_ == masked.threshold_


def test_clone_detector_copies_architecture():
    det = ProdigyDetector(hidden_dims=(16, 8), latent_dim=4, epochs=80, seed=2)
    clone = clone_detector(det, seed=9)
    assert clone.hidden_dims == det.hidden_dims
    assert clone.latent_dim == det.latent_dim
    assert clone.epochs == det.epochs


# -- registry -----------------------------------------------------------------


@pytest.fixture(scope="module")
def deployment(labeled_runs, tiny_extractor):
    """A fitted (pipeline, detector, samples) triple shared by registry tests."""
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
    return pipe, det, samples


class TestModelRegistry:
    def test_register_activate_roundtrip(self, deployment, tmp_path):
        pipe, det, _ = deployment
        registry = ModelRegistry(tmp_path / "reg")
        record = registry.register(pipe, det, note="first")
        assert record.version == "v0001" and record.status == "registered"
        registry.activate("v0001", reason="go live")
        assert registry.active_version == "v0001"
        pipe2, det2 = registry.load()
        assert det2.threshold_ == pytest.approx(det.threshold_)

    def test_trained_artifacts_import_carries_lineage(self, deployment, tmp_path):
        pipe, det, samples = deployment
        trainer = ModelTrainer(pipe, clone_detector(det, seed=5), tmp_path / "art")
        trainer.train(samples)
        registry = ModelRegistry(tmp_path / "reg")
        record = registry.register_artifacts(tmp_path / "art", note="import")
        assert record.lineage["fingerprint"]["n_rows"] == samples.n_samples
        registry.activate(record.version)
        profile = registry.load_profile()
        assert profile is not None and profile.scores.size > 0

    def test_rollback_restores_previous(self, deployment, tmp_path):
        pipe, det, _ = deployment
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(pipe, det)
        registry.register(pipe, det)
        registry.activate("v0001")
        registry.activate("v0002")
        record = registry.rollback(reason="bad deploy")
        assert record.version == "v0001"
        assert registry.active_version == "v0001"
        assert registry.get("v0002").status == "retired"

    def test_rollback_without_history_raises(self, deployment, tmp_path):
        pipe, det, _ = deployment
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(pipe, det)
        registry.activate("v0001")
        with pytest.raises(ValueError, match="no previous activation"):
            registry.rollback()

    def test_rejected_cannot_activate(self, deployment, tmp_path):
        pipe, det, _ = deployment
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(pipe, det, status="candidate")
        registry.reject("v0001", reason="failed shadow")
        with pytest.raises(ValueError, match="rejected"):
            registry.activate("v0001")

    def test_gc_keeps_active_and_recent(self, deployment, tmp_path):
        pipe, det, _ = deployment
        registry = ModelRegistry(tmp_path / "reg")
        for _ in range(4):
            registry.register(pipe, det)
        registry.activate("v0001")
        removed = registry.gc(keep=1)
        assert removed == ["v0002", "v0003"]
        assert (tmp_path / "reg" / "v0001").exists()
        assert (tmp_path / "reg" / "v0004").exists()
        assert not (tmp_path / "reg" / "v0002").exists()

    def test_state_survives_reopen(self, deployment, tmp_path):
        pipe, det, _ = deployment
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(pipe, det)
        registry.activate("v0001")
        reopened = ModelRegistry(tmp_path / "reg")
        assert reopened.active_version == "v0001"
        assert [v.version for v in reopened.list_versions()] == ["v0001"]

    def test_audit_log_records_transitions(self, deployment, tmp_path):
        pipe, det, _ = deployment
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(pipe, det)
        registry.activate("v0001", reason="initial")
        events = [e["event"] for e in registry.audit_log()]
        assert events == ["register", "activate"]
        assert registry.audit_log(limit=1)[0]["event"] == "activate"

    def test_unknown_version_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(KeyError, match="v9999"):
            registry.get("v9999")


# -- end-to-end acceptance flow ----------------------------------------------


def chunks_of(series, size):
    """Successive NodeSeries slices of *size* timestamps (streaming chunks)."""
    from repro.telemetry import NodeSeries

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


def windows_from(series_list, size=25):
    """Chop preprocessed runs into short NodeSeries windows."""
    out = []
    for series in series_list:
        out.extend(chunks_of(series, size))
    return out


class TestEndToEndLifecycle:
    def test_drift_retrain_shadow_promote_rollback(
        self, deployment, labeled_runs, tmp_path, capsys
    ):
        """The acceptance flow: v1 live -> drift -> candidate v2 -> shadow
        promotes -> rollback restores v1, all visible in status + audit."""
        pipe, det, samples = deployment
        healthy = [r[0] for r in labeled_runs if r[1] == 0]

        # Train + register + activate v1 (carries fingerprint + reference).
        v1_dir = tmp_path / "v1-artifacts"
        ModelTrainer(pipe, clone_detector(det, seed=3), v1_dir).train(samples)
        registry = ModelRegistry(tmp_path / "reg")
        v1 = registry.register_artifacts(v1_dir, note="initial deployment")
        registry.activate(v1.version, reason="go live")
        _, active = registry.load()

        monitor = DriftMonitor(
            registry.load_profile(), window_size=8, warmup_windows=0, debounce=1,
        )
        policy = RetrainingPolicy(
            registry, min_samples=8, cooldown_windows=0,
            detector_factory=lambda d: ProdigyDetector(
                hidden_dims=(8, 4), latent_dim=2, epochs=15, batch_size=4,
                learning_rate=1e-3, seed=7,
            ),
        )
        manager = LifecycleManager(
            registry, pipe,
            monitor=monitor, policy=policy, buffer=HealthySampleBuffer(capacity=32),
            shadow_eval_windows=4,
            max_alert_rate_increase=1.0,       # lenient: this test exercises
            min_score_correlation=-1.0,        # the mechanics, not the bar
        )

        # Live traffic whose scores sit far outside the training profile.
        shift = float(monitor.profile.scores.max()) + 1.0
        rng = np.random.default_rng(17)
        promoted = None
        for i, window in enumerate(windows_from(healthy)):
            row = pipe.transform_single(window)[0]
            score = shift + float(rng.normal(scale=0.05))
            promoted = manager.observe_window(
                window, row, score, alert=False, active_detector=active,
            )
            if promoted is not None:
                break

        # Shadow promoted the retrained candidate and returned its detector.
        assert promoted is not None
        assert registry.active_version == "v0002"
        assert registry.get("v0001").status == "retired"
        assert registry.get("v0002").source == "drift_retraining"
        assert promoted.threshold_ > 0
        assert manager.drift_events
        assert manager.shadow_reports[-1].decision == "promote"
        # The candidate carries its own lineage from the retraining buffer.
        assert registry.get("v0002").lineage["fingerprint"]["n_rows"] >= 8
        # No staging residue inside the registry.
        assert not (registry.root / ".staging").exists()

        # The whole story is in the audit log, in causal order.
        events = [e["event"] for e in registry.audit_log()]
        for needed in ("register", "activate", "drift", "shadow_start",
                       "shadow_report"):
            assert needed in events
        assert events.index("drift") < events.index("shadow_start")
        assert events.index("shadow_start") < events.index("shadow_report")

        # Rollback restores v1.
        restored = registry.rollback(reason="operator override")
        assert restored.version == "v0001"
        assert registry.active_version == "v0001"
        assert registry.get("v0002").status == "retired"

        # And `prodigy lifecycle status` renders the transitions.
        from repro.cli import main

        assert main(["lifecycle", "status", "--registry", str(registry.root)]) == 0
        out = capsys.readouterr().out
        assert "v0001" in out and "v0002" in out and "rollback" in out

    def test_deferred_promotion_is_parked_not_returned(
        self, deployment, labeled_runs, tmp_path
    ):
        """With ``defer_promotions`` set (the fleet coordinator's mode),
        ``observe_window`` never hands the promoted detector to the caller
        mid-stream; it parks it for ``take_pending_promotion``."""
        pipe, det, samples = deployment
        healthy = [r[0] for r in labeled_runs if r[1] == 0]

        v1_dir = tmp_path / "v1-artifacts"
        ModelTrainer(pipe, clone_detector(det, seed=3), v1_dir).train(samples)
        registry = ModelRegistry(tmp_path / "reg")
        v1 = registry.register_artifacts(v1_dir, note="initial deployment")
        registry.activate(v1.version, reason="go live")
        _, active = registry.load()

        manager = LifecycleManager(
            registry, pipe,
            monitor=DriftMonitor(
                registry.load_profile(), window_size=8, warmup_windows=0, debounce=1,
            ),
            policy=RetrainingPolicy(
                registry, min_samples=8, cooldown_windows=0,
                detector_factory=lambda d: ProdigyDetector(
                    hidden_dims=(8, 4), latent_dim=2, epochs=15, batch_size=4,
                    learning_rate=1e-3, seed=7,
                ),
            ),
            buffer=HealthySampleBuffer(capacity=32),
            shadow_eval_windows=4,
            max_alert_rate_increase=1.0,
            min_score_correlation=-1.0,
        )
        manager.defer_promotions = True

        shift = float(manager.monitor.profile.scores.max()) + 1.0
        rng = np.random.default_rng(17)
        pending = None
        for window in windows_from(healthy):
            row = pipe.transform_single(window)[0]
            score = shift + float(rng.normal(scale=0.05))
            returned = manager.observe_window(
                window, row, score, alert=False, active_detector=active,
            )
            assert returned is None  # never handed out mid-stream
            pending = manager.take_pending_promotion()
            if pending is not None:
                break

        assert pending is not None
        assert registry.active_version == "v0002"
        assert manager.take_pending_promotion() is None  # pop-and-clear
        assert manager.status()["defer_promotions"] is True

    def test_streaming_detector_feeds_lifecycle(self, deployment, labeled_runs, tmp_path):
        """StreamingDetector wires evaluated windows into the manager."""
        from repro.monitoring import StreamingDetector

        pipe, det, samples = deployment
        v1_dir = tmp_path / "v1"
        ModelTrainer(pipe, clone_detector(det, seed=4), v1_dir).train(samples)
        registry = ModelRegistry(tmp_path / "reg")
        registry.activate(registry.register_artifacts(v1_dir).version)
        manager = LifecycleManager(
            registry, pipe,
            monitor=DriftMonitor(registry.load_profile(), window_size=4,
                                 warmup_windows=0, debounce=1),
        )
        _, active = registry.load()
        stream = StreamingDetector(
            pipe, active, window_seconds=60, evaluate_every=20, lifecycle=manager,
        )
        healthy = [r[0] for r in labeled_runs if r[1] == 0][0]
        for chunk in chunks_of(healthy, 20):
            stream.ingest(chunk)
        assert manager.windows_observed >= 4
        stats = stream.runtime_stats()
        assert stats["lifecycle"]["monitor"]["windows_evaluated"] >= 1

    def test_manager_requires_profile_or_monitor(self, deployment, tmp_path):
        pipe, det, _ = deployment
        registry = ModelRegistry(tmp_path / "reg")
        registry.register(pipe, det)  # register() path has no reference
        registry.activate("v0001")
        with pytest.raises(ValueError, match="reference profile"):
            LifecycleManager(registry, pipe)

    def test_manager_status_payload(self, deployment, labeled_runs, tmp_path):
        pipe, det, samples = deployment
        v1_dir = tmp_path / "v1"
        ModelTrainer(pipe, clone_detector(det, seed=6), v1_dir).train(samples)
        registry = ModelRegistry(tmp_path / "reg")
        registry.activate(registry.register_artifacts(v1_dir).version)
        manager = LifecycleManager(registry, pipe)
        status = manager.status()
        assert status["registry"]["active"] == "v0001"
        assert status["windows_observed"] == 0
        assert status["shadow"] is None
        json.dumps(status)  # dashboard payloads must be JSON-serialisable
