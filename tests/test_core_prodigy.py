"""Tests for the ProdigyDetector and thresholding strategies."""

import numpy as np
import pytest

from repro.core import (
    ProdigyDetector,
    f1_sweep_threshold,
    max_threshold,
    percentile_threshold,
)
from repro.util import NotFittedError


@pytest.fixture(scope="module")
def blobs():
    """Healthy cluster around 0.45, anomalies around 0.85."""
    rng = np.random.default_rng(0)
    healthy = rng.random((200, 12)) * 0.2 + 0.35
    anomalous = rng.random((40, 12)) * 0.2 + 0.75
    return healthy, anomalous


@pytest.fixture(scope="module")
def fitted(blobs):
    healthy, _ = blobs
    det = ProdigyDetector(
        hidden_dims=(16, 8), latent_dim=3, epochs=120, batch_size=32,
        learning_rate=1e-3, seed=1,
    )
    det.fit(healthy)
    return det


class TestThresholds:
    def test_percentile(self):
        errors = np.linspace(0, 1, 101)
        assert percentile_threshold(errors, 99.0) == pytest.approx(0.99)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile_threshold(np.ones(5), 0.0)

    def test_max(self):
        assert max_threshold(np.array([0.1, 0.9, 0.5])) == 0.9

    def test_f1_sweep_finds_separator(self):
        scores = np.array([0.1, 0.2, 0.15, 0.8, 0.9])
        labels = np.array([0, 0, 0, 1, 1])
        thr, f1 = f1_sweep_threshold(scores, labels)
        assert 0.2 <= thr < 0.8
        assert f1 == pytest.approx(1.0)

    def test_f1_sweep_validation(self):
        with pytest.raises(ValueError):
            f1_sweep_threshold(np.ones(2), np.array([0, 1]), step=0.0)


class TestFit:
    def test_detects_blobs(self, fitted, blobs):
        healthy, anomalous = blobs
        assert fitted.predict(healthy).mean() < 0.1
        assert fitted.predict(anomalous).mean() > 0.9

    def test_labels_drop_anomalous(self, blobs):
        healthy, anomalous = blobs
        x = np.vstack([healthy, anomalous])
        y = np.r_[np.zeros(len(healthy), int), np.ones(len(anomalous), int)]
        det = ProdigyDetector(
            hidden_dims=(16, 8), latent_dim=3, epochs=80, batch_size=32,
            learning_rate=1e-3, seed=2,
        )
        det.fit(x, y)
        # Training on healthy only must still flag the anomalous cluster.
        assert det.predict(anomalous).mean() > 0.8

    def test_all_anomalous_rejected(self, blobs):
        _, anomalous = blobs
        det = ProdigyDetector(epochs=1)
        with pytest.raises(ValueError, match="healthy"):
            det.fit(anomalous, np.ones(len(anomalous), dtype=int))

    def test_unfitted_raises(self, blobs):
        det = ProdigyDetector()
        with pytest.raises(NotFittedError):
            det.anomaly_score(blobs[0])
        with pytest.raises(NotFittedError):
            det.predict(blobs[0])

    def test_threshold_is_99th_percentile_of_healthy_errors(self, fitted, blobs):
        healthy, _ = blobs
        errors = fitted.anomaly_score(healthy)
        assert fitted.threshold_ == pytest.approx(np.percentile(errors, 99.0))

    def test_history_recorded(self, fitted):
        assert fitted.history_.n_epochs > 0


class TestCalibration:
    def test_calibrate_with_scores(self, fitted, blobs):
        healthy, anomalous = blobs
        x = np.vstack([healthy[:50], anomalous])
        y = np.r_[np.zeros(50, int), np.ones(len(anomalous), int)]
        old = fitted.threshold_
        thr = fitted.calibrate_threshold(fitted.anomaly_score(x), y)
        assert thr == fitted.threshold_
        from repro.eval import f1_score_macro

        assert f1_score_macro(y, fitted.predict(x)) > 0.9
        fitted.set_threshold(old)  # restore for other tests

    def test_calibrate_with_features(self, fitted, blobs):
        healthy, anomalous = blobs
        x = np.vstack([healthy[:50], anomalous])
        y = np.r_[np.zeros(50, int), np.ones(len(anomalous), int)]
        old = fitted.threshold_
        thr = fitted.calibrate_threshold(x, y)
        assert thr > 0
        fitted.set_threshold(old)


class TestProba:
    def test_proba_shape_and_consistency(self, fitted, blobs):
        healthy, _ = blobs
        proba = fitted.predict_proba(healthy[:10])
        assert proba.shape == (10, 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        # P(anomalous) > 0.5 exactly where predict says anomalous.
        preds = fitted.predict(healthy[:10])
        np.testing.assert_array_equal((proba[:, 1] > 0.5).astype(int), preds)


class TestPersistence:
    def test_state_roundtrip(self, fitted, blobs):
        healthy, anomalous = blobs
        weights, config = fitted.get_state()
        clone = ProdigyDetector.from_state(weights, config)
        np.testing.assert_allclose(
            clone.anomaly_score(anomalous), fitted.anomaly_score(anomalous)
        )
        assert clone.threshold_ == fitted.threshold_
        np.testing.assert_array_equal(clone.predict(anomalous), fitted.predict(anomalous))

    def test_unfitted_state_raises(self):
        with pytest.raises(NotFittedError):
            ProdigyDetector().get_state()


class TestScoringContract:
    """A row's score is the same bits alone as in any batch of any order.

    Streaming scores each micro-batch in one call and calibration all its
    windows at once, so this is what makes them agree with one call per
    window.  The detector has perfbench's shape: 64 features, trunk
    (64, 32), latent 8.
    """

    @pytest.fixture(scope="class")
    def scored(self):
        rng = np.random.default_rng(29)
        train = rng.random((160, 64))
        det = ProdigyDetector(
            hidden_dims=(64, 32), latent_dim=8, epochs=3, batch_size=16,
            patience=None, seed=3,
        ).fit(train)
        rows = rng.random((96, 64)) * 1.2 - 0.1
        return det, rows, det.anomaly_score(rows)

    def test_rows_invariant_to_batch_height(self, scored):
        det, rows, full = scored
        for w in range(1, 97):
            for start in range(0, 96, w):
                got = det.anomaly_score(rows[start : start + w])
                assert np.array_equal(got, full[start : start + w]), (
                    f"rows {start}..{start + w - 1} scored in a batch of {w}"
                )

    def test_rows_invariant_to_batch_order(self, scored):
        det, rows, full = scored
        perm = np.random.default_rng(31).permutation(96)
        assert np.array_equal(det.anomaly_score(rows[perm]), full[perm])

    def test_reconstruction_skips_the_logvar_head(self, scored, monkeypatch):
        det, rows, full = scored

        def forbidden(x):
            raise AssertionError("deterministic scoring ran the logvar head")

        monkeypatch.setattr(det.vae_.logvar_head, "forward", forbidden)
        assert np.array_equal(det.anomaly_score(rows), full)
        assert det.vae_.reconstruct(rows[:1]).shape == (1, 64)
