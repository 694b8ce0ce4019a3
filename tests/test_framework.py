"""Tests for the end-to-end Prodigy facade."""

import numpy as np
import pytest

from repro.core import Prodigy, ProdigyDetector
from repro.features import FeatureExtractor
from repro.pipeline import DataPipeline
from repro.telemetry import NodeSeries
from repro.util import NotFittedError
from repro.util.rng import derive_seed, ensure_rng


@pytest.fixture(scope="module")
def facade(labeled_runs, tiny_extractor):
    series = [r[0] for r in labeled_runs]
    labels = [r[1] for r in labeled_runs]
    prodigy = Prodigy(
        n_features=64,
        hidden_dims=(16, 8),
        latent_dim=4,
        epochs=80,
        batch_size=8,
        extractor=tiny_extractor,
        seed=0,
    )
    prodigy.fit(series, labels)
    return prodigy, series, labels


class TestFacade:
    def test_predict_shapes(self, facade):
        prodigy, series, _ = facade
        preds = prodigy.predict(series)
        assert preds.shape == (len(series),)
        assert set(np.unique(preds)) <= {0, 1}

    def test_scores_order_anomalies(self, facade):
        prodigy, series, labels = facade
        scores = prodigy.anomaly_score(series)
        anom = scores[np.asarray(labels) == 1]
        healthy = scores[np.asarray(labels) == 0]
        assert anom.mean() > healthy.mean()

    def test_unfitted_raises(self, tiny_extractor):
        p = Prodigy(extractor=tiny_extractor)
        with pytest.raises(NotFittedError):
            p.predict([])

    def test_explain_returns_counterfactual(self, facade):
        prodigy, series, labels = facade
        anom = next(s for s, l in zip(series, labels) if l == 1)
        cf = prodigy.explain(anom, max_metrics=3)
        assert cf.p_anomalous_before >= 0.0
        assert isinstance(cf.metrics, tuple)

    def test_save_load_roundtrip(self, facade, tmp_path):
        prodigy, series, _ = facade
        prodigy.save(tmp_path / "deploy")
        loaded = Prodigy.load(tmp_path / "deploy")
        np.testing.assert_allclose(
            loaded.anomaly_score(series[:3]), prodigy.anomaly_score(series[:3])
        )

    def test_healthy_only_fit(self, labeled_runs, tiny_extractor):
        """Without labels the facade falls back to variance selection."""
        healthy_series = [r[0] for r in labeled_runs if r[1] == 0]
        p = Prodigy(
            n_features=32, hidden_dims=(8,), latent_dim=2, epochs=40,
            batch_size=4, extractor=tiny_extractor, seed=1,
        )
        p.fit(healthy_series)
        scores = p.anomaly_score(healthy_series)
        assert np.all(np.isfinite(scores))
        # Threshold set from the healthy errors themselves.
        assert p.detector.threshold_ >= scores.min()


def _fleet(names, n, seed, job_id):
    rng = np.random.default_rng(seed)
    return [
        NodeSeries(job_id, c, np.arange(100.0),
                   rng.random((100, len(names))) * np.arange(1, len(names) + 1), names)
        for c in range(n)
    ]


class TestHealthyOnlyFit:
    """A healthy-only fit is ``fit_from_series`` without labels plus the
    facade's detector trained under the presence mask, bit for bit."""

    @pytest.mark.parametrize("mixed", [False, True], ids=["dense", "mixed"])
    def test_equals_unlabeled_pipeline_fit_plus_detector(self, mixed):
        series = _fleet(("a", "b", "c"), 8, seed=1, job_id=1)
        if mixed:
            series += _fleet(("a", "b", "g0", "g1"), 6, seed=2, job_id=2)
        arch = dict(hidden_dims=(8,), latent_dim=2, epochs=10, batch_size=4,
                    learning_rate=1e-3, threshold_percentile=99.0,
                    validation_fraction=0.2, patience=40)
        prodigy = Prodigy(
            n_features=24, extractor=FeatureExtractor(resample_points=32), seed=5, **arch
        ).fit(series)

        pipeline, transformed = DataPipeline(
            FeatureExtractor(resample_points=32), n_features=24
        ).fit_from_series(series)
        assert (transformed.present is not None) == mixed
        detector = ProdigyDetector(seed=derive_seed(ensure_rng(5)), **arch).fit(
            transformed.features, present=transformed.present
        )

        assert prodigy.pipeline.selected_names_ == pipeline.selected_names_
        for key, value in pipeline.scaler_.state().items():
            assert np.array_equal(prodigy.pipeline.scaler_.state()[key], value)
        assert prodigy.detector.threshold_ == detector.threshold_
        rows, present = pipeline.transform_series_masked(series)
        assert np.array_equal(
            prodigy.anomaly_score(series), detector.anomaly_score(rows, present=present)
        )
