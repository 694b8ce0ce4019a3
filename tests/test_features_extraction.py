"""Tests for the batched feature extractor."""

import numpy as np
import pytest

from repro.features import FeatureExtractor, default_calculators
from repro.runtime import ParallelExtractor
from repro.telemetry import NodeSeries


def series(job=1, comp=1, t=50, m=2, seed=0):
    rng = np.random.default_rng(seed)
    return NodeSeries(
        job, comp, np.arange(t, dtype=float), rng.random((t, m)), tuple(f"m{i}" for i in range(m))
    )


class TestLayout:
    def test_feature_names_metric_major(self):
        fx = FeatureExtractor(resample_points=32)
        names = fx.feature_names(("a", "b"))
        f = fx.n_features_per_metric
        assert len(names) == 2 * f
        assert names[0].startswith("a|") and names[f].startswith("b|")

    def test_extract_matrix_shape(self):
        fx = FeatureExtractor(resample_points=32)
        mat, names = fx.extract_matrix([series(seed=i) for i in range(3)])
        assert mat.shape == (3, len(names))
        assert np.all(np.isfinite(mat))

    def test_metric_subset(self):
        fx = FeatureExtractor(resample_points=32, metrics=("m1",))
        mat, names = fx.extract_matrix([series(m=3)])
        assert all(n.startswith("m1|") for n in names)

    def test_mismatched_metric_names_rejected(self):
        fx = FeatureExtractor(resample_points=32)
        a = series(m=2)
        b = NodeSeries(7, 9, a.timestamps, a.values, ("m0", "x1"))
        with pytest.raises(ValueError) as err:
            fx.extract_matrix([a, b])
        msg = str(err.value)
        # The error names the divergent node, the reference node, and the
        # actual column delta, and points at the mixed-schema entry point.
        assert "job_id=7, component_id=9" in msg
        assert "job_id=1, component_id=1" in msg
        assert "missing ['m1']" in msg
        assert "extra ['x1']" in msg
        assert "ParallelExtractor.extract()" in msg

    def test_reordered_metric_names_rejected(self):
        fx = FeatureExtractor(resample_points=32)
        a = series(m=2)
        b = NodeSeries(1, 2, a.timestamps, a.values, ("m1", "m0"))
        with pytest.raises(ValueError, match="different order"):
            fx.extract_matrix([a, b])

    def test_unequal_lengths_require_resampling(self):
        fx = FeatureExtractor(resample_points=None)
        with pytest.raises(ValueError, match="resample_points"):
            fx.extract_matrix([series(t=50), series(t=60)])

    def test_no_series_rejected(self):
        with pytest.raises(ValueError):
            FeatureExtractor().extract_matrix([])

    def test_no_calculators_rejected(self):
        with pytest.raises(ValueError):
            FeatureExtractor(calculators=[])


class TestSemantics:
    def test_resampling_makes_unequal_lengths_comparable(self):
        fx = FeatureExtractor(resample_points=64)
        mat, _ = fx.extract_matrix([series(t=50, seed=1), series(t=90, seed=1)])
        assert mat.shape[0] == 2

    def test_batch_equals_single(self):
        """The batched path must agree with per-sample extraction."""
        fx = FeatureExtractor(resample_points=32)
        runs = [series(seed=i) for i in range(4)]
        batch, _ = fx.extract_matrix(runs)
        singles = np.vstack([fx.extract_matrix([r])[0] for r in runs])
        np.testing.assert_allclose(batch, singles, rtol=1e-12)

    def test_mean_feature_value_correct(self):
        fx = FeatureExtractor(calculators=default_calculators()[:1], resample_points=None)
        run = series(t=40)
        mat, names = fx.extract_matrix([run])
        idx = names.index("m0|mean")
        assert mat[0, idx] == pytest.approx(run.values[:, 0].mean())

    def test_extract_builds_sampleset(self):
        fx = FeatureExtractor(resample_points=32)
        runs = [series(job=5, comp=c, seed=c) for c in range(3)]
        ss = ParallelExtractor(fx).extract(runs, [0, 1, 0], app_names=["a", "b", "c"])
        assert ss.n_samples == 3
        assert ss.n_anomalous == 1
        np.testing.assert_array_equal(ss.job_ids, [5, 5, 5])
        np.testing.assert_array_equal(ss.component_ids, [0, 1, 2])

    def test_deterministic(self):
        fx = FeatureExtractor(resample_points=32)
        runs = [series(seed=3)]
        a, _ = fx.extract_matrix(runs)
        b, _ = fx.extract_matrix(runs)
        np.testing.assert_array_equal(a, b)
