"""Tests for the deployment pipeline: DataGenerator, DataPipeline,
ModelTrainer persistence, and the online AnomalyDetectorService."""

import numpy as np
import pytest

from repro.anomalies import MemLeak
from repro.core import ProdigyDetector
from repro.features import FeatureExtractor
from repro.hist import HistStore
from repro.monitoring import Aggregator, FaultModel
from repro.pipeline import (
    AnomalyDetectorService,
    DataGenerator,
    DataPipeline,
    ModelTrainer,
    load_detector,
)
from repro.telemetry import NodeSeries
from repro.workloads import ECLIPSE_APPS, JobRunner, JobSpec, VOLTA


@pytest.fixture(scope="module")
def populated_store(catalog, tmp_path_factory):
    """A store fed through the full monitoring path: 4 jobs, 1 with memleak."""
    runner = JobRunner(VOLTA, catalog=catalog, seed=1)
    specs = [
        JobSpec(job_id=i, app=ECLIPSE_APPS["lammps"], n_nodes=2, duration_s=90)
        for i in range(1, 4)
    ]
    specs.append(
        JobSpec(
            job_id=4,
            app=ECLIPSE_APPS["lammps"],
            n_nodes=2,
            duration_s=90,
            anomalies={0: MemLeak(10.0, 1.0)},
        )
    )
    results = runner.run_campaign(specs)
    store = HistStore(tmp_path_factory.mktemp("store"))
    agg = Aggregator(
        catalog, store, faults=FaultModel(row_drop_prob=0.02, value_drop_prob=0.01), seed=2
    )
    agg.collect_campaign(results)
    labels = {
        (r.spec.job_id, c): r.node_label(c) for r in results for c in r.component_ids
    }
    return store, labels


class TestDataGenerator:
    def test_job_series_covers_all_nodes(self, populated_store, catalog):
        store, _ = populated_store
        gen = DataGenerator(store, catalog, trim_seconds=10)
        series = gen.job_series(1)
        assert len(series) == 2
        for s in series:
            assert s.metric_names == catalog.metric_names
            assert np.all(np.isfinite(s.values))  # NaNs interpolated away

    def test_counters_differenced(self, populated_store, catalog):
        store, _ = populated_store
        gen = DataGenerator(store, catalog, trim_seconds=10)
        s = gen.job_series(1)[0]
        # Rates, not accumulations: cpu_user jiffies/s bounded by tick budget.
        assert s.metric("cpu_user::procstat").max() < 1e5

    def test_edges_trimmed(self, populated_store, catalog):
        store, _ = populated_store
        gen = DataGenerator(store, catalog, trim_seconds=10)
        s = gen.job_series(1)[0]
        assert s.timestamps[0] >= 10.0

    def test_unknown_job(self, populated_store, catalog):
        store, _ = populated_store
        gen = DataGenerator(store, catalog)
        with pytest.raises(LookupError):
            gen.job_series(999)

    def test_all_job_ids(self, populated_store, catalog):
        store, _ = populated_store
        gen = DataGenerator(store, catalog)
        np.testing.assert_array_equal(gen.all_job_ids(), [1, 2, 3, 4])


@pytest.fixture(scope="module")
def fitted_pipeline(populated_store, catalog, tiny_extractor):
    store, labels = populated_store
    gen = DataGenerator(store, catalog, trim_seconds=10)
    series, y = [], []
    for j in gen.all_job_ids():
        for s in gen.job_series(int(j)):
            series.append(s)
            y.append(labels[(int(j), s.component_id)])
    pipe = DataPipeline(tiny_extractor, n_features=48)
    samples = pipe.engine.extract(series, y)
    pipe.fit(samples)
    return gen, pipe, samples, series


class TestDataPipeline:
    def test_fit_selects_and_scales(self, fitted_pipeline):
        _, pipe, samples, _ = fitted_pipeline
        out = pipe.transform_samples(samples)
        assert out.n_features == 48
        assert out.features.min() >= 0.0 and out.features.max() <= 1.0

    def test_transform_series_matches_samples(self, fitted_pipeline):
        _, pipe, samples, series = fitted_pipeline
        direct = pipe.transform_series(series[:3])
        via_samples = pipe.transform_samples(samples.subset(np.arange(3))).features
        np.testing.assert_allclose(direct, via_samples, rtol=1e-10)

    def test_transform_single_row(self, fitted_pipeline):
        _, pipe, _, series = fitted_pipeline
        row = pipe.transform_single(series[0])
        assert row.shape == (1, 48)

    def test_unfitted_raises(self, tiny_extractor):
        from repro.util import NotFittedError

        with pytest.raises(NotFittedError):
            DataPipeline(tiny_extractor).transform_series([])

    def test_state_roundtrip(self, fitted_pipeline, tiny_extractor):
        _, pipe, _, series = fitted_pipeline
        meta, scaler_state = pipe.state()
        rebuilt = DataPipeline.from_state(meta, scaler_state, extractor=tiny_extractor)
        np.testing.assert_allclose(
            rebuilt.transform_single(series[0]), pipe.transform_single(series[0])
        )

    @pytest.mark.parametrize("kind", ["standard", "robust"])
    def test_from_state_rejects_other_scalers(self, fitted_pipeline, kind):
        _, pipe, _, _ = fitted_pipeline
        meta, scaler_state = pipe.state()
        with pytest.raises(ValueError, match=repr(kind)):
            DataPipeline.from_state({**meta, "scaler_kind": kind}, scaler_state)


def _runs(names, lengths, seed, job_id=1):
    """Random node runs, one per length, with a level shift on odd runs."""
    rng = np.random.default_rng(seed)
    out = []
    for comp, n in enumerate(lengths):
        vals = 100.0 + 40.0 * rng.random((n, len(names)))
        vals[:, 0] += 30.0 * (comp % 2)
        out.append(NodeSeries(job_id, comp, np.arange(float(n)), vals, names))
    return out


def _fit_resample_free(series, n_features=24):
    pipe = DataPipeline(FeatureExtractor(resample_points=None), n_features=n_features)
    pipe.fit_from_series(series, np.arange(len(series)) % 2)
    return pipe


class TestPlanTransform:
    """The fitted transform runs the selected-feature plan per group."""

    NAMES = ("m0", "m1", "m2")

    def test_plan_cache_follows_the_selection(self):
        train = _runs(self.NAMES, [120] * 8, seed=1)
        pipe = _fit_resample_free(train)
        first = pipe.transform_series(train)
        np.testing.assert_array_equal(first, pipe.transform_series_full(train)[0])
        # Assigned directly, as tests that pin a selection do: the next
        # transform must serve the new selection.
        pipe.selected_names_ = pipe.selected_names_[::-1]
        np.testing.assert_array_equal(
            pipe.transform_series(train), pipe.transform_series_full(train)[0]
        )
        assert not np.array_equal(pipe.transform_series(train), first)
        # A re-fit with another width replaces the selection too.
        pipe.n_features = 10
        pipe.fit_from_series(train, np.arange(8) % 2)
        assert pipe.transform_series(train).shape == (8, 10)
        np.testing.assert_array_equal(
            pipe.transform_series(train), pipe.transform_series_full(train)[0]
        )

    def test_unknown_calculator_output_raises(self):
        train = _runs(self.NAMES, [120] * 4, seed=2)
        pipe = _fit_resample_free(train)
        pipe.selected_names_ = pipe.selected_names_[:-1] + ("m0|no_such_feature",)
        with pytest.raises(KeyError, match="missing from extraction layout"):
            pipe.transform_series(train)

    def test_absent_metric_stays_masked(self):
        wide = _runs(self.NAMES + ("g0",), [120] * 4, seed=3)
        narrow = _runs(self.NAMES, [120] * 4, seed=4, job_id=2)
        pipe = _fit_resample_free(wide + narrow, n_features=64)
        gpu = np.array([n.startswith("g0|") for n in pipe.selected_names_])
        assert gpu.any() and not gpu.all()
        scaled, present = pipe.transform_series_masked(narrow)
        np.testing.assert_array_equal(present, np.broadcast_to(~gpu, present.shape))
        assert not scaled[:, gpu].any()
        assert pipe.transform_series_masked(wide)[1] is None

    def test_two_lengths_without_resampling(self):
        """A resample-free batch of two lengths == each length on its own."""
        train = _runs(self.NAMES, [120] * 6, seed=5)
        pipe = _fit_resample_free(train)
        batch = _runs(self.NAMES, [120, 90, 120, 90, 90], seed=6)
        long_rows = pipe.transform_series([batch[0], batch[2]])
        short_rows = pipe.transform_series([batch[1], batch[3], batch[4]])
        got = pipe.transform_series(batch)
        np.testing.assert_array_equal(got[[0, 2]], long_rows)
        np.testing.assert_array_equal(got[[1, 3, 4]], short_rows)
        np.testing.assert_array_equal(got, pipe.transform_series_full(batch)[0])

    def test_transform_records_one_extract_stage(self):
        train = _runs(self.NAMES, [120] * 4, seed=7)
        pipe = _fit_resample_free(train)
        inst = pipe.engine.instrumentation
        calls = inst.stage_stats("extract").calls
        items = inst.stage_stats("extract").items
        pipe.transform_series(train + _runs(self.NAMES, [90, 90], seed=8))
        assert inst.stage_stats("extract").calls == calls + 1
        assert inst.stage_stats("extract").items == items + 6


class TestModelTrainerAndService:
    @pytest.fixture(scope="class")
    def deployment(self, fitted_pipeline, tmp_path_factory):
        gen, pipe, samples, series = fitted_pipeline
        det = ProdigyDetector(
            hidden_dims=(16, 8), latent_dim=4, epochs=80, batch_size=8,
            learning_rate=1e-3, seed=3,
        )
        outdir = tmp_path_factory.mktemp("artifacts")
        trainer = ModelTrainer(pipe, det, outdir)
        trainer.train(samples)
        return gen, outdir, det

    def test_artifacts_written(self, deployment):
        _, outdir, _ = deployment
        assert (outdir / "metadata.json").exists()
        assert (outdir / "weights.npz").exists()
        assert (outdir / "scaler.npz").exists()

    def test_load_detector_roundtrip(self, deployment, fitted_pipeline):
        gen, outdir, det = deployment
        _, pipe, _, series = fitted_pipeline
        pipe2, det2 = load_detector(outdir)
        x = pipe.transform_series(series[:4])
        np.testing.assert_allclose(det2.anomaly_score(x), det.anomaly_score(x))
        assert det2.threshold_ == det.threshold_

    def test_load_missing_artifacts(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_detector(tmp_path / "nope")

    def test_format_mismatch_names_path_and_versions(self, deployment, tmp_path):
        import json
        import shutil

        _, outdir, _ = deployment
        broken = tmp_path / "broken"
        shutil.copytree(outdir, broken)
        meta = json.loads((broken / "metadata.json").read_text())
        meta["format_version"] = 99
        (broken / "metadata.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError) as exc:
            load_detector(broken)
        msg = str(exc.value)
        assert "99" in msg and str(broken) in msg and "supported versions" in msg

    def test_metadata_records_minmax_scaler(self, deployment):
        import json

        _, outdir, _ = deployment
        meta = json.loads((outdir / "metadata.json").read_text())
        assert meta["pipeline"]["scaler_kind"] == "minmax"

    def test_fingerprint_persisted(self, deployment, fitted_pipeline):
        _, outdir, _ = deployment
        _, _, samples, _ = fitted_pipeline
        import json

        meta = json.loads((outdir / "metadata.json").read_text())
        fp = meta["fingerprint"]
        assert fp["n_rows"] == samples.n_samples
        assert fp["n_metrics"] > 0
        assert len(fp["metric_names_hash"]) == 16

    def test_reference_profile_persisted(self, deployment):
        _, outdir, _ = deployment
        from repro.util import ArtifactBundle

        bundle = ArtifactBundle(outdir)
        assert bundle.has_group("reference")
        arrays = bundle.load_group("reference")
        assert arrays["scores"].size > 0
        assert arrays["features"].ndim == 2

    def test_service_predicts_job(self, deployment):
        gen, outdir, _ = deployment
        pipe2, det2 = load_detector(outdir)
        svc = AnomalyDetectorService(gen, pipe2, det2)
        preds = svc.predict_job(4)
        assert len(preds) == 2
        for p in preds:
            assert p.prediction in (0, 1)
            assert p.threshold == det2.threshold_
        # The memleak node is the higher-scoring one.
        scores = {p.component_id: p.anomaly_score for p in preds}
        assert max(scores.values()) > min(scores.values())

    def test_service_verdicts_are_the_detectors_from_one_forward(self, deployment):
        """predict_job scores once and thresholds those scores as predict does."""
        from repro.runtime import get_instrumentation

        gen, outdir, _ = deployment
        pipe2, det2 = load_detector(outdir)
        svc = AnomalyDetectorService(gen, pipe2, det2)
        inst = get_instrumentation()
        for job in (int(j) for j in gen.all_job_ids()):
            forwards = inst.stage_stats("score").calls
            preds = svc.predict_job(job)
            assert inst.stage_stats("score").calls == forwards + 1
            rows = pipe2.transform_series(gen.job_series(job))
            np.testing.assert_array_equal(
                [p.prediction for p in preds], det2.predict(rows)
            )
            np.testing.assert_array_equal(
                [p.anomaly_score for p in preds], det2.anomaly_score(rows)
            )

    def test_train_on_mixed_set_sets_the_masked_threshold(self, tmp_path):
        """The trainer fits under the presence mask, as Prodigy.fit does."""
        names = ("m0", "m1", "m2")
        series = _runs(names + ("g0",), [120] * 6, seed=11) + _runs(
            names, [120] * 6, seed=12, job_id=2
        )
        pipe = _fit_resample_free(series, n_features=64)
        samples = pipe.engine.extract(series)
        transformed = pipe.transform_samples(samples)
        assert transformed.present is not None and not transformed.present.all()

        def detector():
            return ProdigyDetector(
                hidden_dims=(8,), latent_dim=2, epochs=5, batch_size=4, seed=4
            )

        trained = ModelTrainer(pipe, detector(), tmp_path / "deploy").train(samples)
        masked = detector().fit(transformed.features, present=transformed.present)
        assert trained.threshold_ == masked.threshold_
        assert load_detector(tmp_path / "deploy")[1].threshold_ == masked.threshold_

    def test_service_as_series_classifier(self, deployment, fitted_pipeline):
        """The CoMTE adapter scores singles and batches consistently."""
        gen, outdir, _ = deployment
        _, _, _, series = fitted_pipeline
        pipe2, det2 = load_detector(outdir)
        svc = AnomalyDetectorService(gen, pipe2, det2)
        classify = svc.as_series_classifier()
        single = classify(series[0])
        assert single.shape == (2,)
        batched = classify.classify_batch(series[:2])
        np.testing.assert_allclose(batched[0], single, atol=1e-9)


# -- unlabeled demo fits ----------------------------------------------------------


def _variance_recipe(engine, series, n_keep):
    """The hand-built variance fit the demos ran before selection ranked
    unlabeled sets itself: ``(selected names, scaler state)``, the oracle."""
    from repro.features import MinMaxScaler

    features, names = engine.extract_matrix(series)
    var = features.var(axis=0)
    keep = np.sort(np.lexsort((np.arange(var.size), -var))[: min(n_keep, var.size)])
    scaler = MinMaxScaler().fit(features[:, keep])
    return tuple(names[i] for i in keep), scaler.state()


def _assert_fit_is(pipeline, recipe):
    names, scaler_state = recipe
    assert pipeline.selected_names_ == names
    state = pipeline.scaler_.state()
    assert state.keys() == scaler_state.keys()
    for key, value in scaler_state.items():
        np.testing.assert_array_equal(state[key], value)


class TestUnlabeledDemoFits:
    """Each demo fit is ``fit_from_series`` without labels, and equals the
    variance recipe it replaced, bit for bit."""

    def test_runtime_stats_fit(self, monkeypatch, capsys):
        from repro import cli
        from repro.runtime import ParallelExtractor

        fitted = []
        fit = DataPipeline.fit_from_series

        def spy(self, series, labels=None, **kwargs):
            fitted.append((self, list(series), labels))
            return fit(self, series, labels, **kwargs)

        monkeypatch.setattr(DataPipeline, "fit_from_series", spy)
        assert cli.main(["runtime", "stats", "--samples", "10", "--metrics", "3",
                         "--json"]) == 0
        capsys.readouterr()
        (pipeline, series, labels), = fitted
        assert labels is None
        engine = ParallelExtractor(FeatureExtractor(resample_points=64))
        _assert_fit_is(pipeline, _variance_recipe(engine, series, 64))

    def test_fleet_run_fit(self):
        from repro import cli
        from repro.runtime import ParallelExtractor

        pipeline, _, series = cli._fleet_deployment(6, 4, 96, seed=1)
        engine = ParallelExtractor(FeatureExtractor(resample_points=32))
        _assert_fit_is(pipeline, _variance_recipe(engine, series, 48))

    def test_loadgen_fit(self):
        from repro.runtime import ParallelExtractor
        from repro.serving.loadgen import demo_deployment

        series = _runs(("m0", "m1", "m2"), [96] * 5, seed=13)
        pipeline, _ = demo_deployment(series, seed=2)
        engine = ParallelExtractor(FeatureExtractor(resample_points=32))
        _assert_fit_is(pipeline, _variance_recipe(engine, series, 48))

    def test_check_perf_fit(self, monkeypatch):
        from pathlib import Path

        from repro.runtime import ExecutionConfig, Instrumentation, ParallelExtractor

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import check_perf

        series = _runs(("m0", "m1", "m2", "m3"), [150] * 6, seed=14)
        pipeline, _, _ = check_perf._fit_deployment(series, seed=1)
        engine = ParallelExtractor(
            FeatureExtractor(resample_points=64),
            config=ExecutionConfig(n_workers=1, cache_size=0),
            instrumentation=Instrumentation(enabled=False),
        )
        assert pipeline.engine.config == engine.config
        _assert_fit_is(pipeline, _variance_recipe(engine, series, 48))
