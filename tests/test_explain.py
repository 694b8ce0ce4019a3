"""Tests for CoMTE counterfactual explanations."""

import numpy as np
import pytest

from repro.explain import (
    BruteForceSearch,
    ClassifierEvaluator,
    Counterfactual,
    OptimizedSearch,
    series_classifier,
    substitute_metrics,
)
from repro.telemetry import NodeSeries

METRICS = ("cpu", "mem", "io")


def series(level_cpu, level_mem, level_io, job=1, comp=1, t=30):
    ts = np.arange(t, dtype=float)
    vals = np.column_stack(
        [np.full(t, level_cpu), np.full(t, level_mem), np.full(t, level_io)]
    )
    return NodeSeries(job, comp, ts, vals, METRICS)


def mem_classifier(s: NodeSeries) -> np.ndarray:
    """Toy model: anomalous iff the mem level is high."""
    p_anom = 1.0 / (1.0 + np.exp(-(s.metric("mem").mean() - 0.5) * 20))
    return np.array([1.0 - p_anom, p_anom])


@pytest.fixture()
def anomalous_sample():
    return series(0.2, 0.9, 0.1, job=99, comp=42)


@pytest.fixture()
def distractors():
    return [series(0.2, 0.1, 0.1, job=i, comp=i) for i in range(1, 4)]


class TestSubstitute:
    def test_replaces_named_metrics(self, anomalous_sample, distractors):
        out = substitute_metrics(anomalous_sample, distractors[0], ["mem"])
        np.testing.assert_allclose(out.metric("mem"), 0.1)
        np.testing.assert_allclose(out.metric("cpu"), 0.2)

    def test_resamples_distractor(self, anomalous_sample):
        short = series(0.0, 0.0, 0.0, t=10)
        out = substitute_metrics(anomalous_sample, short, ["io"])
        assert out.n_timestamps == anomalous_sample.n_timestamps

    def test_mismatched_metrics_rejected(self, anomalous_sample):
        other = NodeSeries(1, 1, np.arange(5.0), np.zeros((5, 1)), ("x",))
        with pytest.raises(ValueError):
            substitute_metrics(anomalous_sample, other, ["x"])

    def test_input_unchanged(self, anomalous_sample, distractors):
        before = anomalous_sample.values.copy()
        substitute_metrics(anomalous_sample, distractors[0], ["mem"])
        np.testing.assert_array_equal(anomalous_sample.values, before)


class TestBruteForce:
    def test_finds_single_metric_explanation(self, anomalous_sample, distractors):
        search = BruteForceSearch(mem_classifier, distractors, max_metrics=2)
        cf = search.explain(anomalous_sample)
        assert cf.metrics == ("mem",)
        assert cf.flipped
        assert cf.p_anomalous_before > 0.9
        assert cf.p_anomalous_after < 0.5

    def test_reports_distractor_provenance(self, anomalous_sample, distractors):
        cf = BruteForceSearch(mem_classifier, distractors).explain(anomalous_sample)
        assert cf.distractor_job_id in {1, 2, 3}

    def test_best_effort_when_unflippable(self, distractors):
        def never_healthy(s):
            return np.array([0.0, 1.0])

        cf = BruteForceSearch(never_healthy, distractors, max_metrics=1).explain(
            series(0.9, 0.9, 0.9)
        )
        assert not cf.flipped
        assert cf.p_anomalous_after == 1.0

    def test_requires_distractors(self):
        with pytest.raises(ValueError):
            BruteForceSearch(mem_classifier, [])

    def test_counts_evaluations(self, anomalous_sample, distractors):
        cf = BruteForceSearch(mem_classifier, distractors).explain(anomalous_sample)
        assert cf.n_evaluations >= 2


class TestOptimized:
    def test_finds_and_prunes(self, anomalous_sample, distractors):
        cf = OptimizedSearch(mem_classifier, distractors, max_metrics=3).explain(
            anomalous_sample
        )
        assert cf.metrics == ("mem",)
        assert cf.flipped

    def test_two_metric_explanation(self, distractors):
        """Model needs BOTH cpu and mem replaced; search must find both."""

        def two_factor(s):
            bad = (s.metric("mem").mean() > 0.5) or (s.metric("cpu").mean() > 0.5)
            p = 0.95 if bad else 0.05
            return np.array([1.0 - p, p])

        sample = series(0.9, 0.9, 0.1)
        cf = OptimizedSearch(two_factor, distractors, max_metrics=3).explain(sample)
        assert set(cf.metrics) == {"cpu", "mem"}
        assert cf.flipped

    def test_empty_explanation_when_nothing_helps(self, distractors):
        def constant(s):
            return np.array([0.2, 0.8])

        cf = OptimizedSearch(constant, distractors).explain(series(0.5, 0.5, 0.5))
        assert cf.metrics == ()
        assert not cf.flipped

    def test_summary_text(self, anomalous_sample, distractors):
        cf = OptimizedSearch(mem_classifier, distractors).explain(anomalous_sample)
        assert "mem" in cf.summary()
        assert "flips" in cf.summary()

    def test_rejects_bad_classifier(self, distractors):
        with pytest.raises(TypeError):
            OptimizedSearch(42, distractors)


def two_factor_classifier(s: NodeSeries) -> np.ndarray:
    """Anomalous iff EITHER cpu or mem is high (non-submodular for greedy)."""
    bad = (s.metric("mem").mean() > 0.5) or (s.metric("cpu").mean() > 0.5)
    p = 0.95 if bad else 0.05
    return np.array([1.0 - p, p])


class TestSearchFastPath:
    """Memoized + batched search modes vs the per-candidate reference mode."""

    @pytest.mark.parametrize("search_cls", [BruteForceSearch, OptimizedSearch])
    @pytest.mark.parametrize("classifier", [mem_classifier, two_factor_classifier])
    def test_modes_return_identical_counterfactuals(
        self, search_cls, classifier, distractors
    ):
        sample = series(0.9, 0.9, 0.1, job=99, comp=42)
        reference = search_cls(
            classifier, distractors, max_metrics=3, memoize=False, batched=False
        ).explain(sample)
        fast = search_cls(classifier, distractors, max_metrics=3).explain(sample)
        assert fast.metrics == reference.metrics
        assert fast.p_anomalous_after == pytest.approx(reference.p_anomalous_after)
        assert fast.distractor_job_id == reference.distractor_job_id

    def test_memo_reports_cached_evaluations(self, anomalous_sample, distractors):
        cf = OptimizedSearch(mem_classifier, distractors, max_metrics=3).explain(
            anomalous_sample
        )
        # Greedy round 1 is answered entirely from the single-metric ranking.
        assert cf.n_cached_evaluations > 0
        serial = OptimizedSearch(
            mem_classifier, distractors, max_metrics=3, memoize=False, batched=False
        ).explain(anomalous_sample)
        assert serial.n_cached_evaluations == 0
        assert cf.n_evaluations < serial.n_evaluations

    def test_memo_scoped_to_one_explain(self, anomalous_sample, distractors):
        search = OptimizedSearch(mem_classifier, distractors, max_metrics=3)
        first = search.explain(anomalous_sample)
        second = search.explain(anomalous_sample)
        # A fresh memo per call: true-evaluation counts don't decay across calls.
        assert second.n_evaluations == first.n_evaluations
        assert second.metrics == first.metrics

    def test_aligned_distractor_resample_cached(self, anomalous_sample):
        short = [series(0.2, 0.1, 0.1, job=i, comp=i, t=10) for i in range(1, 4)]
        search = OptimizedSearch(mem_classifier, short, max_metrics=2)
        a = search._aligned(short[0], anomalous_sample.n_timestamps)
        b = search._aligned(short[0], anomalous_sample.n_timestamps)
        assert a is b  # resampled once, identity stable for id-keyed caches
        assert a.n_timestamps == anomalous_sample.n_timestamps
        search.explain(anomalous_sample)
        assert len(search._aligned_cache) == len(short)
        # Same-length distractors pass through without a cache entry.
        full = series(0.2, 0.1, 0.1, t=anomalous_sample.n_timestamps)
        assert search._aligned(full, anomalous_sample.n_timestamps) is full

    def test_batched_rounds_use_batch_dispatch(self, anomalous_sample, distractors):
        calls = {"batch": 0, "single": 0}

        class CountingEvaluator:
            def p_anomalous(self, sample, distractor, metrics):
                calls["single"] += 1
                sub = (
                    sample if distractor is None
                    else substitute_metrics(sample, distractor, metrics)
                )
                return float(mem_classifier(sub)[1])

            def p_anomalous_batch(self, sample, distractor, metric_sets):
                calls["batch"] += 1
                return np.array([
                    float(mem_classifier(substitute_metrics(sample, distractor, m))[1])
                    for m in metric_sets
                ])

        cf = OptimizedSearch(CountingEvaluator(), distractors, max_metrics=3).explain(
            anomalous_sample
        )
        assert cf.flipped
        assert calls["batch"] > 0
        # Serial dispatches remain only where batching can't apply (the
        # baseline probability and the sequential prune trials).
        assert calls["single"] <= 1 + len(cf.metrics)

    def test_evaluation_summary_text(self, anomalous_sample, distractors):
        cf = OptimizedSearch(mem_classifier, distractors).explain(anomalous_sample)
        text = cf.evaluation_summary()
        assert str(cf.n_evaluations) in text
        assert "cache" in text


class TestEvaluators:
    def test_classifier_evaluator_shapes(self, anomalous_sample, distractors):
        ev = ClassifierEvaluator(mem_classifier)
        p0 = ev.p_anomalous(anomalous_sample, None, ())
        p1 = ev.p_anomalous(anomalous_sample, distractors[0], ("mem",))
        assert p0 > 0.9 and p1 < 0.5

    def test_rejects_wrong_proba_shape(self, anomalous_sample):
        ev = ClassifierEvaluator(lambda s: np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            ev.p_anomalous(anomalous_sample, None, ())

    def test_batch_falls_back_to_serial_loop(self, anomalous_sample, distractors):
        """A plain callable (no classify_batch) still answers batch rounds."""
        ev = ClassifierEvaluator(mem_classifier)
        sets = [("mem",), ("cpu",), ("mem", "io")]
        ps = ev.p_anomalous_batch(anomalous_sample, distractors[0], sets)
        for p, metrics in zip(ps, sets):
            assert float(p) == pytest.approx(
                ev.p_anomalous(anomalous_sample, distractors[0], metrics)
            )

    def test_batch_uses_classify_batch(self, anomalous_sample, distractors):
        def classify(s):
            return mem_classifier(s)

        seen = []

        def classify_batch(many):
            seen.append(len(many))
            return np.stack([mem_classifier(s) for s in many])

        classify.classify_batch = classify_batch
        ev = ClassifierEvaluator(classify)
        sets = [("mem",), ("cpu",)]
        ps = ev.p_anomalous_batch(anomalous_sample, distractors[0], sets)
        assert seen == [2]
        for p, metrics in zip(ps, sets):
            assert float(p) == pytest.approx(
                ev.p_anomalous(anomalous_sample, distractors[0], metrics)
            )

    def test_batch_rejects_bad_classify_batch_shape(self, anomalous_sample, distractors):
        def classify(s):
            return mem_classifier(s)

        classify.classify_batch = lambda many: np.zeros((len(many), 3))
        ev = ClassifierEvaluator(classify)
        with pytest.raises(ValueError, match="classify_batch"):
            ev.p_anomalous_batch(anomalous_sample, distractors[0], [("mem",)])

    def test_batch_empty_metric_sets(self, anomalous_sample, distractors):
        ev = ClassifierEvaluator(mem_classifier)
        assert ev.p_anomalous_batch(anomalous_sample, distractors[0], []).size == 0


class TestSeriesClassifier:
    """CoMTE over a fitted deployment: the pipeline transform per candidate."""

    @pytest.fixture(scope="class")
    def deployment(self, labeled_runs, tiny_extractor):
        from repro.core import ProdigyDetector
        from repro.pipeline import DataPipeline

        series_list = [r[0] for r in labeled_runs]
        labels = [r[1] for r in labeled_runs]
        pipe = DataPipeline(tiny_extractor, n_features=64)
        samples = pipe.engine.extract(series_list, labels)
        pipe.fit(samples)
        det = ProdigyDetector(
            hidden_dims=(16, 8), latent_dim=4, epochs=60, batch_size=8,
            learning_rate=1e-3, seed=0,
        )
        transformed = pipe.transform_samples(samples)
        det.fit(transformed.features, transformed.labels)
        return pipe, det, series_list, labels

    def test_candidates_are_the_pinned_metrics(self, deployment):
        pipe, det, _, _ = deployment
        ev = ClassifierEvaluator(series_classifier(pipe, det))
        assert ev.candidate_metrics == pipe.extractor.metrics

    def test_unknown_metric_rejected(self, deployment):
        pipe, det, series_list, _ = deployment
        ev = ClassifierEvaluator(series_classifier(pipe, det))
        with pytest.raises(KeyError):
            ev.p_anomalous(series_list[0], series_list[1], ("not_a_metric",))

    def test_batch_matches_serial(self, deployment):
        """One batched dispatch == per-candidate p_anomalous calls."""
        pipe, det, series_list, labels = deployment
        anom = next(s for s, l in zip(series_list, labels) if l == 1)
        healthy = next(s for s, l in zip(series_list, labels) if l == 0)
        ev = ClassifierEvaluator(series_classifier(pipe, det))
        sets = [
            ("MemFree::meminfo",),
            ("pgfault::vmstat",),
            ("MemFree::meminfo", "pgfault::vmstat"),
        ]
        ps = ev.p_anomalous_batch(anom, healthy, sets)
        assert ps.shape == (3,)
        for p, metrics in zip(ps, sets):
            assert float(p) == pytest.approx(
                ev.p_anomalous(anom, healthy, metrics), abs=1e-12
            ), metrics

    def test_search_modes_identical_on_deployment(self, deployment):
        """Batched, memoised search == per-candidate search on a real detector."""
        pipe, det, series_list, labels = deployment
        anom = next(s for s, l in zip(series_list, labels) if l == 1)
        healthy = [s for s, l in zip(series_list, labels) if l == 0][:4]
        kw = dict(max_metrics=3, n_distractors=2)
        classifier = series_classifier(pipe, det)
        reference = OptimizedSearch(
            classifier, healthy, memoize=False, batched=False, **kw,
        ).explain(anom)
        fast = OptimizedSearch(classifier, healthy, **kw).explain(anom)
        assert fast.metrics == reference.metrics
        assert fast.p_anomalous_after == pytest.approx(
            reference.p_anomalous_after, abs=1e-12
        )
        assert fast.distractor_component_id == reference.distractor_component_id


def test_prodigy_explains_a_cpu_node_of_a_mixed_fleet():
    """CPU nodes of a CPU+GPU deployment lack the GPU cells: they stay masked."""
    from repro.core import Prodigy
    from repro.scenarios import get_scenario, load_scenario_series, simulate_scenario

    sc = get_scenario("gpu-cluster")
    run = simulate_scenario(sc, jobs=2, anomalous_jobs=2, nodes=2, duration_s=90, seed=0)
    series = load_scenario_series(run.frame, sc, trim_seconds=10.0)
    labels = [run.labels[f"{s.job_id}:{s.component_id}"] for s in series]
    prodigy = Prodigy(
        n_features=256, hidden_dims=(16, 8), latent_dim=4, epochs=20, batch_size=8,
        seed=3,
    ).fit(series, labels)
    assert any(n.startswith("GPU_") for n in prodigy.pipeline.selected_names_)
    cpu = next(
        s for s, label in zip(series, labels) if label == 1 and s.component_id < 2000
    )
    cf = prodigy.explain(cpu, max_metrics=2)
    assert 0.0 <= cf.p_anomalous_before <= 1.0
    assert set(cf.metrics) <= set(cpu.metric_names)
