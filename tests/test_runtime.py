"""Runtime layer: ExecutionConfig, FeatureCache, ParallelExtractor, stages."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.features import FeatureExtractor
from repro.features.selection import ChiSquareSelector
from repro.runtime import (
    ExecutionConfig,
    FeatureCache,
    Instrumentation,
    ParallelExtractor,
    get_execution_config,
    set_execution_config,
)
from repro.runtime.cache import extractor_signature, series_fingerprint
from repro.runtime.config import usable_cpus
from repro.telemetry import NodeSeries


def make_series(n_series=6, n_metrics=5, seed=0):
    """Mixed-length runs sharing metric names — the engine's worst case."""
    rng = np.random.default_rng(seed)
    names = tuple(f"m{i}" for i in range(n_metrics))
    return [
        NodeSeries(
            1, c,
            np.arange(float(length)),
            rng.random((length, n_metrics)),
            names,
        )
        for c, length in enumerate(rng.integers(50, 80, size=n_series))
    ]


@pytest.fixture()
def extractor():
    return FeatureExtractor(resample_points=32)


# -- ExecutionConfig -----------------------------------------------------------


class TestExecutionConfig:
    def test_defaults(self):
        cfg = ExecutionConfig()
        assert cfg.n_workers == usable_cpus()
        assert cfg.cache_size == 512

    def test_from_env(self):
        cfg = ExecutionConfig.from_env(
            {"PRODIGY_WORKERS": "4", "PRODIGY_CACHE_SIZE": "64"}
        )
        assert cfg == ExecutionConfig(n_workers=4, cache_size=64)

    def test_from_env_ignores_blank_and_missing(self):
        assert ExecutionConfig.from_env({"PRODIGY_WORKERS": "  "}) == ExecutionConfig()

    def test_from_env_rejects_garbage(self):
        with pytest.raises(ValueError, match="PRODIGY_WORKERS"):
            ExecutionConfig.from_env({"PRODIGY_WORKERS": "many"})

    def test_resolve_precedence_explicit_over_env(self):
        cfg = ExecutionConfig.resolve(
            n_workers=2, env={"PRODIGY_WORKERS": "8", "PRODIGY_CACHE_SIZE": "64"}
        )
        assert cfg.n_workers == 2  # explicit wins
        assert cfg.cache_size == 64  # env fills the rest

    def test_validation(self):
        with pytest.raises(ValueError, match="n_workers"):
            ExecutionConfig(n_workers=0)
        with pytest.raises(ValueError, match="cache_size"):
            ExecutionConfig(cache_size=-1)

    def test_process_default_roundtrip(self):
        cfg = ExecutionConfig(n_workers=3, cache_size=7)
        try:
            set_execution_config(cfg)
            assert get_execution_config() is cfg
        finally:
            set_execution_config(None)
        assert get_execution_config() == ExecutionConfig.from_env()

    def test_monkeypatched_env_reaches_process_default(self, monkeypatch):
        monkeypatch.setenv("PRODIGY_WORKERS", "5")
        assert get_execution_config().n_workers == 5


# -- FeatureCache --------------------------------------------------------------


class TestFeatureCache:
    def test_lru_eviction(self):
        cache = FeatureCache(max_entries=2)
        cache.put(b"a", np.zeros(3))
        cache.put(b"b", np.ones(3))
        assert cache.get(b"a") is not None  # refresh "a"
        cache.put(b"c", np.full(3, 2.0))  # evicts "b", the least recent
        assert b"b" not in cache
        assert cache.get(b"a") is not None and cache.get(b"c") is not None

    def test_counters_and_stats(self):
        cache = FeatureCache(max_entries=4)
        assert cache.get(b"x") is None
        cache.put(b"x", np.arange(3.0))
        assert np.array_equal(cache.get(b"x"), [0.0, 1.0, 2.0])
        stats = cache.stats()
        assert stats == {
            "entries": 1, "max_entries": 4, "hits": 1, "misses": 1, "hit_rate": 0.5,
        }
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_rows_stored_read_only_copies(self):
        cache = FeatureCache()
        row = np.arange(3.0)
        cache.put(b"k", row)
        row[:] = -1  # mutating the caller's array must not reach the cache
        stored = cache.get(b"k")
        assert np.array_equal(stored, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            stored[0] = 9.0

    def test_fingerprints_distinguish_content(self, extractor):
        a, b = make_series(n_series=2)
        assert series_fingerprint(a) != series_fingerprint(b)
        other = FeatureExtractor(resample_points=16)
        assert extractor_signature(extractor) != extractor_signature(other)


# -- ParallelExtractor ---------------------------------------------------------


class TestParallelExtractor:
    def test_serial_parallel_cached_parity(self, extractor):
        """n_workers=4 and the cached path are bit-identical to serial."""
        series = make_series()
        reference, ref_names = extractor.extract_matrix(series)

        for workers in (1, 4):
            engine = ParallelExtractor(
                extractor, config=ExecutionConfig(n_workers=workers, cache_size=0)
            )
            mat, names = engine.extract_matrix(series)
            assert names == ref_names
            assert np.array_equal(mat, reference)

    def test_mixed_fleet_extract_matches_per_schema_alignment(self, extractor):
        """extract partitions a mixed fleet by schema digest; the oracle is
        the per-partition serial extraction aligned onto the union axis."""
        from repro.features import align_feature_groups

        cpu = make_series(4, 3, seed=1)
        gpu = [
            NodeSeries(2, 10 + i, s.timestamps,
                       np.column_stack([s.values, 2.0 * s.values[:, 0]]),
                       s.metric_names + ("g0",))
            for i, s in enumerate(make_series(3, 3, seed=2))
        ]
        series = [cpu[0], gpu[0], cpu[1], cpu[2], gpu[1], gpu[2], cpu[3]]
        partitions: dict[str, list[int]] = {}
        for i, s in enumerate(series):
            partitions.setdefault(s.schema_digest, []).append(i)
        features, names, present = align_feature_groups(
            [(rows, *extractor.extract_matrix([series[i] for i in rows]))
             for rows in partitions.values()],
            len(series),
        )
        assert not present.all()
        labels = np.arange(len(series)) % 2
        for workers, cache_size in ((1, 0), (2, 0), (2, 32)):
            engine = ParallelExtractor(
                extractor,
                config=ExecutionConfig(n_workers=workers, cache_size=cache_size),
                instrumentation=Instrumentation(),
            )
            for _ in range(2 if cache_size else 1):  # cold, then warm
                samples = engine.extract(series, labels)
                assert samples.feature_names == names
                assert np.array_equal(samples.features, features)
                assert np.array_equal(samples.present, present)
                assert np.array_equal(samples.labels, labels)
        assert engine.cache.stats()["hits"] == len(series)
        # One schema keeps the dense path: no mask.
        dense = engine.extract(cpu)
        assert dense.present is None
        assert np.array_equal(dense.features, extractor.extract_matrix(cpu)[0])

    def test_pinned_metrics_over_two_schemas_stay_dense(self):
        """A pinned layout spans schemas: no mask, the pinned names, and each
        schema's rows equal to extract_matrix of that schema alone."""
        fx = FeatureExtractor(resample_points=32, metrics=("m2", "m0"))
        narrow = make_series(3, 3, seed=1)
        wide = [
            NodeSeries(2, 10 + i, s.timestamps,
                       np.column_stack([s.values, 2.0 * s.values[:, 0]]),
                       s.metric_names + ("g0",))
            for i, s in enumerate(make_series(2, 3, seed=2))
        ]
        series = [narrow[0], wide[0], narrow[1], wide[1], narrow[2]]
        engine = ParallelExtractor(
            fx, config=ExecutionConfig(cache_size=0), instrumentation=Instrumentation()
        )
        samples = engine.extract(series)
        assert samples.present is None
        assert samples.feature_names == fx.feature_names(("m2", "m0"))
        for rows in ([0, 2, 4], [1, 3]):
            part, _ = fx.extract_matrix([series[i] for i in rows])
            assert np.array_equal(samples.features[rows], part)

    def test_layout_error_names_divergent_node(self, extractor):
        """The engine runs the extractor's layout check, on a cold batch and
        on one whose every row is already cached."""
        a, b = make_series(n_series=2, n_metrics=3)
        b = NodeSeries(7, 9, b.timestamps, b.values, ("m0", "m1", "x2"))
        engine = ParallelExtractor(
            extractor,
            config=ExecutionConfig(n_workers=1, cache_size=32),
            instrumentation=Instrumentation(),
        )
        for warm in (False, True):
            if warm:
                engine.extract_matrix([a])
                engine.extract_matrix([b])
            with pytest.raises(ValueError) as err:
                engine.extract_matrix([a, b])
            msg = str(err.value)
            assert "job_id=7, component_id=9" in msg
            assert "job_id=1, component_id=0" in msg
            assert "missing ['m2']" in msg and "extra ['x2']" in msg
            assert "ParallelExtractor.extract()" in msg
        assert engine.cache.stats()["entries"] == 2

    def test_cache_hits_on_replay(self, extractor):
        series = make_series()
        engine = ParallelExtractor(
            extractor, config=ExecutionConfig(n_workers=1, cache_size=32)
        )
        first, _ = engine.extract_matrix(series)
        second, _ = engine.extract_matrix(series)
        assert np.array_equal(first, second)
        assert engine.cache.stats() == {
            "entries": len(series), "max_entries": 32,
            "hits": len(series), "misses": len(series), "hit_rate": 0.5,
        }

    def test_partial_cache_hit_assembles_correct_matrix(self, extractor):
        """Cached and fresh rows interleave into one consistent matrix.

        Rows are compared against extraction in the *same batch composition*
        that produced them: numpy reductions are only bit-reproducible for
        identical batch shapes (different N can shift the last ulp).
        """
        series = make_series()
        engine = ParallelExtractor(
            extractor, config=ExecutionConfig(n_workers=1, cache_size=32)
        )
        engine.extract_matrix(series[:3])  # prime half the batch
        mat, _ = engine.extract_matrix(series)
        assert np.array_equal(mat[:3], extractor.extract_matrix(series[:3])[0])
        assert np.array_equal(mat[3:], extractor.extract_matrix(series[3:])[0])
        assert engine.cache.hits == 3 and engine.cache.misses == len(series)

    def test_extract_single_matches_batch_row(self, extractor):
        series = make_series()
        engine = ParallelExtractor(extractor, config=ExecutionConfig())
        row, _ = engine.extract_matrix([series[2]])
        assert row.shape == (1, extractor.n_features_per_metric * 5)
        assert np.array_equal(row, extractor.extract_matrix([series[2]])[0])

    def test_extract_builds_sampleset(self, extractor):
        series = make_series(n_series=4)
        engine = ParallelExtractor(extractor, config=ExecutionConfig())
        samples = engine.extract(
            series, [0, 1, 0, 1], app_names=list("abcd"), anomaly_names=list("wxyz")
        )
        assert list(samples.labels) == [0, 1, 0, 1]
        assert np.array_equal(samples.features, extractor.extract_matrix(series)[0])
        assert samples.present is None
        assert list(samples.job_ids) == [1] * 4
        assert list(samples.component_ids) == [0, 1, 2, 3]
        assert list(samples.app_names) == list("abcd")
        assert list(samples.anomaly_names) == list("wxyz")

    @pytest.mark.parametrize("field", ["labels", "app_names", "anomaly_names"])
    def test_misaligned_metadata_names_offender(self, extractor, field):
        series = make_series(n_series=4)
        engine = ParallelExtractor(extractor, config=ExecutionConfig())
        kwargs = {field: [0, 1]} if field == "labels" else {field: ["a", "b"]}
        with pytest.raises(ValueError, match=f"{field} has 2 entries but there are 4 series"):
            engine.extract(series, **kwargs)

    def test_plain_custom_calculators_run_threaded(self, monkeypatch):
        """Lambdas and raw-array calculators need no pickling: threads share them."""
        import repro.features.extraction as extraction_mod
        import repro.runtime.parallel as parallel_mod
        from repro.features.calculators import Calculator

        monkeypatch.setattr(parallel_mod, "usable_cpus", lambda: 4)
        monkeypatch.setattr(extraction_mod, "_GROUP_CELLS", 6 * 16)
        custom = [Calculator("loc_mean", lambda b: b.mean(axis=1), ("loc_mean",))]
        fx = FeatureExtractor(calculators=custom, resample_points=16)
        series = make_series(n_metrics=3)
        engine = ParallelExtractor(fx, config=ExecutionConfig(n_workers=4, cache_size=0))
        mat, _ = engine.extract_matrix(series)
        assert engine.stats()["scheduler"] == {"mode": "threaded", "workers": 3, "groups": 3}
        assert np.array_equal(mat, fx.extract_matrix(series)[0])

    def test_stats_snapshot(self, extractor):
        inst = Instrumentation()
        engine = ParallelExtractor(
            extractor,
            config=ExecutionConfig(n_workers=1, cache_size=8),
            instrumentation=inst,
        )
        engine.extract_matrix(make_series(n_series=2))
        stats = engine.stats()
        assert stats["config"]["cache_size"] == 8
        assert stats["cache"]["misses"] == 2
        assert stats["instrumentation"]["stages"]["extract"]["items"] == 2


# -- ChiSquareSelector.sentinel ------------------------------------------------


class TestSentinelSelector:
    def test_carries_names_and_scores(self):
        sel = ChiSquareSelector.sentinel(["f_b", "f_a"], [1.0, 3.0], k=2)
        assert sel.selected_names_ == ("f_b", "f_a")
        assert np.array_equal(sel.scores_, [1.0, 3.0])
        assert sel.top_features()[0] == ("f_a", 3.0)  # ranked by score

    def test_rejects_misaligned_scores(self):
        with pytest.raises(ValueError, match="scores has shape"):
            ChiSquareSelector.sentinel(["f_a", "f_b"], [1.0])


# -- Instrumentation -----------------------------------------------------------


class TestInstrumentation:
    def test_stage_records_calls_and_items(self):
        inst = Instrumentation()
        with inst.stage("extract", items=3):
            pass
        with inst.stage("extract", items=2):
            pass
        stats = inst.stage_stats("extract")
        assert stats.calls == 2 and stats.items == 5
        assert stats.seconds >= 0 and stats.mean_ms >= 0

    def test_counters_and_snapshot(self):
        inst = Instrumentation()
        inst.count("cache_hits", 4)
        inst.count("cache_hits")
        snap = inst.snapshot()
        assert snap["counters"] == {"cache_hits": 5}
        inst.reset()
        assert inst.snapshot() == {"stages": {}, "counters": {}}

    def test_stage_records_a_block_that_raises(self):
        inst = Instrumentation()
        with pytest.raises(KeyError):
            with inst.stage("extract", items=4):
                raise KeyError("boom")
        stats = inst.stage_stats("extract")
        assert (stats.calls, stats.items) == (1, 4) and stats.seconds >= 0
        timer = inst.stage("extract")
        assert timer.__exit__(None, None, None) is False  # never swallows

    def test_disabled_registry_records_nothing(self):
        inst = Instrumentation(enabled=False)
        with inst.stage("score", items=10):
            pass
        inst.count("cache_hits")
        assert inst.stage_stats("score").calls == 0
        assert inst.counter("cache_hits") == 0

    def test_report_lists_stages_in_flow_order(self):
        inst = Instrumentation()
        inst.record("score", 0.1, items=1)
        inst.record("extract", 0.2, items=1)
        report = inst.report()
        assert report.index("extract") < report.index("score")


# -- CLI -----------------------------------------------------------------------


def test_cli_runtime_stats(capsys):
    assert main(["runtime", "stats", "--samples", "6", "--metrics", "4"]) == 0
    out = capsys.readouterr().out
    assert "extract" in out and "n_workers" in out
    # the CLI resets the process config on exit
    assert get_execution_config() == ExecutionConfig.from_env()


def test_cli_runtime_stats_json(capsys):
    import json

    argv = ["runtime", "stats", "--samples", "4", "--metrics", "3", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["n_workers"] == ExecutionConfig.from_env().n_workers
    assert "extract" in payload["instrumentation"]["stages"]

    assert main(argv + ["--workers", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["n_workers"] == 1
    assert payload["scheduler"]["mode"] == "inline"
