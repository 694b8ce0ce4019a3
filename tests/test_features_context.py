"""Tests for the shared-intermediate feature engine.

Covers the PR's core contracts:

* parity of the context-backed/vectorised kernels against the frozen
  pre-vectorisation references (bit-identical cheap tier, <= 1e-9 for the
  entropy/complexity tier) on random, constant, short, and NaN-edge series;
* :class:`MetricBlockContext` memoisation semantics, and its one-sort
  quantile and median kernels against ``np.quantile`` / ``np.median``;
* slab grouping and the threaded engine: the same bits at any worker
  count, no extraction thread left alive;
* micro-batched streaming ingest matching sequential ingest;
* layout caching, cache-key kernel versioning, vectorised resample parity,
  and the bench regression comparator.
"""

import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.features.extraction as extraction_mod
import repro.runtime.parallel as parallel_mod
from repro.features import FeatureExtractor
from repro.features.calculators import (
    KERNEL_VERSION,
    Calculator,
    calculator_set_digest,
    default_calculators,
    full_calculators,
)
from repro.features.context import MetricBlockContext, as_context
from repro.features.extraction import (
    calculator_offsets,
    compute_block,
    slab_groups,
)
from repro.monitoring import StreamingDetector
from repro.runtime import ExecutionConfig, Instrumentation, ParallelExtractor
from repro.runtime.cache import extractor_signature
from repro.telemetry import NodeSeries

from oracles.features import reference_full_calculators

# -- parity vs frozen reference kernels ----------------------------------------


def _edge_batches():
    rng = np.random.default_rng(0)
    return {
        "random": rng.normal(size=(12, 96)),
        "constant": np.full((6, 64), 3.25),
        # T <= m + 1 for the m=2 entropy kernels
        "short": rng.normal(size=(6, 3)),
        "nan_edge": np.where(
            rng.random((6, 64)) < 0.1, np.nan, rng.normal(size=(6, 64))
        ),
        "mixed_constant_rows": np.vstack(
            [np.zeros((3, 80)), rng.normal(size=(3, 80))]
        ),
    }


NEW_BY_NAME = {c.name: c for c in full_calculators()}
REF_BY_NAME = {c.name: c for c in reference_full_calculators()}

#: Kernels that reduce a row with a float ``matrix @ vector`` (``xc @ tc``,
#: ``pc @ bc``, ``p @ freqs``): BLAS may add a row up differently depending
#: on how many rows share the block.
ROW_VARIANT = {"linear_trend", "benford_correlation", "fft_aggregated"}


class TestCalculatorParity:
    def test_registries_align(self):
        assert set(NEW_BY_NAME) == set(REF_BY_NAME)
        for name, calc in NEW_BY_NAME.items():
            assert calc.output_names == REF_BY_NAME[name].output_names
            assert calc.cost == REF_BY_NAME[name].cost

    @pytest.mark.parametrize("case", sorted(_edge_batches()))
    @pytest.mark.parametrize("name", sorted(NEW_BY_NAME))
    def test_kernel_parity(self, case, name):
        """Cheap tier bit-identical to the reference; rest within 1e-9."""
        data = _edge_batches()[case]
        try:
            expected = REF_BY_NAME[name](data.copy())
        except Exception:
            pytest.skip("reference kernel rejects this input")
        got = NEW_BY_NAME[name](data.copy())
        assert got.shape == expected.shape
        if NEW_BY_NAME[name].cost == "cheap":
            assert np.array_equal(got, expected)
        else:
            np.testing.assert_allclose(got, expected, atol=1e-9, rtol=0)

    def test_rows_invariant_to_block_height(self):
        """A row's features are the same bits alone as inside a taller block.

        The streaming paths stack windows differently (per window, per
        group, per micro-batch), so this is what makes them agree exactly.
        Only the known BLAS-reducing kernels may differ, by a few ULPs.
        """
        calcs = full_calculators()
        offsets = calculator_offsets(calcs)
        rng = np.random.default_rng(71)
        differing = set()
        for n, t in ((3, 8), (9, 40), (17, 97), (33, 64)):
            block = rng.normal(size=(n, t)) * 10.0 ** rng.integers(-3, 7, size=(n, 1))
            block[1, rng.random(t) < 0.2] = np.nan
            block[2] = 4.5
            tall = compute_block(calcs, block[:, :, None])
            for i in range(n):
                alone = compute_block(calcs, block[i : i + 1, :, None])[0]
                for calc, (off, width) in zip(calcs, offsets):
                    got, want = alone[off : off + width], tall[i, off : off + width]
                    if not np.array_equal(got, want):
                        differing.add(calc.name)
                        np.testing.assert_allclose(
                            got, want, rtol=1e-9, atol=1e-12, err_msg=calc.name
                        )
        assert differing <= ROW_VARIANT

    def test_approximate_entropy_nan_row_is_quiet(self):
        """NaN rows are masked to 0 without an invalid-value RuntimeWarning."""
        data = _edge_batches()["nan_edge"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = NEW_BY_NAME["approximate_entropy"](data)
        assert np.isfinite(got).all()

    def test_property_style_random_batches(self):
        """Many random shapes/scales: full-set parity holds everywhere."""
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(1, 10))
            t = int(rng.integers(4, 150))
            data = rng.normal(size=(n, t)) * 10.0 ** float(rng.integers(-3, 4))
            for name, calc in NEW_BY_NAME.items():
                expected = REF_BY_NAME[name](data.copy())
                got = calc(data.copy())
                if calc.cost == "cheap":
                    assert np.array_equal(got, expected), name
                else:
                    np.testing.assert_allclose(
                        got, expected, atol=1e-9, rtol=0, err_msg=name
                    )

    @pytest.mark.parametrize(
        "bits",
        [
            np.zeros((1, 12)),
            np.tile([0.0, 1.0], (3, 8)),
            np.array([[0.0]]),
            np.array([[0.0, 1.0]]),
        ],
        ids=["constant", "alternating", "t1", "t2"],
    )
    def test_lempel_ziv_lockstep_edges(self, bits):
        from repro.features.calculators import _lempel_ziv_complexity
        from oracles.features import _lempel_ziv_complexity as ref_lz

        got = np.asarray(_lempel_ziv_complexity(bits))
        expected = np.asarray(ref_lz(bits))
        assert np.array_equal(got.ravel(), expected.ravel())


# -- MetricBlockContext --------------------------------------------------------


def _same_bits(got, want):
    """Equal shapes, NaN in the same cells, every other cell the same bits."""
    nan = np.isnan(got)
    return (
        got.shape == want.shape
        and np.array_equal(nan, np.isnan(want))
        and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    )


class TestMetricBlockContext:
    def test_intermediates_memoised(self):
        ctx = MetricBlockContext(np.random.default_rng(1).normal(size=(4, 32)))
        assert ctx.centered is ctx.centered
        assert ctx.sorted_values is ctx.sorted_values
        assert ctx.autocorrelation(3) is ctx.autocorrelation(3)
        p1 = ctx.entropy_profile(2, 0.2)
        assert ctx.entropy_profile(2, 0.2) is p1
        assert ctx.entropy_profile(1, 0.2) is not p1

    def test_entropy_profile_short_series_invalid(self):
        ctx = MetricBlockContext(np.ones((3, 3)))
        profile = ctx.entropy_profile(m=2)
        assert not profile.valid.any()
        assert np.all(profile.phi_m == 0) and np.all(profile.a == 0)

    def test_as_context_passthrough_and_wrap(self):
        values = np.zeros((2, 8))
        ctx = MetricBlockContext(values)
        assert as_context(ctx) is ctx
        assert isinstance(as_context(values), MetricBlockContext)
        with pytest.raises(ValueError, match="slab"):
            MetricBlockContext(np.zeros(8))

    def test_quantiles_match_np_quantile(self):
        """One sort serves quantile/iqr/median with np.quantile's own bits."""
        qs = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)
        rng = np.random.default_rng(17)
        for n in range(1, 301):
            rows = int(rng.integers(1, 21))
            values = rng.normal(size=(rows, n)) * 10.0 ** float(rng.integers(-3, 6))
            if n % 3 == 0:
                values[rng.random(rows) < 0.3] = 4.25  # constant rows
            if n % 4 == 0:
                values[rng.random((rows, n)) < 0.05] = np.nan  # NaN rows
            if n % 5 == 0:
                values = np.round(values, 1) + 0.0  # ties, no signed zeros
            ctx = MetricBlockContext(values)
            assert _same_bits(ctx.quantiles(qs), np.quantile(values, qs, axis=1).T), n
            assert _same_bits(ctx.median, np.median(values, axis=1)), n

    def test_quantiles_signed_zero_ties_compare_equal(self):
        """Where +0.0 and -0.0 tie, only the sign of a zero result may differ."""
        rng = np.random.default_rng(23)
        values = rng.normal(size=(20, 64))
        values[rng.random(values.shape) < 0.3] = 0.0
        values[rng.random(values.shape) < 0.3] = -0.0
        qs = (0.05, 0.25, 0.5, 0.75, 0.95)
        got = MetricBlockContext(values).quantiles(qs)
        assert np.array_equal(got, np.quantile(values, qs, axis=1).T)

    def test_custom_array_calculator_still_gets_arrays(self):
        """Third-party calculators (uses_context=False) see raw ndarrays."""
        seen = {}
        calc = Calculator("probe", lambda b: seen.setdefault("x", b).mean(axis=1), ("probe",))
        block = np.random.default_rng(2).normal(size=(3, 16, 2))
        compute_block([calc], block)
        assert isinstance(seen["x"], np.ndarray)


# -- slab groups and the threaded engine ----------------------------------------


class TestSlabGroups:
    def test_every_metric_covered_once_by_whole_slabs(self):
        for shape in ((1, 24, 1), (5, 24, 7), (96, 240, 96), (32, 128, 12), (3, 1, 0)):
            groups = slab_groups(shape)
            covered = [m for lo, hi in groups for m in range(lo, hi)]
            assert covered == list(range(shape[2]))
            n, t, _ = shape
            for lo, hi in groups:
                assert hi > lo
                assert hi - lo == 1 or (hi - lo) * n * t <= extraction_mod._GROUP_CELLS

    def test_perfbench_slabs_pair_up(self):
        assert slab_groups((96, 240, 96)) == [(m, m + 2) for m in range(0, 96, 2)]

    def test_grouping_depends_on_block_shape_alone(self):
        """Slabs larger than the budget run alone; small ones share a context."""
        assert slab_groups((400, 240, 3)) == [(0, 1), (1, 2), (2, 3)]
        assert slab_groups((2, 16, 9)) == [(0, 9)]


def _plain_calculators():
    """Third-party style calculators that take the raw ``(N, T)`` array."""
    return [
        Calculator("plain_mean", lambda b: b.mean(axis=1), ("plain_mean",)),
        Calculator(
            "plain_span",
            lambda b: np.stack([b.min(axis=1), b.max(axis=1)], axis=1),
            ("plain_min", "plain_max"),
        ),
    ]


CALCULATOR_SETS = {
    "default": default_calculators,
    "full": full_calculators,
    "plain": _plain_calculators,
}


def _engine(fx, workers):
    return ParallelExtractor(
        fx,
        config=ExecutionConfig(n_workers=workers, cache_size=0),
        instrumentation=Instrumentation(enabled=False),
    )


def _series_of(values):
    """One NodeSeries per row of an ``(N, T, K)`` block, metrics ``m0..``."""
    n, t, k = values.shape
    names = tuple(f"m{i}" for i in range(k))
    return [NodeSeries(1, c, np.arange(float(t)), values[c], names) for c in range(n)]


class TestThreadedExtraction:
    #: time steps per run
    T = 24

    @pytest.fixture(autouse=True)
    def _four_cpus(self, monkeypatch):
        """Four usable CPUs, so ``n_workers=4`` really starts three helpers."""
        monkeypatch.setattr(parallel_mod, "usable_cpus", lambda: 4)

    @pytest.mark.parametrize("calcs", sorted(CALCULATOR_SETS))
    @pytest.mark.parametrize("k", [2, 3, 6, 7], ids=["below", "at", "multiple", "above"])
    @pytest.mark.parametrize("n", [1, 5, 96])
    def test_threaded_matches_serial(self, n, k, calcs, monkeypatch):
        """Serial and 1/2/4-worker extraction are the same bits, threads joined."""
        monkeypatch.setattr(extraction_mod, "_GROUP_CELLS", 3 * n * self.T)  # 3 slabs
        rng = np.random.default_rng(0)
        values = rng.normal(size=(n, self.T, k)) * 10.0 ** rng.integers(-2, 4, size=(1, 1, k))
        values[0, :, 0] = 2.5  # a constant row inside the first group
        series = _series_of(values)
        fx = FeatureExtractor(CALCULATOR_SETS[calcs](), resample_points=None)
        reference, names = fx.extract_matrix(series)
        before = threading.active_count()
        for workers in (1, 2, 4):
            engine = _engine(fx, workers)
            mat, got_names = engine.extract_matrix(series)
            assert threading.active_count() == before
            assert got_names == names
            assert np.array_equal(mat, reference), (workers, calcs)
            plan = engine.stats()["scheduler"]
            assert plan["groups"] == -(-k // 3)
            assert plan["workers"] == min(workers, plan["groups"])
            assert plan["mode"] == ("threaded" if plan["workers"] > 1 else "inline")

    def test_helper_failure_raises_on_caller_and_joins(self, monkeypatch):
        """A calculator raising in any group fails the call; no thread survives."""
        monkeypatch.setattr(extraction_mod, "_GROUP_CELLS", 2 * 5 * self.T)  # 2 slabs

        def flaky(b):
            if (b > 1e9).any():
                raise RuntimeError("bad slab")
            return b.mean(axis=1)

        values = np.random.default_rng(3).random((5, self.T, 8))
        values[0, :, 6] = 2e9  # metric 6 sits in the last of four groups
        fx = FeatureExtractor([Calculator("flaky", flaky, ("flaky",))], resample_points=None)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="bad slab"):
            _engine(fx, 4).extract_matrix(_series_of(values))
        assert threading.active_count() == before

    def test_stress_every_group_claimed_once(self, monkeypatch):
        """More threads than cores, rapid switching: each group runs exactly once."""
        monkeypatch.setattr(parallel_mod, "usable_cpus", lambda: 8)
        monkeypatch.setattr(extraction_mod, "_GROUP_CELLS", 1)  # one slab per group
        lock = threading.Lock()
        seen: list[float] = []

        def tagged(b):
            with lock:
                seen.append(float(b[0, 0]))
            return b.sum(axis=1)

        k = 40
        values = np.random.default_rng(9).random((3, self.T, k))
        values[0, 0, :] = np.arange(k)  # tags each slab by its first cell
        series = _series_of(values)
        fx = FeatureExtractor([Calculator("tagged", tagged, ("tagged",))], resample_points=None)
        reference, _ = fx.extract_matrix(series)
        seen.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            mat, _ = _engine(fx, 8).extract_matrix(series)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == list(range(k))
        assert np.array_equal(mat, reference)


class TestSerialFallback:
    @pytest.fixture
    def series(self):
        rng = np.random.default_rng(5)
        names = tuple(f"m{i}" for i in range(6))
        return [
            NodeSeries(1, c, np.arange(48.0), rng.random((48, 6)), names)
            for c in range(5)
        ]

    def test_single_cpu_host_runs_serial(self, series, monkeypatch):
        monkeypatch.setattr(parallel_mod, "usable_cpus", lambda: 1)
        monkeypatch.setattr(extraction_mod, "_GROUP_CELLS", 5 * 16)  # one slab per group
        engine = _engine(FeatureExtractor(resample_points=16), 4)
        engine.extract_matrix(series)
        assert engine.effective_workers == 1
        assert engine.stats()["scheduler"] == {"mode": "inline", "workers": 1, "groups": 6}

    def test_multi_cpu_parallel_is_bit_identical(self, series, monkeypatch):
        monkeypatch.setattr(parallel_mod, "usable_cpus", lambda: 4)
        monkeypatch.setattr(extraction_mod, "_GROUP_CELLS", 5 * 16)
        fx = FeatureExtractor(full_calculators(), resample_points=16)
        reference = fx.extract_matrix(series)[0]
        engine = _engine(fx, 4)
        mat, _ = engine.extract_matrix(series)
        assert engine.stats()["scheduler"] == {"mode": "threaded", "workers": 4, "groups": 6}
        assert np.array_equal(mat, reference)

    def test_stacked_groups_match_one_slab_at_a_time(self, series, monkeypatch):
        """Grouped contexts give each slab's own bits (row-wise kernels)."""
        fx = FeatureExtractor(full_calculators(), resample_points=16)
        block, _ = fx.stack(series)
        grouped = compute_block(fx.calculators, block)
        assert len(slab_groups(block.shape)) == 1
        monkeypatch.setattr(extraction_mod, "_GROUP_CELLS", 1)
        alone = compute_block(fx.calculators, block)
        f_per = fx.n_features_per_metric
        for calc, (off, width) in zip(fx.calculators, calculator_offsets(fx.calculators)):
            cols = [m * f_per + off + j for m in range(block.shape[2]) for j in range(width)]
            if calc.name in ROW_VARIANT:
                np.testing.assert_allclose(grouped[:, cols], alone[:, cols], rtol=1e-9, atol=1e-12)
            else:
                assert np.array_equal(grouped[:, cols], alone[:, cols]), calc.name


# -- layout caching and cache-key versioning -----------------------------------


class TestLayoutAndSignature:
    def test_feature_names_memoised_per_layout(self):
        fx = FeatureExtractor(resample_points=16)
        names1 = fx.feature_names(("a", "b"))
        assert fx.feature_names(("a", "b")) is names1
        assert fx.feature_names(("b", "a")) is not names1

    def test_signature_tracks_kernel_version(self, monkeypatch):
        fx = FeatureExtractor(resample_points=16)
        before = extractor_signature(fx)
        import repro.features.calculators as calcs_mod

        monkeypatch.setattr(calcs_mod, "KERNEL_VERSION", KERNEL_VERSION + 1)
        assert extractor_signature(fx) != before

    def test_digest_tracks_content_not_identity(self):
        base = [Calculator("a", lambda b: b.mean(axis=1), ("a",))]
        same = [Calculator("a", lambda b: b.sum(axis=1), ("a",))]
        renamed_out = [Calculator("a", lambda b: b.mean(axis=1), ("a2",))]
        retiered = [Calculator("a", lambda b: b.mean(axis=1), ("a",), "expensive")]
        assert calculator_set_digest(base) == calculator_set_digest(same)
        assert calculator_set_digest(base) != calculator_set_digest(renamed_out)
        assert calculator_set_digest(base) != calculator_set_digest(retiered)


# -- vectorised resample -------------------------------------------------------


class TestResampleParity:
    def test_bit_identical_to_np_interp(self):
        rng = np.random.default_rng(9)
        for trial in range(40):
            t = int(rng.integers(2, 60))
            ts = np.unique(rng.uniform(0, 50, size=t))
            if ts.size < 2:
                continue
            vals = rng.normal(size=(ts.size, 3))
            if trial % 3 == 0:
                vals[rng.random(vals.shape) < 0.2] = np.nan
            if trial % 5 == 0:
                ts = np.arange(ts.size, dtype=np.float64)  # exact grid hits
            s = NodeSeries(1, 1, ts, vals, ("a", "b", "c"))
            n_points = int(rng.integers(2, 100))
            got = s.resample(n_points).values
            grid = np.linspace(ts[0], ts[-1], n_points)
            want = np.column_stack(
                [np.interp(grid, ts, vals[:, j]) for j in range(3)]
            )
            same = (got == want) | (np.isnan(got) & np.isnan(want))
            assert same.all()


# -- micro-batched streaming ingest --------------------------------------------


class _BatchPipeline:
    """Engine-backed pipeline exposing both single and batched transforms."""

    def __init__(self, cache_size=0):
        self.engine = ParallelExtractor(
            FeatureExtractor(resample_points=16),
            config=ExecutionConfig(n_workers=1, cache_size=cache_size),
            instrumentation=Instrumentation(),
        )

    def transform_single(self, window):
        return self.engine.extract_single(window)

    def transform_series(self, windows):
        return self.engine.extract_matrix(windows)[0]


class _MeanDetector:
    """Deterministic detector: score is the feature-row mean."""

    threshold_ = 0.5

    def anomaly_score(self, features):
        return features.mean(axis=1)


def _node_chunks(job_id, n_chunks, chunk=10, n_metrics=3, seed=0):
    rng = np.random.default_rng(seed)
    names = tuple(f"m{i}" for i in range(n_metrics))
    return [
        NodeSeries(
            job_id, 0,
            np.arange(float(i * chunk), float((i + 1) * chunk)),
            rng.random((chunk, n_metrics)),
            names,
        )
        for i in range(n_chunks)
    ]


class TestIngestMany:
    def _stream(self, cache_size=0):
        return StreamingDetector(
            _BatchPipeline(cache_size), _MeanDetector(),
            window_seconds=16, evaluate_every=10, consecutive_alerts=2,
        )

    def test_matches_sequential_ingest(self):
        """One micro-batch call == the same chunks ingested one by one."""
        chunks_a = _node_chunks(1, 4, seed=3) + _node_chunks(2, 4, seed=4)
        sequential = self._stream()
        expected = [v for c in chunks_a for v in [sequential.ingest(c)] if v]

        batched = self._stream()
        got = batched.ingest_many(chunks_a)
        assert len(got) == len(expected) > 0
        for g, e in zip(got, expected):
            assert (g.job_id, g.component_id, g.window_end) == (
                e.job_id, e.component_id, e.window_end
            )
            assert g.anomaly_score == pytest.approx(e.anomaly_score, abs=1e-9)
            assert (g.alert, g.streak) == (e.alert, e.streak)

    def test_single_engine_dispatch_and_counters(self):
        stream = self._stream()
        inst = stream.pipeline.engine.instrumentation
        verdicts = stream.ingest_many(_node_chunks(1, 3, seed=5) + _node_chunks(2, 3, seed=6))
        assert len(verdicts) > 1
        # All due windows went through ONE extract call.
        assert inst.snapshot()["stages"]["extract"]["calls"] == 1
        assert inst.counter("microbatch_batches") == 1
        assert inst.counter("microbatch_windows") == len(verdicts)
        assert inst.counter("stream_evaluations") == len(verdicts)

    def test_no_due_windows_returns_empty(self):
        stream = self._stream()
        assert stream.ingest_many(_node_chunks(1, 1, chunk=4)) == []


# -- bench comparator ----------------------------------------------------------


class TestCompareBench:
    @pytest.fixture(autouse=True)
    def _import(self):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
        import compare_bench

        self.cb = compare_bench
        yield
        sys.path.pop(0)

    def test_regression_detected_above_threshold(self):
        baseline = {"full_set": {"new_seconds": 1.0}}
        fresh = {"full_set": {"new_seconds": 1.5}}
        rows = self.cb.compare_payloads(baseline, fresh, ("full_set.new_seconds",))
        assert rows[0]["regressed"] and rows[0]["ratio"] == pytest.approx(1.5)

    def test_within_threshold_passes(self):
        baseline = {"serial": {"seconds": 1.0}}
        fresh = {"serial": {"seconds": 1.15}}
        rows = self.cb.compare_payloads(baseline, fresh, ("serial.seconds",))
        assert not rows[0]["regressed"]

    def test_missing_metric_skipped_not_regressed(self):
        rows = self.cb.compare_payloads({}, {"a": {"b": 1.0}}, ("a.b", "c.d"))
        assert all(not r["regressed"] for r in rows)
        assert rows[0]["ratio"] is None  # missing baseline side

    def test_format_rows_units_follow_metric_path(self):
        rows = self.cb.compare_payloads(
            {"q": {"p99_ms": 2.0}, "s": {"seconds": 1.0}},
            {"q": {"p99_ms": 3.0}, "s": {"seconds": 1.0}},
            ("q.p99_ms", "s.seconds"),
        )
        text = self.cb.format_rows("t", rows)
        assert "q.p99_ms: 2.000ms -> 3.000ms" in text
        assert "s.seconds: 1.000s -> 1.000s" in text

    def test_every_tracked_file_has_a_bench(self):
        import check_perf

        files = [bench.filename for bench in check_perf.BENCHES]
        assert len(set(files)) == len(files)

    def test_check_perf_writes_positional_paths_in_table_order(self, tmp_path, monkeypatch):
        import json

        import check_perf

        monkeypatch.setattr(sys, "path", list(sys.path))
        monkeypatch.setattr(check_perf, "BENCHES", tuple(
            check_perf.Bench(f"BENCH_fake{i}.json", lambda i=i: {"i": i}, lambda r: "", ())
            for i in range(2)
        ))
        outs = [tmp_path / "first.json", tmp_path / "second.json"]
        assert check_perf.main([str(p) for p in outs]) == 0
        assert [json.loads(p.read_text())["i"] for p in outs] == [0, 1]

    def test_failed_bench_is_one_row_and_later_benches_compare(
        self, tmp_path, monkeypatch, capsys
    ):
        import json

        import check_perf

        def below_floor():
            raise AssertionError("speedup 1.47x below its 1.5x floor")

        monkeypatch.setattr(sys, "path", list(sys.path))
        monkeypatch.setattr(self.cb, "REPO_ROOT", tmp_path)
        benches = (
            check_perf.Bench("BENCH_first.json", below_floor, lambda r: "", ("t.seconds",)),
            check_perf.Bench(
                "BENCH_second.json", lambda: {"t": {"seconds": 1.0}}, lambda r: "", ("t.seconds",)
            ),
        )
        for bench in benches:
            (tmp_path / bench.filename).write_text(
                json.dumps({"ok": True, "t": {"seconds": 1.0}})
            )
        monkeypatch.setattr(check_perf, "BENCHES", benches)
        assert self.cb.main(["1.2"]) == 1
        out = capsys.readouterr().out
        assert "BENCH_first.json: FAILED — speedup 1.47x below its 1.5x floor" in out
        assert "BENCH_second.json (threshold 1.20x):" in out
        assert "t.seconds: 1.000s -> 1.000s (1.00x) ok" in out

    def test_tracked_metrics_resolve_in_committed_baselines(self):
        import json

        import check_perf

        repo = Path(__file__).resolve().parent.parent
        for bench in check_perf.BENCHES:
            payload = json.loads((repo / bench.filename).read_text())
            if not payload.get("ok"):
                continue
            for path in bench.tracked:
                assert self.cb.extract_metric(payload, path) is not None, (
                    bench.filename, path,
                )
