"""Tests for the per-node ring buffer and the rolling feature engine."""

import numpy as np
import pytest

from repro.core import ProdigyDetector
from repro.features import FeatureExtractor, NodeRingBuffer, full_calculators
from repro.features.scaling import MinMaxScaler
from repro.features.selection import ChiSquareSelector
from repro.monitoring import StreamingDetector
from repro.pipeline import DataPipeline
from repro.runtime import ExecutionConfig, Instrumentation, ParallelExtractor
from repro.telemetry import NodeSeries


class TestNodeRingBuffer:
    def test_append_and_window_roundtrip(self):
        ring = NodeRingBuffer(2, capacity=8)
        ts = np.arange(5.0)
        vals = np.arange(10.0).reshape(5, 2)
        ring.append(ts, vals)
        assert ring.size == 5
        got_ts, got_vals = ring.window()
        np.testing.assert_array_equal(got_ts, ts)
        np.testing.assert_array_equal(got_vals, vals)
        # window() returns copies, not aliases of the backing block
        got_vals[0, 0] = -1.0
        assert ring.values_view()[0, 0] == 0.0

    def test_evict_before_returns_prefix_in_admission_order(self):
        ring = NodeRingBuffer(1, capacity=8)
        ring.append(np.arange(6.0), np.arange(6.0)[:, None])
        assert ring.evict_before(3.0) == 3
        assert ring.size == 3 and ring.total_evicted == 3
        np.testing.assert_array_equal(ring.timestamps_view(), [3.0, 4.0, 5.0])
        np.testing.assert_array_equal(ring.values_view()[:, 0], [3.0, 4.0, 5.0])

    def test_evict_nothing_below_cutoff(self):
        ring = NodeRingBuffer(1, capacity=4)
        ring.append(np.arange(3.0), np.zeros((3, 1)))
        assert ring.evict_before(-1.0) == 0
        assert ring.size == 3

    def test_wraparound_views_match_window(self):
        ring = NodeRingBuffer(2, capacity=6)
        rng = np.random.default_rng(0)
        ts = np.arange(30.0)
        vals = rng.random((30, 2))
        expect_start = 0
        for i in range(0, 30, 3):
            ring.evict_before(float(i) - 5.0)
            expect_start = max(expect_start, i - 5)
            ring.append(ts[i : i + 3], vals[i : i + 3])
            got_ts, got_vals = ring.window()
            np.testing.assert_array_equal(got_ts, ts[expect_start : i + 3])
            np.testing.assert_array_equal(got_vals, vals[expect_start : i + 3])
        # A 6-slot ring fed 30 rows with steady eviction must have wrapped.
        assert ring.unwrap_copies > 0

    def test_evict_across_the_wrap(self):
        """An eviction that empties the older segment goes on into the wrapped one."""
        ring = NodeRingBuffer(1, capacity=8)
        ring.append(np.arange(6.0), np.arange(6.0)[:, None])
        assert ring.evict_before(4.0) == 4
        ring.append(np.arange(6.0, 11.0), np.arange(6.0, 11.0)[:, None])
        assert ring.wrapped
        assert ring.evict_before(9.0) == 5
        np.testing.assert_array_equal(ring.timestamps_view(), [9.0, 10.0])
        np.testing.assert_array_equal(ring.values_view()[:, 0], [9.0, 10.0])
        assert ring.evict_before(100.0) == 2
        assert ring.size == 0 and ring.total_evicted == 11

    def test_growth_relinearises_and_counts(self):
        ring = NodeRingBuffer(1, capacity=4)
        ring.append(np.arange(3.0), np.arange(3.0)[:, None])
        ring.evict_before(2.0)
        ring.append(np.arange(3.0, 10.0), np.arange(3.0, 10.0)[:, None])
        assert ring.grows == 1
        assert ring.capacity >= 8
        assert not ring.wrapped
        np.testing.assert_array_equal(ring.timestamps_view(), np.arange(2.0, 10.0))

    def test_duration_and_last_timestamp(self):
        ring = NodeRingBuffer(1, capacity=8)
        with pytest.raises(IndexError):
            _ = ring.last_timestamp
        ring.append(np.array([2.0]), np.zeros((1, 1)))
        assert ring.duration == 0.0
        ring.append(np.array([5.0, 9.0]), np.zeros((2, 1)))
        assert ring.last_timestamp == 9.0
        assert ring.duration == 7.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeRingBuffer(0)
        with pytest.raises(ValueError):
            NodeRingBuffer(1, capacity=0)


# -- parity: rolling engine vs the batch oracle -------------------------------


def _make_series(n_samples, names, job_id, comp, rng):
    return NodeSeries(
        job_id, comp,
        np.arange(float(n_samples)),
        100.0 + 40.0 * rng.random((n_samples, len(names))),
        names,
    )


def _fit_deployment(
    series, n_features=40, calculators=None, prefer=None, names=None,
    resample_points=None, metrics=None,
):
    """Hand-fit a deployment over *series* (mixed schemas ok).

    Resample-free unless *resample_points* is given; *metrics* pins the
    extractor's metric subset.  ``prefer`` force-includes every feature
    whose name contains the given substring, then fills the remaining
    budget by variance.  ``names`` instead pins the selection to exactly
    those ``metric|feature`` names.
    """
    extractor = FeatureExtractor(
        calculators, resample_points=resample_points, metrics=metrics
    )
    engine = ParallelExtractor(
        extractor,
        config=ExecutionConfig(cache_size=0),
        instrumentation=Instrumentation(),
    )
    samples = engine.extract(series)
    feats, fnames, present = samples.features, samples.feature_names, samples.present_mask
    var = feats.var(axis=0)
    by_var = np.lexsort((np.arange(var.size), -var))
    forced = [i for i, n in enumerate(fnames) if prefer and prefer in n]
    fill = [i for i in by_var if i not in set(forced)]
    keep = np.sort(np.array((forced + fill)[:n_features], dtype=int))
    if names is not None:
        keep = np.array(sorted(fnames.index(n) for n in names))
    pipeline = DataPipeline(engine, n_features=len(keep))
    pipeline.selected_names_ = tuple(fnames[i] for i in keep)
    pipeline.selector_ = ChiSquareSelector.sentinel(pipeline.selected_names_, var[keep])
    pipeline.scaler_ = MinMaxScaler().fit(feats[:, keep], present=present[:, keep])
    rows, _ = pipeline.transform_series_masked(series)
    detector = ProdigyDetector(
        hidden_dims=(16, 8), latent_dim=4, epochs=2, batch_size=8,
        learning_rate=1e-3, seed=0,
    ).fit(rows)
    return pipeline, detector


def _random_chunks(series, rng, lo=3, hi=25):
    out = []
    i = 0
    while i < series.n_timestamps:
        j = min(i + int(rng.integers(lo, hi)), series.n_timestamps)
        out.append(
            NodeSeries(
                series.job_id, series.component_id,
                series.timestamps[i:j], series.values[i:j], series.metric_names,
            )
        )
        i = j
    return out


def _lockstep_rounds(series, rows=10):
    """Equal-size chunks of every series, one round per time slice."""
    return [
        [
            NodeSeries(s.job_id, s.component_id, s.timestamps[i : i + rows],
                       s.values[i : i + rows], s.metric_names)
            for s in series
        ]
        for i in range(0, series[0].n_timestamps, rows)
    ]


def _interleave(per_node):
    """One chunk of every node per round, as concurrent reporters arrive."""
    return [
        node[i]
        for i in range(max(len(p) for p in per_node))
        for node in per_node
        if i < len(node)
    ]


#: Calculators that reduce a row with a float ``matrix @ vector``: BLAS may
#: add a row up differently depending on how many rows share the block, so
#: their cells can move by a few ULPs between the two paths.
ROW_VARIANT_CALCS = ("linear_trend", "benford_correlation", "fft_aggregated")


def _row_variant_cells(pipeline):
    outputs = {
        out
        for calc in pipeline.extractor.calculators
        if calc.name in ROW_VARIANT_CALCS
        for out in calc.output_names
    }
    return [n for n in pipeline.selected_names_ if n.rpartition("|")[2] in outputs]


def _verdict_tuples(verdicts):
    return [
        (v.job_id, v.component_id, v.window_end, v.alert, v.streak) for v in verdicts
    ]


def _run_stream(pipeline, detector, chunks, mode, micro_batch=None, **kwargs):
    sd = StreamingDetector(pipeline, detector, streaming_mode=mode, **kwargs)
    verdicts = []
    if micro_batch is None:
        for c in chunks:
            v = sd.ingest(c)
            if v is not None:
                verdicts.append(v)
    else:
        for i in range(0, len(chunks), micro_batch):
            verdicts.extend(sd.ingest_many(chunks[i : i + micro_batch]))
    return sd, verdicts


def _assert_parity(batch, rolling, tol=0.0):
    assert len(batch) == len(rolling) and len(batch) > 0
    assert _verdict_tuples(batch) == _verdict_tuples(rolling)
    deltas = [
        abs(b.anomaly_score - r.anomaly_score) for b, r in zip(batch, rolling)
    ]
    assert max(deltas) <= tol


@pytest.fixture(scope="module")
def rolling_deployment():
    rng = np.random.default_rng(7)
    names = ("m0", "m1", "m2")
    series = [_make_series(300, names, 1, comp, rng) for comp in range(3)]
    pipeline, detector = _fit_deployment(series)
    return pipeline, detector, series


class TestRollingParity:
    def test_random_chunk_sizes(self, rolling_deployment):
        pipeline, detector, series = rolling_deployment
        chunks = _random_chunks(series[0], np.random.default_rng(11))
        _, batch = _run_stream(
            pipeline, detector, chunks, "batch",
            window_seconds=60, evaluate_every=12, consecutive_alerts=2,
        )
        sd, rolling = _run_stream(
            pipeline, detector, chunks, "rolling",
            window_seconds=60, evaluate_every=12, consecutive_alerts=2,
        )
        _assert_parity(batch, rolling)
        stats = sd.runtime_stats()
        assert stats["streaming_mode"] == "rolling"
        assert stats["rolling"]["evictions"] > 0

    def test_nan_bearing_metric_falls_back_in_parity(self, rolling_deployment):
        pipeline, detector, series = rolling_deployment
        src = series[0]
        vals = src.values.copy()
        rng = np.random.default_rng(5)
        vals[rng.random(vals.shape[0]) < 0.1, 1] = np.nan
        dirty = NodeSeries(src.job_id, src.component_id, src.timestamps, vals,
                           src.metric_names)
        chunks = _random_chunks(dirty, np.random.default_rng(13))
        _, batch = _run_stream(
            pipeline, detector, chunks, "batch",
            window_seconds=60, evaluate_every=12,
        )
        sd, rolling = _run_stream(
            pipeline, detector, chunks, "rolling",
            window_seconds=60, evaluate_every=12,
        )
        _assert_parity(batch, rolling)
        # Every cell, the NaN-bearing metric's included, runs the batch kernels.
        assert sd.runtime_stats()["rolling"]["fallback_calc_runs"] > 0

    def test_selection_skipping_columns(self):
        """Cells on non-adjacent columns only, NaN bursts in one selected
        column and in one column the selection never reads."""
        rng = np.random.default_rng(31)
        names = tuple(f"m{i}" for i in range(7))
        series = [_make_series(260, names, 3, comp, rng) for comp in range(2)]
        rolled = ("minimum", "maximum", "range", "absolute_maximum", "mean",
                  "kurtosis", "abs_energy", "mean_abs_change", "autocorrelation_lag2")
        selected = [f"{m}|{f}" for m in ("m1", "m3", "m5") for f in rolled]
        selected += ["m0|median", "m5|quantile_q0.9"]  # batch-only cells
        pipeline, detector = _fit_deployment(series, names=selected)

        def stream(nan_cols):
            vals = series[0].values.copy()
            for col, lo in nan_cols:
                vals[lo : lo + 9, col] = np.nan
                vals[lo + 110 : lo + 114, col] = np.nan
            src = NodeSeries(3, 0, series[0].timestamps, vals, names)
            return _random_chunks(src, np.random.default_rng(37))

        kw = dict(window_seconds=50, evaluate_every=10, consecutive_alerts=2)
        calc_runs = []
        for nan_cols in ((), [(3, 60)], [(3, 60), (4, 95)]):
            chunks = stream(nan_cols)
            _, batch = _run_stream(pipeline, detector, chunks, "batch", **kw)
            sd, rolling = _run_stream(pipeline, detector, chunks, "rolling", **kw)
            _assert_parity(batch, rolling)
            # One context over the selected columns; m2, m4 and m6 stay out.
            assert list(pipeline.plan(names).columns) == [0, 1, 3, 5]
            calc_runs.append(sd.runtime_stats()["rolling"]["fallback_calc_runs"])
        # NaN bursts, in a selected column or not, change no calculator count.
        assert calc_runs[0] > 0
        assert calc_runs[1] == calc_runs[0] and calc_runs[2] == calc_runs[0]

    def test_heterogeneous_schemas_ingest_many(self):
        rng = np.random.default_rng(3)
        names_a, names_b = ("m0", "m1", "m2"), ("m0", "m2", "g0", "g1")
        series = [
            _make_series(260, names_a, 1, 0, rng),
            _make_series(260, names_a, 1, 1, rng),
            _make_series(260, names_b, 1, 2, rng),
            _make_series(260, names_b, 1, 3, rng),
        ]
        pipeline, detector = _fit_deployment(series)
        crng = np.random.default_rng(9)
        per_node = [_random_chunks(s, crng, lo=4, hi=20) for s in series]
        stream = [
            node[i]
            for i in range(max(len(p) for p in per_node))
            for node in per_node
            if i < len(node)
        ]
        _, batch = _run_stream(
            pipeline, detector, stream, "batch", micro_batch=6,
            window_seconds=40, evaluate_every=10, consecutive_alerts=2,
        )
        _, rolling = _run_stream(
            pipeline, detector, stream, "rolling", micro_batch=6,
            window_seconds=40, evaluate_every=10, consecutive_alerts=2,
        )
        _assert_parity(batch, rolling)
        # Two schemas -> exactly two shared plans, one per schema.
        assert len(pipeline._plans) == 2

    def test_detector_hot_swap_mid_stream(self, rolling_deployment):
        pipeline, detector, series = rolling_deployment
        alt = ProdigyDetector(
            hidden_dims=(16, 8), latent_dim=4, epochs=2, batch_size=8,
            learning_rate=1e-3, seed=42,
        ).fit(pipeline.transform_series_masked(series)[0])
        chunks = _random_chunks(series[1], np.random.default_rng(17))
        halfway = len(chunks) // 2

        def run(mode):
            sd = StreamingDetector(
                pipeline, detector, streaming_mode=mode,
                window_seconds=60, evaluate_every=12, consecutive_alerts=2,
            )
            verdicts = []
            for i, c in enumerate(chunks):
                if i == halfway:
                    sd._swap_detector(alt)
                v = sd.ingest(c)
                if v is not None:
                    verdicts.append(v)
            return verdicts

        _assert_parity(run("batch"), run("rolling"))

    def test_ring_wraparound_boundaries(self, rolling_deployment):
        """A short window over a long stream wraps the default 64-slot ring."""
        pipeline, detector, series = rolling_deployment
        chunks = _random_chunks(series[2], np.random.default_rng(19), lo=5, hi=12)
        _, batch = _run_stream(
            pipeline, detector, chunks, "batch",
            window_seconds=40, evaluate_every=10,
        )
        sd, rolling = _run_stream(
            pipeline, detector, chunks, "rolling",
            window_seconds=40, evaluate_every=10,
        )
        _assert_parity(batch, rolling)
        state = next(iter(sd._states.values()))
        assert state.ring.unwrap_copies > 0  # wraparound actually exercised

    def test_chunks_longer_than_window(self, rolling_deployment):
        """45-90-row chunks on a 40 s window: every append leaves a stale
        prefix of the chunk itself, which the same ingest must evict."""
        pipeline, detector, series = rolling_deployment
        crng = np.random.default_rng(43)
        per_node = [_random_chunks(s, crng, lo=45, hi=91) for s in series]
        stream = [
            node[i]
            for i in range(max(len(p) for p in per_node))
            for node in per_node
            if i < len(node)
        ]
        kw = dict(window_seconds=40, evaluate_every=10, consecutive_alerts=2)
        for micro_batch in (None, 4):
            _, batch = _run_stream(
                pipeline, detector, stream, "batch", micro_batch=micro_batch, **kw
            )
            sd = StreamingDetector(pipeline, detector, streaming_mode="rolling", **kw)
            rolling = []
            for i in range(0, len(stream), micro_batch or 1):
                if micro_batch is None:
                    verdict = sd.ingest(stream[i])
                    rolling += [verdict] if verdict is not None else []
                else:
                    rolling += sd.ingest_many(stream[i : i + micro_batch])
                # 1 Hz samples: a 40 s window holds at most 41 rows.
                assert max(s.ring.size for s in sd._states.values()) <= 41
            _assert_parity(batch, rolling)

    def test_full_calculator_entropy_cells(self):
        """Approximate/sample entropy cells, per chunk and stacked in groups."""
        rng = np.random.default_rng(23)
        names = ("m0", "m1")
        series = [_make_series(220, names, 2, comp, rng) for comp in range(2)]
        pipeline, detector = _fit_deployment(
            series, n_features=48, calculators=full_calculators(), prefer="entropy"
        )
        assert any("approximate_entropy" in n for n in pipeline.selected_names_)
        assert any("sample_entropy" in n for n in pipeline.selected_names_)
        crng = np.random.default_rng(29)
        per_node = [_random_chunks(s, crng) for s in series]
        stream = [
            node[i]
            for i in range(max(len(p) for p in per_node))
            for node in per_node
            if i < len(node)
        ]
        kw = dict(window_seconds=60, evaluate_every=12)
        for micro_batch in (None, 4):
            _, batch = _run_stream(
                pipeline, detector, stream, "batch", micro_batch=micro_batch, **kw
            )
            sd, rolling = _run_stream(
                pipeline, detector, stream, "rolling", micro_batch=micro_batch, **kw
            )
            _assert_parity(batch, rolling)
            runs = sd.runtime_stats()["rolling"]["fallback_calc_runs"]
            per_window = len(pipeline.plan(names).calcs) * len(rolling)
            if micro_batch is None:
                assert runs == per_window
            else:
                assert runs < per_window  # some groups stacked several windows

    def test_one_evaluation_per_group(self, rolling_deployment):
        """Windows due together at one length share one plan evaluation."""
        pipeline, detector, _ = rolling_deployment
        rng = np.random.default_rng(47)
        names = ("m0", "m1", "m2")
        n_nodes = 5
        series = [_make_series(120, names, 4, comp, rng) for comp in range(n_nodes)]
        rounds = _lockstep_rounds(series)
        kw = dict(window_seconds=40, evaluate_every=10, consecutive_alerts=2)
        flat = [chunk for rnd in rounds for chunk in rnd]
        sd_one, per_chunk = _run_stream(pipeline, detector, flat, "rolling", **kw)
        runs_per_window = (
            sd_one.runtime_stats()["rolling"]["fallback_calc_runs"] / len(per_chunk)
        )

        sd = StreamingDetector(pipeline, detector, streaming_mode="rolling", **kw)
        grouped, due_rounds = [], 0
        for rnd in rounds:
            before = sd.runtime_stats()["rolling"]["fallback_calc_runs"]
            out = sd.ingest_many(rnd)
            runs = sd.runtime_stats()["rolling"]["fallback_calc_runs"] - before
            if out:
                due_rounds += 1
                assert len(out) == n_nodes
                assert runs == runs_per_window
            else:
                assert runs == 0
            grouped += out
        assert due_rounds >= 5
        assert runs_per_window == len(pipeline.plan(names).calcs) > 0
        _assert_parity(per_chunk, grouped)

    def test_promotion_inside_one_micro_batch(self, rolling_deployment):
        """A model promoted mid-batch scores the batch's later windows."""
        pipeline, detector, series = rolling_deployment
        alt = ProdigyDetector(
            hidden_dims=(16, 8), latent_dim=4, epochs=2, batch_size=8,
            learning_rate=1e-3, seed=42,
        ).fit(pipeline.transform_series_masked(series)[0])
        alt.threshold_ = -np.inf

        class PromoteAt:
            """Lifecycle stub: promotes *alt* at its k-th observed window."""

            def __init__(self, k):
                self.k, self.seen = k, 0

            def observe_window(self, window, features, score, *, alert, active_detector):
                self.seen += 1
                return alt if self.seen == self.k else None

        rounds = _lockstep_rounds(series)[:12]
        kw = dict(window_seconds=40, evaluate_every=10, consecutive_alerts=1)
        k = 5  # the 2nd of 3 windows in the second due round

        def run(micro_batched):
            sd = StreamingDetector(
                pipeline, detector, streaming_mode="rolling", lifecycle=PromoteAt(k), **kw
            )
            sd.threshold_ = -np.inf  # every window alerts: streaks count windows
            verdicts = []
            for rnd in rounds:
                if micro_batched:
                    verdicts += sd.ingest_many(rnd)
                else:
                    verdicts += [v for v in map(sd.ingest, rnd) if v is not None]
            assert sd.detector is alt
            return verdicts

        sequential, batched = run(False), run(True)
        _assert_parity(sequential, batched)
        # Three nodes per due round; the promotion while observing window k
        # resets every streak, so window k+1 (same batch) restarts from 1.
        assert [v.streak for v in batched[:9]] == [1, 1, 1, 2, 2, 1, 1, 1, 2]
        # ...and the new model scored them.
        no_swap = StreamingDetector(pipeline, detector, streaming_mode="rolling", **kw)
        baseline = [v for rnd in rounds for v in no_swap.ingest_many(rnd)]
        assert [v.anomaly_score for v in baseline[:k]] == [
            v.anomaly_score for v in batched[:k]
        ]
        assert all(
            a.anomaly_score != b.anomaly_score for a, b in zip(baseline[k:], batched[k:])
        )

    def test_row_variant_kernel_cells_within_bound(self):
        """Trend, Benford and FFT cells on six metrics: the paths agree to 1e-9."""
        rng = np.random.default_rng(67)
        names = tuple(f"m{i}" for i in range(6))
        series = [_make_series(260, names, 8, comp, rng) for comp in range(3)]
        features = ("trend_slope", "trend_rvalue", "fft_centroid", "fft_entropy",
                    "benford_correlation")
        selected = [f"{m}|{f}" for m in names for f in features]
        pipeline, detector = _fit_deployment(series, names=selected)
        assert len(_row_variant_cells(pipeline)) == len(selected)
        stream = _interleave([_random_chunks(s, np.random.default_rng(71)) for s in series])
        kw = dict(window_seconds=60, evaluate_every=12, consecutive_alerts=2)
        for micro_batch in (None, 8):
            _, batch = _run_stream(pipeline, detector, stream, "batch",
                                   micro_batch=micro_batch, **kw)
            _, rolling = _run_stream(pipeline, detector, stream, "rolling",
                                     micro_batch=micro_batch, **kw)
            _assert_parity(batch, rolling, tol=1e-9)

    @pytest.mark.parametrize("window_seconds, evaluate_every", [(60, 12), (40, 10), (90, 37)])
    def test_calibrate_matches_batch_oracle(
        self, rolling_deployment, window_seconds, evaluate_every
    ):
        """The plan calibrates to the batch oracle's threshold, bit for bit."""
        pipeline, detector, series = rolling_deployment
        kw = dict(window_seconds=window_seconds, evaluate_every=evaluate_every)
        oracle = StreamingDetector(pipeline, detector, streaming_mode="batch", **kw)
        plan = StreamingDetector(pipeline, detector, **kw)
        assert plan.calibrate(series) == oracle.calibrate(series)
        assert plan.runtime_stats()["rolling"]["fallback_calc_runs"] > 0

    def test_calibrate_matches_one_call_per_window(self, rolling_deployment):
        """Calibration scores every window in one call; the threshold is the
        bits of one pipeline call and one detector call per window."""
        pipeline, detector, series = rolling_deployment
        stream = StreamingDetector(pipeline, detector, window_seconds=60, evaluate_every=12)
        threshold = stream.calibrate(series, percentile=97.0)
        scores = []
        for s in series:
            ts = s.timestamps
            for end in range(12, s.n_timestamps + 1, 12):
                lo = int(np.searchsorted(ts[:end], ts[end - 1] - 60, side="left"))
                if end - lo < 8 or ts[end - 1] - ts[lo] < 30:
                    continue
                window = NodeSeries(
                    s.job_id, s.component_id, ts[lo:end], s.values[lo:end], s.metric_names
                )
                row = pipeline.transform_series([window])
                scores.append(float(detector.anomaly_score(row)[0]))
        assert len(scores) > 40
        assert threshold == float(np.percentile(scores, 97.0))


#: Metrics the resampling deployment's extractor pins, out of m0..m5.
PINNED = ("m0", "m2", "m3", "m5")


@pytest.fixture(scope="module")
def resampling_series():
    rng = np.random.default_rng(53)
    names = tuple(f"m{i}" for i in range(6))
    return [_make_series(300, names, 5, comp, rng) for comp in range(3)]


def _resampling_deployment(series, row_variant, resample_points=64):
    """Pinned-metric deployment; *row_variant* adds trend/Benford/FFT cells."""
    features = ("mean", "kurtosis", "quantile_q0.9", "cid_ce", "autocorrelation_lag2",
                "number_peaks_1", "energy_chunk_3")
    selected = [f"{m}|{f}" for m in ("m0", "m3", "m5") for f in features]
    if row_variant:
        selected += [
            f"{m}|{f}" for m in ("m2", "m3")
            for f in ("trend_slope", "trend_rvalue", "fft_centroid", "fft_variance",
                      "benford_correlation")
        ]
    return _fit_deployment(
        series, names=selected, resample_points=resample_points, metrics=PINNED
    )


class TestResamplingParity:
    @pytest.mark.parametrize("row_variant, tol", [(False, 0.0), (True, 1e-9)])
    def test_resampling_sweep(self, resampling_series, row_variant, tol):
        """The plan re-grids the selected columns like the batch extractor."""
        pipeline, detector = _resampling_deployment(resampling_series, row_variant)
        assert bool(_row_variant_cells(pipeline)) == row_variant
        stream = _interleave(
            [_random_chunks(s, np.random.default_rng(59)) for s in resampling_series]
        )
        kw = dict(window_seconds=60, evaluate_every=12, consecutive_alerts=2)
        for micro_batch in (None, 4):
            _, batch = _run_stream(pipeline, detector, stream, "batch",
                                   micro_batch=micro_batch, **kw)
            sd, rolling = _run_stream(pipeline, detector, stream, None,
                                      micro_batch=micro_batch, **kw)
            assert sd.streaming_mode == "rolling"
            _assert_parity(batch, rolling, tol)
            # Only the selected columns of the pinned metrics are re-gridded.
            plan = pipeline.plan(resampling_series[0].metric_names)
            assert list(plan.columns) == ([0, 2, 3, 5] if row_variant else [0, 3, 5])

    @pytest.mark.parametrize("resample_points", [None, 64])
    def test_schema_missing_pinned_metric_raises_in_both_modes(
        self, resampling_series, resample_points
    ):
        pipeline, detector = _resampling_deployment(
            resampling_series, False, resample_points=resample_points
        )
        rng = np.random.default_rng(61)
        lacking = _make_series(120, ("m0", "m1", "m3", "m5"), 6, 0, rng)  # no m2
        chunks = _random_chunks(lacking, rng)
        errors = {}
        for mode in ("batch", "rolling"):
            with pytest.raises(KeyError) as exc:
                _run_stream(pipeline, detector, chunks, mode,
                            window_seconds=60, evaluate_every=12)
            errors[mode] = str(exc.value)
        assert errors["batch"] == errors["rolling"] == repr("unknown metric 'm2'")


def _assert_transform_parity(pipeline, series):
    """The plan transform equals the full-extraction oracle; returns the mask.

    Values are bit-equal except in trend/Benford/FFT cells (1e-9), and the
    presence masks are equal.
    """
    got, got_mask = pipeline.transform_series_masked(series)
    want, want_mask = pipeline.transform_series_full(series)
    if want_mask is None:
        assert got_mask is None
    else:
        np.testing.assert_array_equal(got_mask, want_mask)
    variant = np.isin(pipeline.selected_names_, _row_variant_cells(pipeline))
    np.testing.assert_array_equal(got[:, ~variant], want[:, ~variant])
    np.testing.assert_allclose(got[:, variant], want[:, variant], rtol=0.0, atol=1e-9)
    return got_mask


class TestTransformParity:
    """Every fitted transform runs the plan; full extraction is its oracle."""

    def test_perfbench_shaped_deployment(self):
        """96 metrics, default calculators, no resampling, 64 selected cells."""
        rng = np.random.default_rng(83)
        names = tuple(f"m{i}" for i in range(96))

        def run(comp, n, anomalous):
            t = np.arange(float(n))
            vals = 100.0 + 40.0 * rng.random((n, len(names)))
            vals += 10.0 * np.sin(t / 7.0)[:, None] * rng.random(len(names))
            if anomalous:
                vals[:, :12] += np.linspace(0.0, 60.0, n)[:, None]
            return NodeSeries(9, comp, t, vals, names)

        train = [run(c, 240, c % 2 == 1) for c in range(12)]
        pipeline = DataPipeline(FeatureExtractor(resample_points=None), n_features=64)
        pipeline.fit_from_series(train, np.arange(12) % 2)
        assert len(pipeline.selected_names_) == 64
        dashboard = [run(c, 180, c == 0) for c in range(4)]
        assert _assert_transform_parity(pipeline, dashboard) is None
        assert _assert_transform_parity(pipeline, train[:8]) is None

    def test_resampling_deployment_with_pinned_metrics(self, resampling_series):
        pipeline, _ = _resampling_deployment(resampling_series, row_variant=True)
        assert _row_variant_cells(pipeline)
        rng = np.random.default_rng(89)
        names = resampling_series[0].metric_names
        shorter = [_make_series(150, names, 7, comp, rng) for comp in range(2)]
        assert _assert_transform_parity(pipeline, resampling_series + shorter) is None
        # CoMTE's candidates share their sample's time grid: one re-grid call.
        sample = resampling_series[0]
        candidates = [sample.with_values(sample.values * k) for k in (1.0, 0.5, 2.0)]
        assert _assert_transform_parity(pipeline, candidates) is None

    @pytest.mark.parametrize("resample_points", [128, None])
    def test_mixed_gpu_cluster_fleet(self, resample_points):
        from repro.scenarios import get_scenario, load_scenario_series, simulate_scenario

        sc = get_scenario("gpu-cluster")
        run = simulate_scenario(sc, jobs=4, anomalous_jobs=2, nodes=2, duration_s=90, seed=5)
        series = load_scenario_series(run.frame, sc, trim_seconds=10.0)
        labels = [run.labels[f"{s.job_id}:{s.component_id}"] for s in series]
        assert len({s.schema_digest for s in series}) == 2
        pipeline = DataPipeline(
            FeatureExtractor(resample_points=resample_points), n_features=256
        )
        pipeline.fit_from_series(series, labels)
        mask = _assert_transform_parity(pipeline, series)
        assert mask is not None and not mask.all()
        cpu = [s for s in series if s.component_id < 2000]
        cpu_mask = _assert_transform_parity(pipeline, cpu)
        assert cpu_mask is not None and (~cpu_mask).any()


class TestRollingValidation:
    def test_default_mode_resolves_from_pipeline(self, rolling_deployment):
        pipeline, detector, _ = rolling_deployment
        fitted = StreamingDetector(pipeline, detector)
        assert fitted.streaming_mode == "rolling"
        assert fitted.runtime_stats()["streaming_mode"] == "rolling"
        unfitted = DataPipeline(FeatureExtractor(resample_points=None))
        assert StreamingDetector(unfitted, detector).streaming_mode == "batch"

        class Duck:
            def transform_series(self, windows):
                return np.zeros((len(windows), 4))

        duck = StreamingDetector(Duck(), detector)
        assert duck.streaming_mode == "batch"
        assert duck.runtime_stats()["streaming_mode"] == "batch"

    def test_rolling_mode_rejects_duck_typed_pipeline(self, rolling_deployment):
        _, detector, _ = rolling_deployment

        class Duck:
            def transform_single(self, window):
                return np.zeros((1, 4))

        with pytest.raises(ValueError, match="fitted DataPipeline"):
            StreamingDetector(Duck(), detector, streaming_mode="rolling")

    def test_unknown_mode_rejected(self, rolling_deployment):
        pipeline, detector, _ = rolling_deployment
        with pytest.raises(ValueError, match="streaming_mode"):
            StreamingDetector(pipeline, detector, streaming_mode="surely-not")
