"""Tests for the columnar historical store (repro.hist).

The load-bearing property is the acceptance oracle: every query against a
:class:`HistStore` must be **bit-identical** to the legacy
:class:`~oracles.dsos.DsosStore` fed the same ingest stream — same rows,
same order, same float bits.  The parity helpers here assert exactly that.
"""

import numpy as np
import pytest

from repro.hist import (
    CUMULATIVE,
    DELTA,
    GAUGE,
    HistStore,
    RetentionPolicy,
    Segment,
    dashboard_rollup,
    resolve_meters,
    write_segment,
)
from repro.hist.retention import COUNT_COLUMN
from repro.hist.segment import decode_column, encode_column
from repro.hist.store import HistContainer
from repro.telemetry import NodeSeries, TelemetryFrame
from repro.telemetry.schema import COUNTER, MetricField, MetricSchema

from oracles.dsos import DsosStore


def frame_for(job, comp, t0, n, metrics=("a", "b"), rng=None):
    ts = t0 + np.arange(n, dtype=float)
    if rng is None:
        vals = np.arange(n * len(metrics), dtype=float).reshape(n, len(metrics))
    else:
        vals = rng.normal(size=(n, len(metrics)))
    return TelemetryFrame.from_node_series(
        [NodeSeries(job, comp, ts, vals, tuple(metrics))]
    )


def assert_frames_identical(a: TelemetryFrame, b: TelemetryFrame):
    assert a.metric_names == b.metric_names
    np.testing.assert_array_equal(a.job_id, b.job_id)
    np.testing.assert_array_equal(a.component_id, b.component_id)
    assert np.array_equal(a.timestamp, b.timestamp)
    assert np.array_equal(a.values, b.values, equal_nan=True)


FILTERS = [
    {},
    {"job_id": 2},
    {"job_id": 2, "component_id": 11},
    {"t0": 3.0, "t1": 40.0},
    {"job_id": 1, "t0": 5.0, "t1": 5.0},  # t0 == t1: single instant
    {"t0": 40.0, "t1": 3.0},  # inverted window: empty
    {"job_id": 99},  # unknown job
]


def assert_store_parity(hist: HistStore, legacy: DsosStore):
    assert set(hist.samplers) == set(legacy.samplers)
    np.testing.assert_array_equal(hist.jobs(), legacy.jobs())
    for sampler in legacy.samplers:
        for filters in FILTERS:
            assert_frames_identical(
                hist.query(sampler, **filters), legacy.query(sampler, **filters)
            )
    for job in legacy.jobs():
        np.testing.assert_array_equal(hist.components(int(job)), legacy.components(int(job)))


def ingest_both(hist, legacy, sampler, frame):
    assert hist.ingest(sampler, frame) == legacy.ingest(sampler, frame)


@pytest.fixture
def manifest_writes(monkeypatch):
    """Sampler names of every manifest write, in order."""
    writes = []
    write = HistContainer._write_manifest

    def counted(container):
        writes.append(container.schema.name)
        write(container)

    monkeypatch.setattr(HistContainer, "_write_manifest", counted)
    return writes


class TestCodecs:
    def roundtrip(self, values):
        desc, blob = encode_column(np.asarray(values, dtype=np.float64))
        out = decode_column(desc, blob, len(values))
        assert np.array_equal(out, np.asarray(values, dtype=np.float64), equal_nan=True)
        return desc["codec"]

    def test_regular_timestamps_use_delta_of_delta(self):
        # Step 300 needs int16 deltas but int8 delta-of-deltas: i-dod wins.
        assert self.roundtrip(np.arange(1000.0) * 300.0 + 5.0) == "i-dod"

    def test_small_step_grid_uses_delta(self):
        assert self.roundtrip(np.arange(1000.0) * 10.0 + 5.0) == "i-delta"

    def test_monotone_counter_uses_delta(self):
        rng = np.random.default_rng(0)
        counter = np.cumsum(rng.integers(0, 50, size=500)).astype(float)
        assert self.roundtrip(counter) in ("i-delta", "i-dod")

    def test_noisy_floats_fall_back_to_raw(self):
        rng = np.random.default_rng(1)
        assert self.roundtrip(rng.normal(size=300)) == "raw"

    def test_nan_values_fall_back_to_raw(self):
        vals = np.arange(50.0)
        vals[7] = np.nan
        assert self.roundtrip(vals) == "raw"

    def test_huge_integers_fall_back_to_raw(self):
        # Beyond 2**53 float64 can't represent every integer: must stay raw.
        assert self.roundtrip(np.array([2.0**60, 2.0**60 + 4096, 2.0**60 + 8192])) == "raw"

    def test_tiny_columns_stay_raw(self):
        assert self.roundtrip(np.array([1.0, 2.0])) == "raw"


class TestSegment:
    def write_one(self, tmp_path, n=50, jobs=(1, 2)):
        rng = np.random.default_rng(7)
        job = np.repeat(jobs, n // len(jobs)).astype(np.int64)
        return write_segment(
            tmp_path / "s.seg",
            sampler="samp",
            tier="raw",
            job_id=job,
            component_id=np.arange(n, dtype=np.int64) % 3 + 10,
            timestamp=np.arange(n, dtype=float),
            seq=np.arange(n, dtype=np.int64),
            values=rng.normal(size=(n, 2)),
            metric_names=("m0", "m1"),
            meters={"m0": GAUGE, "m1": GAUGE},
        )

    def test_roundtrip_and_zone_map(self, tmp_path):
        seg = self.write_one(tmp_path)
        assert seg.n_rows == 50
        assert seg.t_min == 0.0 and seg.t_max == 49.0
        np.testing.assert_array_equal(seg.jobs, [1, 2])
        np.testing.assert_array_equal(seg.components, [10, 11, 12])
        reread = Segment(seg.path)
        np.testing.assert_array_equal(reread.column("m0"), seg.column("m0"))
        np.testing.assert_array_equal(reread.column("job_id"), seg.column("job_id"))

    def test_zone_map_pruning(self, tmp_path):
        seg = self.write_one(tmp_path)
        assert seg.may_contain(job_id=1)
        assert not seg.may_contain(job_id=3)
        assert not seg.may_contain(component_id=99)
        assert not seg.may_contain(t0=100.0)
        assert not seg.may_contain(t1=-1.0)
        assert not seg.may_contain(t0=40.0, t1=3.0)  # inverted window

    def test_scan_filters(self, tmp_path):
        seg = self.write_one(tmp_path)
        part = seg.scan(job_id=1, t0=2.0, t1=10.0)
        assert set(part["job_id"]) == {1}
        assert part["timestamp"].min() >= 2.0 and part["timestamp"].max() <= 10.0

    def test_atomic_write_leaves_no_partials(self, tmp_path):
        self.write_one(tmp_path)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix != ".seg"]
        assert leftovers == []

    def test_dictionary_codec_for_ids(self, tmp_path):
        seg = self.write_one(tmp_path)
        assert seg.codec_of("job_id") == "dict"
        assert seg.codec_of("component_id") == "dict"


class TestMeters:
    def test_schema_counters_become_cumulative(self):
        schema = MetricSchema(
            "node",
            [
                MetricField("pgfault", "vmstat", kind=COUNTER),
                MetricField("MemFree", "meminfo"),
            ],
        )
        meters = resolve_meters(
            ("pgfault::vmstat", "MemFree::meminfo"), schema=schema
        )
        assert meters["pgfault::vmstat"] == CUMULATIVE
        assert meters["MemFree::meminfo"] == GAUGE

    def test_overrides_win(self):
        meters = resolve_meters(("x",), overrides={"x": DELTA})
        assert meters["x"] == DELTA

    def test_unknown_columns_default_to_gauge(self):
        assert resolve_meters(("mystery",)) == {"mystery": GAUGE}


class TestParity:
    """HistStore query results must be bit-identical to DsosStore."""

    def build_pair(self, tmp_path, segment_span=16.0, flush_rows=10**9):
        hist = HistStore(tmp_path / "hist", segment_span=segment_span, flush_rows=flush_rows)
        legacy = DsosStore()
        rng = np.random.default_rng(42)
        # Out-of-order jobs, duplicate (job, comp) blocks, several windows.
        for job, comp, t0 in [(2, 11, 0), (1, 10, 0), (2, 12, 30), (1, 10, 50), (3, 11, 5)]:
            f = frame_for(job, comp, float(t0), 20, rng=rng)
            ingest_both(hist, legacy, "samp", f)
        return hist, legacy

    def test_parity_memtable_only(self, tmp_path):
        hist, legacy = self.build_pair(tmp_path)
        assert_store_parity(hist, legacy)

    def test_parity_fully_flushed(self, tmp_path):
        hist, legacy = self.build_pair(tmp_path)
        hist.flush()
        assert_store_parity(hist, legacy)

    def test_parity_mixed_memtable_and_segments(self, tmp_path):
        hist, legacy = self.build_pair(tmp_path)
        hist.flush()
        f = frame_for(2, 11, 70.0, 15, rng=np.random.default_rng(3))
        ingest_both(hist, legacy, "samp", f)
        assert_store_parity(hist, legacy)

    def test_parity_after_reopen(self, tmp_path):
        hist, legacy = self.build_pair(tmp_path)
        hist.flush()
        reopened = HistStore(tmp_path / "hist", segment_span=16.0)
        assert_store_parity(reopened, legacy)
        # Ingest continues with correct seq after reopen.
        f = frame_for(1, 10, 100.0, 10, rng=np.random.default_rng(9))
        ingest_both(reopened, legacy, "samp", f)
        assert_store_parity(reopened, legacy)

    def test_parity_with_autoflush(self, tmp_path):
        hist = HistStore(tmp_path / "hist", segment_span=16.0, flush_rows=8)
        legacy = DsosStore()
        rng = np.random.default_rng(5)
        for job in (3, 1, 2):
            ingest_both(hist, legacy, "samp", frame_for(job, 10, 0.0, 20, rng=rng))
        assert hist.container("samp").segments["raw"]  # autoflush fired
        assert_store_parity(hist, legacy)

    def test_parity_many_small_appends(self, tmp_path):
        """Hundreds of few-row appends over several jobs, queried between
        appends: the memtable block grows past its first capacity, an
        autoflush seals it part-way, and appends continue after it."""
        hist = HistStore(tmp_path / "hist", segment_span=16.0, flush_rows=500)
        legacy = DsosStore()
        rng = np.random.default_rng(23)
        clock: dict[tuple[int, int], float] = {}
        capacities = []
        flushed_at = None
        for i in range(320):
            job, comp = int(rng.integers(1, 5)), int(rng.integers(10, 13))
            n = int(rng.integers(1, 5))
            t0 = clock.get((job, comp), 0.0)
            clock[(job, comp)] = t0 + n
            ingest_both(hist, legacy, "samp", frame_for(job, comp, t0, n, rng=rng))
            container = hist.container("samp")
            capacities.append(container._block["timestamp"].shape[0])
            if flushed_at is None and container.segments["raw"]:
                flushed_at = i
            filters = FILTERS[i % len(FILTERS)]
            assert_frames_identical(
                hist.query("samp", **filters), legacy.query("samp", **filters)
            )
        assert len(set(capacities[: flushed_at or 0])) > 2  # grew, geometrically
        assert flushed_at is not None and flushed_at < 300  # appends after it
        assert len(container.segments["raw"]) > 1  # the flush spanned windows
        assert container.stats()["memtable_rows"] > 0
        assert_store_parity(hist, legacy)

    def test_parity_heterogeneous_schemas(self, tmp_path):
        """hpc-node + gpu-cluster samplers with typed counters, one store."""
        node = MetricSchema(
            "hpc-node",
            [
                MetricField("pgfault", "vmstat", kind=COUNTER),
                MetricField("MemFree", "meminfo"),
            ],
        )
        gpu = MetricSchema(
            "gpu-node",
            [
                MetricField("gpu_util", "gpu"),
                MetricField("ecc_errors", "gpu", kind=COUNTER),
            ],
        )
        hist = HistStore(tmp_path / "hist", segment_span=16.0)
        legacy = DsosStore()
        for store in (hist, legacy):
            store.register_schema(node)
            store.register_schema(gpu)
        rng = np.random.default_rng(11)
        vm = ("pgfault::vmstat", "MemFree::meminfo")
        gm = ("gpu_util::gpu", "ecc_errors::gpu")
        for job, comp in [(1, 10), (2, 20), (1, 11)]:
            ingest_both(hist, legacy, "vmstat", frame_for(job, comp, 0.0, 25, vm, rng))
            ingest_both(hist, legacy, "gpu", frame_for(job, comp, 0.0, 25, gm, rng))
        hist.flush()
        assert_store_parity(hist, legacy)
        # Counter columns picked up the cumulative meter kind from the schemas.
        assert hist.container("vmstat").meters["pgfault::vmstat"] == CUMULATIVE
        assert hist.container("gpu").meters["ecc_errors::gpu"] == CUMULATIVE
        assert hist.container("gpu").meters["gpu_util::gpu"] == GAUGE

    def test_parity_with_nan_values(self, tmp_path):
        hist = HistStore(tmp_path / "hist", segment_span=16.0)
        legacy = DsosStore()
        f = frame_for(1, 10, 0.0, 12)
        f.values[3, 1] = np.nan
        ingest_both(hist, legacy, "samp", f)
        hist.flush()
        assert_store_parity(hist, legacy)


class TestManifest:
    """manifest.json is written when a container's identity is first
    sealed or changes, and when retention drops raw rows — not per flush."""

    def test_flushes_write_it_once_and_reopen_continues(self, tmp_path, manifest_writes):
        hist = HistStore(tmp_path / "hist", segment_span=16.0)
        legacy = DsosStore()
        rng = np.random.default_rng(4)
        for i in range(3):
            ingest_both(hist, legacy, "samp", frame_for(1 + i % 2, 10, 20.0 * i, 20, rng=rng))
            hist.flush()
        assert len(hist.container("samp").segments["raw"]) > 3
        assert manifest_writes == ["samp"]
        reopened = HistStore(tmp_path / "hist", segment_span=16.0)
        assert reopened.container("samp")._next_seq == 60  # the sealed rows
        assert_store_parity(reopened, legacy)
        ingest_both(reopened, legacy, "samp", frame_for(2, 11, 100.0, 10, rng=rng))
        assert_store_parity(reopened, legacy)
        assert manifest_writes == ["samp"]

    def test_set_meters_after_last_flush_survives_reopen(self, tmp_path, manifest_writes):
        hist = HistStore(tmp_path / "hist", segment_span=16.0)
        hist.ingest("samp", frame_for(1, 10, 0.0, 20))
        hist.set_meters("samp", {"b": DELTA})  # unsealed: the flush persists it
        assert manifest_writes == []
        hist.flush()
        hist.set_meters("samp", {"a": CUMULATIVE})
        assert manifest_writes == ["samp", "samp"]
        reopened = HistStore(tmp_path / "hist", segment_span=16.0)
        assert reopened.container("samp").meters == {"a": CUMULATIVE, "b": DELTA}


class TestMemtable:
    def test_stats_follow_appends_and_flush(self, tmp_path):
        hist = HistStore(tmp_path / "hist", segment_span=16.0)
        total = 0
        for n in (5, 7, 11):
            hist.ingest("samp", frame_for(1, 10, float(total), n))
            total += n
            stats = hist.container("samp").stats()
            assert stats["memtable_rows"] == total
            assert stats["rows"] == total
        hist.flush()
        stats = hist.container("samp").stats()
        assert stats["memtable_rows"] == 0
        assert stats["rows"] == total
        assert hist.container("samp")._block["values"].shape[0] == 0  # released
        # Sizes and codec counts are taken once per segment; they match the
        # files and headers on disk.
        segs = hist.container("samp").segments["raw"]
        assert stats["tiers"]["raw"]["bytes"] == sum(s.path.stat().st_size for s in segs)
        codecs: dict[str, int] = {}
        for seg in segs:
            for col in seg._header["columns"]:
                codecs[col["codec"]] = codecs.get(col["codec"], 0) + 1
        assert stats["tiers"]["raw"]["codecs"] == codecs


class TestWindowBoundaries:
    def build(self, tmp_path):
        hist = HistStore(tmp_path / "hist", segment_span=10.0)
        hist.ingest("samp", frame_for(1, 10, 0.0, 30))  # spans 3 segment windows
        hist.flush()
        return hist

    def test_segment_partitioning(self, tmp_path):
        hist = self.build(tmp_path)
        segs = hist.container("samp").segments["raw"]
        assert len(segs) == 3
        for seg in segs:
            assert np.floor(seg.t_min / 10.0) == np.floor(seg.t_max / 10.0)

    def test_point_window(self, tmp_path):
        hist = self.build(tmp_path)
        out = hist.query("samp", t0=5.0, t1=5.0)
        assert out.n_rows == 1 and out.timestamp[0] == 5.0

    def test_point_window_on_segment_boundary(self, tmp_path):
        hist = self.build(tmp_path)
        out = hist.query("samp", t0=10.0, t1=10.0)
        assert out.n_rows == 1 and out.timestamp[0] == 10.0

    def test_inverted_window_is_empty(self, tmp_path):
        hist = self.build(tmp_path)
        out = hist.query("samp", t0=20.0, t1=5.0)
        assert out.n_rows == 0
        assert out.metric_names == ("a", "b")

    def test_window_straddling_segments(self, tmp_path):
        hist = self.build(tmp_path)
        out = hist.query("samp", t0=8.0, t1=22.0)
        np.testing.assert_array_equal(out.timestamp, np.arange(8.0, 23.0))

    def test_bounds_inclusive_both_ends(self, tmp_path):
        hist = self.build(tmp_path)
        out = hist.query("samp", t0=9.0, t1=10.0)
        np.testing.assert_array_equal(out.timestamp, [9.0, 10.0])


class TestIngestValidation:
    def test_rejects_nan_timestamp(self, tmp_path):
        hist = HistStore(tmp_path / "hist")
        f = frame_for(1, 10, 0.0, 5)
        f.timestamp[2] = np.inf
        with pytest.raises(ValueError, match=r"sampler 'samp'.*row 2"):
            hist.ingest("samp", f)

    def test_schema_mismatch_matches_legacy_wording(self, tmp_path):
        hist = HistStore(tmp_path / "hist")
        hist.ingest("samp", frame_for(1, 10, 0.0, 5))
        with pytest.raises(ValueError, match="frame 'x' vs schema 'a'"):
            hist.ingest("samp", frame_for(1, 10, 5.0, 5, metrics=("x", "b")))

    def test_bad_construction_args(self, tmp_path):
        with pytest.raises(ValueError, match="segment_span"):
            HistStore(tmp_path / "h", segment_span=0)
        with pytest.raises(ValueError, match="flush_rows"):
            HistStore(tmp_path / "h", flush_rows=0)


class TestRetentionTiers:
    def build(self, tmp_path, flushes=1):
        """10 minutes of 1 Hz data, sealed in *flushes* equal flushes."""
        hist = HistStore(
            tmp_path / "hist",
            segment_span=600.0,
            meters={"samp": {"ctr": CUMULATIVE, "inc": DELTA, "g": GAUGE}},
        )
        n = 600
        ts = np.arange(n, dtype=float)
        vals = np.column_stack([
            np.cumsum(np.ones(n)),            # ctr: cumulative
            np.ones(n),                       # inc: delta
            np.sin(ts / 30.0),                # g: gauge
        ])
        for part in np.array_split(np.arange(n), flushes):
            hist.ingest("samp", TelemetryFrame.from_node_series(
                [NodeSeries(1, 10, ts[part], vals[part], ("ctr", "inc", "g"))]
            ))
            hist.flush()
        hist.compact()
        return hist

    def test_typed_downsampling(self, tmp_path):
        hist = self.build(tmp_path)
        one = hist.query("samp", tier="1min")
        assert one.n_rows == 10
        # cumulative -> last observation in each bucket
        np.testing.assert_allclose(one.column("ctr"), np.arange(60.0, 601.0, 60.0))
        # delta -> sum of increments
        np.testing.assert_allclose(one.column("inc"), np.full(10, 60.0))
        # gauge -> mean plus min/max envelope
        g = one.column("g")
        assert (one.column("g::min") <= g).all() and (g <= one.column("g::max")).all()
        np.testing.assert_allclose(one.column(COUNT_COLUMN), np.full(10, 60.0))

    def test_second_tier_from_first(self, tmp_path):
        hist = self.build(tmp_path)
        ten = hist.query("samp", tier="10min")
        assert ten.n_rows == 1
        assert ten.column("ctr")[0] == 600.0
        assert ten.column("inc")[0] == 600.0
        assert ten.column(COUNT_COLUMN)[0] == 600.0
        # count-weighted gauge mean equals the raw mean exactly here
        raw_mean = hist.query("samp").column("g").mean()
        np.testing.assert_allclose(ten.column("g")[0], raw_mean)

    def test_compaction_idempotent(self, tmp_path):
        hist = self.build(tmp_path)
        first = hist.query("samp", tier="1min")
        hist.compact()
        assert_frames_identical(first, hist.query("samp", tier="1min"))

    def test_retention_opt_in_only(self, tmp_path):
        hist = self.build(tmp_path)
        assert hist.apply_retention(RetentionPolicy(), now=10_000.0) == {}
        assert hist.query("samp").n_rows == 600

    def test_retention_drops_covered_raw(self, tmp_path):
        hist = self.build(tmp_path)
        dropped = hist.apply_retention(
            RetentionPolicy({"raw": 100.0}), now=10_000.0
        )
        assert dropped["samp"]["raw"] == 600
        assert hist.query("samp").n_rows == 0  # raw gone...
        assert hist.query("samp", tier="1min").n_rows == 10  # ...tiers remain

    def test_retention_dropping_raw_writes_manifest(self, tmp_path, manifest_writes):
        hist = self.build(tmp_path, flushes=2)
        assert manifest_writes == ["samp"]  # the first flush only
        assert hist.apply_retention(RetentionPolicy({"raw": 100.0}), now=0.0) == {}
        assert manifest_writes == ["samp"]  # nothing dropped, nothing written
        hist.apply_retention(RetentionPolicy({"raw": 100.0}), now=10_000.0)
        assert manifest_writes == ["samp", "samp"]

    def test_retention_keeps_uncovered_raw(self, tmp_path):
        hist = HistStore(tmp_path / "h2", segment_span=600.0)
        hist.ingest("samp", frame_for(1, 10, 0.0, 60))
        hist.flush()  # no compaction: raw is the only copy
        assert hist.apply_retention(RetentionPolicy({"raw": 1.0}), now=10_000.0) == {}
        assert hist.query("samp").n_rows == 60

    def ingest_more(self, hist, t0, n, value=1.0):
        ts = t0 + np.arange(n, dtype=float)
        vals = np.column_stack([
            value * np.cumsum(np.ones(n)),
            value * np.ones(n),
            value * np.ones(n),
        ])
        hist.ingest("samp", TelemetryFrame.from_node_series(
            [NodeSeries(1, 10, ts, vals, ("ctr", "inc", "g"))]
        ))

    def test_compact_after_retention_preserves_tiers(self, tmp_path):
        """Retained-away history must survive later compactions (no rebuild
        from raw alone: tier segments whose raw is gone are preserved)."""
        hist = self.build(tmp_path)
        hist.apply_retention(RetentionPolicy({"raw": 100.0}), now=10_000.0)
        self.ingest_more(hist, t0=1200.0, n=60)
        hist.compact()
        one = hist.query("samp", tier="1min")
        # 10 old buckets (raw long gone) + 1 new bucket, in seq order.
        np.testing.assert_array_equal(
            one.timestamp, np.append(np.arange(0.0, 600.0, 60.0), 1200.0)
        )
        np.testing.assert_allclose(one.column("inc"), np.full(11, 60.0))
        assert hist.query("samp", tier="10min").n_rows == 2
        # Compacting again changes nothing: preserved + rebuilt is stable.
        hist.compact()
        assert_frames_identical(one, hist.query("samp", tier="1min"))

    def test_retention_keeps_uncompacted_backfill(self, tmp_path):
        """Raw inside an already-downsampled window but ingested after the
        last compact() is not covered until it is actually aggregated."""
        hist = self.build(tmp_path)  # 1min tier covers [0, 600)
        self.ingest_more(hist, t0=100.0, n=30, value=2.0)  # backfill
        hist.flush()
        dropped = hist.apply_retention(RetentionPolicy({"raw": 100.0}), now=10_000.0)
        assert dropped["samp"]["raw"] == 600  # originals: aggregated, dropped
        assert hist.query("samp").n_rows == 30  # backfill: only copy, kept
        hist.compact()
        dropped = hist.apply_retention(RetentionPolicy({"raw": 100.0}), now=10_000.0)
        assert dropped["samp"]["raw"] == 30  # now aggregated, now droppable

    def test_reopen_after_raw_retained_away(self, tmp_path):
        hist = self.build(tmp_path)
        hist.apply_retention(RetentionPolicy({"raw": 100.0}), now=10_000.0)
        reopened = HistStore(tmp_path / "hist", segment_span=600.0)
        assert reopened.samplers == ("samp",)
        assert reopened.query("samp").n_rows == 0
        assert reopened.query("samp", tier="1min").n_rows == 10
        # Schema and meters survived; ingest continues under the container.
        assert reopened.container("samp").schema.metric_names == ("ctr", "inc", "g")
        assert reopened.container("samp").meters["ctr"] == CUMULATIVE
        self.ingest_more(reopened, t0=1200.0, n=60)
        assert reopened.query("samp").n_rows == 60

    def test_reopen_without_manifest_recovers_from_tier(self, tmp_path):
        hist = self.build(tmp_path)
        hist.apply_retention(RetentionPolicy({"raw": 100.0}), now=10_000.0)
        (tmp_path / "hist" / "samp" / "manifest.json").unlink()
        reopened = HistStore(tmp_path / "hist", segment_span=600.0)
        assert reopened.container("samp").schema.metric_names == ("ctr", "inc", "g")
        assert reopened.container("samp").meters == {
            "ctr": CUMULATIVE, "inc": DELTA, "g": GAUGE,
        }
        assert reopened.query("samp", tier="1min").n_rows == 10

    def test_seq_survives_retention_and_reopen(self, tmp_path):
        for flushes in (1, 2):
            root = tmp_path / f"flushes{flushes}"
            hist = self.build(root, flushes=flushes)
            assert len(hist.container("samp").segments["raw"]) == flushes
            assert hist.container("samp")._next_seq == 600
            hist.apply_retention(RetentionPolicy({"raw": 100.0}), now=10_000.0)
            assert hist.container("samp").segments["raw"] == []
            # Only the manifest remembers the sealed high-water mark now, so
            # retention must have rewritten it after the last flush.
            reopened = HistStore(root / "hist", segment_span=600.0)
            assert reopened.container("samp").segments["raw"] == []
            assert reopened.container("samp")._next_seq == 600

    def test_bad_policy_tier(self):
        with pytest.raises(ValueError, match="unknown retention tiers"):
            RetentionPolicy({"hourly": 1.0})

    def test_unknown_query_tier(self, tmp_path):
        hist = self.build(tmp_path)
        with pytest.raises(ValueError, match="unknown tier"):
            hist.query("samp", tier="5min")


class TestFeeds:
    def test_dashboard_rollup_falls_back_to_raw(self, tmp_path):
        from repro.workloads import default_catalog

        names = default_catalog().metric_names
        hist = HistStore(tmp_path / "hist", segment_span=300.0)
        rng = np.random.default_rng(21)
        for job, comp in [(1, 10), (1, 11), (2, 10)]:
            hist.ingest("node", frame_for(job, comp, 0.0, 120, names, rng))
        hist.flush()
        rollup = dashboard_rollup(hist, tier="1min")  # not compacted yet
        assert rollup["samplers"]["node"]["tier"] == "raw"
        hist.compact()
        rollup = dashboard_rollup(hist, tier="1min")
        entry = rollup["samplers"]["node"]
        assert entry["tier"] == "1min"
        for stats in entry["metrics"].values():
            assert stats["min"] <= stats["mean"] <= stats["max"]


class TestServing:
    def test_history_dashboard(self, tmp_path):
        from repro.serving.dashboard import history_sections, render_table

        hist = HistStore(tmp_path / "hist", segment_span=60.0)
        hist.ingest("samp", frame_for(1, 10, 0.0, 30))
        hist.flush()
        hist.compact()

        class _Detector:  # minimal stand-in; history needs no detector
            lifecycle = None

        from repro.serving.service import AnalyticsService

        svc = AnalyticsService(_Detector(), history=hist)
        payload = svc.handle_request(0, "history", tier="1min")
        assert payload["store"]["n_rows"] == 30
        assert "samp" in payload["rollup"]["samplers"]
        sections = history_sections(payload)
        assert len(sections) == 2
        for title, headers, rows in sections:
            render_table(headers, rows)  # must render without raising

    def test_history_dashboard_unconfigured(self):
        from repro.serving.service import AnalyticsService

        class _Detector:
            lifecycle = None

        svc = AnalyticsService(_Detector())
        assert "error" in svc.handle_request(0, "history")
