"""Tests for the store-level contract and the legacy DSOS oracle.

The :class:`Container` tests pin the oracle in ``tests/oracles/dsos.py``;
the store-level contract runs on both the oracle and the production
:class:`~repro.hist.HistStore`.
"""

import numpy as np
import pytest

from repro.hist import HistStore, Schema
from repro.telemetry import NodeSeries, TelemetryFrame

from oracles.dsos import Container, DsosStore


def frame_for(job, comp, t0, n, metrics=("a", "b")):
    ts = t0 + np.arange(n, dtype=float)
    vals = np.arange(n * len(metrics), dtype=float).reshape(n, len(metrics))
    return TelemetryFrame.from_node_series(
        [NodeSeries(job, comp, ts, vals, tuple(metrics))]
    )


class TestSchema:
    def test_requires_metrics(self):
        with pytest.raises(ValueError):
            Schema("s", ())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Schema("s", ("a", "a"))


class TestContainer:
    def test_append_and_query(self):
        c = Container(Schema("s", ("a", "b")))
        c.append(frame_for(1, 10, 0, 5))
        c.append(frame_for(2, 11, 0, 5))
        assert c.n_rows == 10
        out = c.query(job_id=1)
        assert set(out.job_id) == {1}

    def test_schema_mismatch_rejected(self):
        c = Container(Schema("s", ("a", "b")))
        with pytest.raises(ValueError, match="schema"):
            c.append(frame_for(1, 1, 0, 3, metrics=("x", "y")))

    def test_schema_mismatch_names_sampler_and_column(self):
        c = Container(Schema("meminfo", ("a", "b")))
        with pytest.raises(ValueError) as err:
            c.append(frame_for(1, 1, 0, 3, metrics=("a", "y")))
        msg = str(err.value)
        assert "sampler 'meminfo'" in msg
        assert "first mismatch at column 1: frame 'y' vs schema 'b'" in msg

    def test_schema_mismatch_reports_width_difference(self):
        c = Container(Schema("vmstat", ("a", "b", "c")))
        with pytest.raises(ValueError, match="frame has 2 columns, schema has 3"):
            c.append(frame_for(1, 1, 0, 3, metrics=("a", "b")))

    def test_empty_query_returns_empty_frame(self):
        c = Container(Schema("s", ("a",)))
        out = c.query()
        assert out.n_rows == 0
        assert out.metric_names == ("a",)
        assert c.query(job_id=1, t0=0.0, t1=5.0).n_rows == 0

    def test_jobs_cached_and_invalidated(self):
        c = Container(Schema("s", ("a", "b")))
        assert c.jobs().size == 0
        c.append(frame_for(2, 10, 0, 3))
        np.testing.assert_array_equal(c.jobs(), [2])
        assert c.jobs() is c.jobs()  # cached between ingests
        c.append(frame_for(1, 10, 0, 3))
        np.testing.assert_array_equal(c.jobs(), [1, 2])

    def test_jobs_cache_shared_with_consolidation(self):
        c = Container(Schema("s", ("a", "b")))
        c.append(frame_for(3, 10, 0, 3))
        c.append(frame_for(1, 11, 0, 3))
        c.query()  # consolidation caches jobs as a byproduct
        cached = c.jobs()
        np.testing.assert_array_equal(cached, [1, 3])
        assert c.jobs() is cached

    def test_rejects_nonfinite_timestamps(self):
        c = Container(Schema("meminfo", ("a", "b")))
        f = frame_for(1, 10, 0, 5)
        f.timestamp[3] = np.nan
        with pytest.raises(ValueError) as err:
            c.append(f)
        msg = str(err.value)
        assert "sampler 'meminfo'" in msg and "row 3" in msg

    def test_rejects_negative_timestamps(self):
        c = Container(Schema("s", ("a", "b")))
        f = frame_for(1, 10, 0, 5)
        f.timestamp[0] = -1.0
        with pytest.raises(ValueError, match="row 0"):
            c.append(f)
        assert c.n_rows == 0  # rejected frame was not ingested

    def test_query_unknown_job_returns_empty(self):
        c = Container(Schema("s", ("a", "b")))
        c.append(frame_for(1, 10, 0, 5))
        out = c.query(job_id=99)
        assert out.n_rows == 0

    def test_time_range_query(self):
        c = Container(Schema("s", ("a", "b")))
        c.append(frame_for(1, 10, 0, 10))
        out = c.query(job_id=1, t0=3.0, t1=6.0)
        assert out.n_rows == 4
        assert out.timestamp.min() == 3.0 and out.timestamp.max() == 6.0

    def test_component_filter(self):
        c = Container(Schema("s", ("a", "b")))
        c.append(frame_for(1, 10, 0, 5))
        c.append(frame_for(1, 11, 0, 5))
        out = c.query(job_id=1, component_id=11)
        assert set(out.component_id) == {11}

    def test_ingest_after_query_invalidates_cache(self):
        c = Container(Schema("s", ("a", "b")))
        c.append(frame_for(1, 10, 0, 5))
        assert c.query(job_id=1).n_rows == 5
        c.append(frame_for(1, 10, 5, 5))
        assert c.query(job_id=1).n_rows == 10

    def test_empty_append_noop(self):
        c = Container(Schema("s", ("a", "b")))
        empty = TelemetryFrame(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0), np.empty((0, 2)), ("a", "b")
        )
        assert c.append(empty) == 0


class TestDsosStore:
    @pytest.fixture
    def store(self):
        return DsosStore()

    def test_ingest_creates_container(self, store):
        store.ingest("meminfo", frame_for(1, 10, 0, 5))
        assert store.samplers == ("meminfo",)
        assert store.n_rows == 5

    def test_duplicate_container_rejected(self, store):
        store.create_container(Schema("s", ("a",)))
        with pytest.raises(ValueError, match="exists"):
            store.create_container(Schema("s", ("a",)))

    def test_unknown_container(self, store):
        with pytest.raises(KeyError, match="available"):
            store.query("nvml")

    def test_jobs_across_containers(self, store):
        store.ingest("m1", frame_for(1, 10, 0, 3))
        store.ingest("m2", frame_for(2, 10, 0, 3))
        np.testing.assert_array_equal(store.jobs(), [1, 2])

    def test_components_union(self, store):
        store.ingest("m1", frame_for(1, 10, 0, 3))
        store.ingest("m2", frame_for(1, 11, 0, 3))
        np.testing.assert_array_equal(store.components(1), [10, 11])

    def test_empty_store(self, store):
        assert store.jobs().size == 0
        assert store.components(1).size == 0
        assert store.n_rows == 0


class TestHistStoreContract(TestDsosStore):
    """The same store-level contract on the production store."""

    @pytest.fixture
    def store(self, tmp_path):
        return HistStore(tmp_path / "store")
