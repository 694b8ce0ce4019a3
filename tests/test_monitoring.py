"""Tests for the LDMS-equivalent monitoring layer."""

import numpy as np
import pytest

from repro.hist import HistStore
from repro.monitoring import Aggregator, FaultModel, SamplerDaemon
from repro.telemetry import NodeSeries
from repro.workloads import ECLIPSE_APPS, JobRunner, JobSpec, VOLTA


@pytest.fixture()
def node_telemetry(catalog):
    runner = JobRunner(VOLTA, catalog=catalog, seed=3)
    result = runner.run(JobSpec(job_id=9, app=ECLIPSE_APPS["lammps"], n_nodes=1, duration_s=50))
    return result.frame.node_series(9, result.component_ids[0])


class TestFaultModel:
    def test_none_preset_is_identity(self, node_telemetry):
        out = FaultModel.NONE.apply(node_telemetry, seed=0)
        np.testing.assert_array_equal(out.values, node_telemetry.values)
        np.testing.assert_array_equal(out.timestamps, node_telemetry.timestamps)

    def test_value_drops_produce_nans(self, node_telemetry):
        fm = FaultModel(row_drop_prob=0.0, value_drop_prob=0.2, jitter_std=0.0)
        out = fm.apply(node_telemetry, seed=1)
        frac = np.mean(np.isnan(out.values))
        assert 0.1 < frac < 0.3

    def test_row_drops_shrink_series(self, node_telemetry):
        fm = FaultModel(row_drop_prob=0.3, value_drop_prob=0.0, jitter_std=0.0)
        out = fm.apply(node_telemetry, seed=1)
        assert out.n_timestamps < node_telemetry.n_timestamps
        # Endpoints always survive.
        assert out.timestamps[0] == node_telemetry.timestamps[0]
        assert out.timestamps[-1] == node_telemetry.timestamps[-1]

    def test_jitter_keeps_monotonicity(self, node_telemetry):
        fm = FaultModel(row_drop_prob=0.0, value_drop_prob=0.0, jitter_std=0.2)
        out = fm.apply(node_telemetry, seed=1)
        assert np.all(np.diff(out.timestamps) > 0)
        # Jitter stays near the nominal grid.
        assert np.max(np.abs(out.timestamps - node_telemetry.timestamps)) < 0.5

    def test_jitter_never_goes_negative(self):
        # A sample at t=0 must not jitter before the epoch: downstream
        # stores reject negative ingest timestamps.
        series = NodeSeries(
            job_id=1, component_id=1,
            timestamps=np.arange(20, dtype=np.float64),
            values=np.zeros((20, 1)), metric_names=("m",),
        )
        fm = FaultModel(row_drop_prob=0.0, value_drop_prob=0.0, jitter_std=0.4)
        for seed in range(50):
            out = fm.apply(series, seed=seed)
            assert np.all(out.timestamps >= 0.0)
            assert np.all(np.diff(out.timestamps) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultModel(row_drop_prob=1.0)
        with pytest.raises(ValueError):
            FaultModel(jitter_std=-1.0)

    def test_deterministic(self, node_telemetry):
        fm = FaultModel(row_drop_prob=0.1, value_drop_prob=0.05)
        a = fm.apply(node_telemetry, seed=7)
        b = fm.apply(node_telemetry, seed=7)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)
        np.testing.assert_array_equal(a.values, b.values)


class TestSamplerDaemon:
    def test_splits_by_sampler(self, catalog, node_telemetry):
        daemon = SamplerDaemon(catalog)
        sets = daemon.sample(node_telemetry)
        assert {s.sampler for s in sets} == set(catalog.samplers())
        total_metrics = sum(s.series.n_metrics for s in sets)
        assert total_metrics == len(catalog)

    def test_subset_of_samplers(self, catalog, node_telemetry):
        daemon = SamplerDaemon(catalog, samplers=("meminfo",))
        sets = daemon.sample(node_telemetry)
        assert len(sets) == 1 and sets[0].sampler == "meminfo"
        assert all(n.endswith("::meminfo") for n in sets[0].series.metric_names)

    def test_unknown_sampler_rejected(self, catalog):
        with pytest.raises(KeyError):
            SamplerDaemon(catalog, samplers=("nvml",))


class TestAggregator:
    def test_collect_job_ingests_all_samplers(self, catalog, tmp_path):
        runner = JobRunner(VOLTA, catalog=catalog, seed=0)
        result = runner.run(JobSpec(job_id=1, app=ECLIPSE_APPS["sw4"], n_nodes=2, duration_s=40))
        store = HistStore(tmp_path / "store")
        agg = Aggregator(catalog, store, faults=FaultModel.NONE, seed=0)
        rows = agg.collect_job(result)
        # 2 nodes x 40 s x 3 samplers
        assert rows == 2 * 40 * 3
        assert set(store.samplers) == set(catalog.samplers())
        np.testing.assert_array_equal(store.components(1), sorted(result.component_ids))

    def test_collect_campaign_accumulates(self, catalog, tmp_path):
        runner = JobRunner(VOLTA, catalog=catalog, seed=0)
        results = runner.run_campaign(
            [
                JobSpec(job_id=i, app=ECLIPSE_APPS["lammps"], n_nodes=1, duration_s=30)
                for i in range(3)
            ]
        )
        store = HistStore(tmp_path / "store")
        agg = Aggregator(catalog, store, faults=FaultModel.NONE, seed=0)
        agg.collect_campaign(results)
        np.testing.assert_array_equal(store.jobs(), [0, 1, 2])

    def test_faults_applied_per_sampler(self, catalog, tmp_path):
        runner = JobRunner(VOLTA, catalog=catalog, seed=0)
        result = runner.run(JobSpec(job_id=1, app=ECLIPSE_APPS["lammps"], n_nodes=1, duration_s=60))
        store = HistStore(tmp_path / "store")
        agg = Aggregator(
            catalog, store, faults=FaultModel(row_drop_prob=0.2, value_drop_prob=0.0), seed=0
        )
        rows = agg.collect_job(result)
        assert rows < 60 * 3  # some rows lost
