"""Tests for the analytics service and dashboard rendering."""

import numpy as np
import pytest

from repro.anomalies import MemLeak
from repro.core import ProdigyDetector
from repro.hist import HistStore
from repro.monitoring import Aggregator, FaultModel
from repro.pipeline import AnomalyDetectorService, DataGenerator, DataPipeline
from repro.serving import AnalyticsService, render_anomaly_dashboard, render_table
from repro.serving.errors import ServingError, error_message, is_error
from repro.workloads import ECLIPSE_APPS, JobRunner, JobSpec, VOLTA


@pytest.fixture(scope="module")
def analytics(catalog, tiny_extractor, tmp_path_factory):
    """A deployed analytics service over a small monitored campaign."""
    runner = JobRunner(VOLTA, catalog=catalog, seed=5)
    specs = [
        JobSpec(job_id=i, app=ECLIPSE_APPS["sw4"], n_nodes=2, duration_s=90)
        for i in range(1, 5)
    ]
    specs.append(
        JobSpec(
            job_id=5, app=ECLIPSE_APPS["sw4"], n_nodes=2, duration_s=90,
            anomalies={0: MemLeak(10.0, 1.0)},
        )
    )
    results = runner.run_campaign(specs)
    store = HistStore(tmp_path_factory.mktemp("store"))
    Aggregator(catalog, store, faults=FaultModel.NONE, seed=0).collect_campaign(results)
    gen = DataGenerator(store, catalog, trim_seconds=10)

    labels = {(r.spec.job_id, c): r.node_label(c) for r in results for c in r.component_ids}
    series, y = [], []
    for j in gen.all_job_ids():
        for s in gen.job_series(int(j)):
            series.append(s)
            y.append(labels[(int(j), s.component_id)])
    pipe = DataPipeline(tiny_extractor, n_features=48)
    samples = pipe.engine.extract(series, y)
    pipe.fit(samples)
    det = ProdigyDetector(
        hidden_dims=(16, 8), latent_dim=4, epochs=80, batch_size=8,
        learning_rate=1e-3, seed=1,
    )
    transformed = pipe.transform_samples(samples)
    det.fit(transformed.features, transformed.labels)
    svc = AnomalyDetectorService(gen, pipe, det)
    healthy_refs = [s for s, label in zip(series, y) if label == 0][:6]
    return AnalyticsService(svc, healthy_refs)


class TestRequests:
    def test_anomaly_dashboard_shape(self, analytics):
        resp = analytics.handle_request(5, "anomaly_detection")
        assert resp["job_id"] == 5
        assert resp["n_nodes"] == 2
        assert {n["prediction"] for n in resp["nodes"]} <= {"healthy", "anomalous"}

    def test_unknown_dashboard(self, analytics):
        with pytest.raises(KeyError, match="available"):
            analytics.handle_request(1, "quantum_dashboard")

    def test_node_analysis_dashboard(self, analytics):
        resp = analytics.handle_request(
            1, "node_analysis", metrics=["MemFree::meminfo"]
        )
        assert len(resp["nodes"]) == 2
        stats = resp["nodes"][0]["metrics"]["MemFree::meminfo"]
        assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_node_analysis_filters_component(self, analytics):
        all_resp = analytics.handle_request(1, "node_analysis")
        comp = all_resp["nodes"][0]["component_id"]
        resp = analytics.handle_request(1, "node_analysis", component_id=comp)
        assert len(resp["nodes"]) == 1
        with pytest.raises(LookupError):
            analytics.handle_request(1, "node_analysis", component_id=999999)

    def test_explanations_for_anomalous_nodes(self, analytics):
        resp = analytics.handle_request(5, "anomaly_detection", explain=True)
        if resp["n_anomalous"]:
            expl = resp["explanations"]
            assert len(expl) >= 1
            assert isinstance(expl[0]["metrics"], list)
            assert 0.0 <= expl[0]["p_anomalous_after"] <= 1.0

    def test_no_references_yields_error_entry(self, analytics):
        bare = AnalyticsService(analytics.detector_service, [])
        resp = bare.anomaly_detection_dashboard(5, explain=True)
        if resp["n_anomalous"]:
            assert resp["explanations"][0]["error"]["code"] == "no_healthy_references"


class TestErrorEnvelopes:
    """Every serving failure speaks the one structured envelope."""

    def test_unknown_dashboard_envelope(self, analytics):
        with pytest.raises(ServingError) as excinfo:
            analytics.handle_request(1, "quantum_dashboard")
        envelope = excinfo.value.envelope()["error"]
        assert envelope["code"] == "unknown_dashboard"
        assert "quantum_dashboard" in envelope["message"]
        assert "anomaly_detection" in envelope["available"]

    def test_unknown_component_envelope(self, analytics):
        with pytest.raises(ServingError) as excinfo:
            analytics.handle_request(1, "node_analysis", component_id=999999)
        envelope = excinfo.value.envelope()["error"]
        assert envelope["code"] == "unknown_component"
        assert envelope["available"]  # the real component ids, for the caller

    def test_unknown_metric_validated_up_front(self, analytics):
        with pytest.raises(ServingError) as excinfo:
            analytics.handle_request(
                1, "node_analysis", metrics=["MemFree::meminfo", "no_such_metric"]
            )
        err = excinfo.value
        assert err.code == "unknown_metric"
        # The message names the job and the typo'd metric...
        assert "no_such_metric" in err.message and "job 1" in err.message
        # ...and the envelope carries the full metric catalog.
        assert "MemFree::meminfo" in err.available

    def test_unconfigured_dashboards_return_soft_envelopes(self, analytics):
        for dashboard, code in [
            ("lifecycle", "lifecycle_unavailable"),
            ("fleet", "fleet_unavailable"),
            ("history", "history_unavailable"),
        ]:
            resp = analytics.handle_request(0, dashboard)
            assert is_error(resp)
            assert resp["error"]["code"] == code
            assert error_message(resp)

    def test_dashboards_property_lists_registry(self, analytics):
        assert set(analytics.dashboards) >= {
            "anomaly_detection", "node_analysis", "lifecycle", "fleet", "history",
        }


class TestRendering:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.34567], ["xx", 5]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "2.3457" in out

    def test_render_dashboard_text(self, analytics):
        resp = analytics.handle_request(5, "anomaly_detection", explain=True)
        text = render_anomaly_dashboard(resp)
        assert "Job 5" in text
        assert "prediction" in text
