"""Cross-module integration: the full paper workflow at micro scale.

Collection (samplers + faults) -> DSOS -> DataGenerator -> feature pipeline
-> Prodigy -> persistence -> analytics -> CSV interchange, all on one tiny
campaign — the whole Fig. 1-4 story in one test module.
"""

import numpy as np
import pytest

from repro.anomalies import MemBandwidth
from repro.core import Prodigy
from repro.hist import HistStore
from repro.monitoring import Aggregator, FaultModel
from repro.pipeline import DataGenerator
from repro.telemetry import read_csv, write_csv
from repro.workloads import ECLIPSE_APPS, JobRunner, JobSpec, VOLTA


@pytest.fixture(scope="module")
def campaign(catalog, tmp_path_factory):
    runner = JobRunner(VOLTA, catalog=catalog, seed=21)
    specs = []
    for j in range(1, 7):
        anomalies = {0: MemBandwidth("32K")} if j >= 6 else {}
        specs.append(
            JobSpec(job_id=j, app=ECLIPSE_APPS["swfft"], n_nodes=2, duration_s=120,
                    anomalies=anomalies)
        )
    results = runner.run_campaign(specs)
    store = HistStore(tmp_path_factory.mktemp("store"))
    Aggregator(
        catalog, store,
        faults=FaultModel(row_drop_prob=0.01, value_drop_prob=0.005), seed=3,
    ).collect_campaign(results)
    labels = {(r.spec.job_id, c): r.node_label(c) for r in results for c in r.component_ids}
    return store, labels


class TestFullWorkflow:
    @pytest.fixture(scope="class")
    def facade(self, campaign, catalog, tiny_extractor):
        store, labels = campaign
        gen = DataGenerator(store, catalog, trim_seconds=10)
        series, y = [], []
        for j in gen.all_job_ids():
            for s in gen.job_series(int(j)):
                series.append(s)
                y.append(labels[(int(j), s.component_id)])
        prodigy = Prodigy(
            n_features=48, hidden_dims=(16, 8), latent_dim=4, epochs=80,
            batch_size=8, extractor=tiny_extractor, seed=5,
        )
        prodigy.fit(series, y)
        return prodigy, gen, series, np.asarray(y)

    def test_detects_through_full_stack(self, facade):
        prodigy, _, series, y = facade
        preds = prodigy.predict(series)
        # The membw nodes stand out even through collection faults.
        anom_scores = prodigy.anomaly_score([s for s, l in zip(series, y) if l == 1])
        healthy_scores = prodigy.anomaly_score([s for s, l in zip(series, y) if l == 0])
        assert anom_scores.mean() > healthy_scores.mean()
        assert preds[y == 1].mean() >= 0.5

    def test_persistence_through_facade(self, facade, tmp_path):
        prodigy, _, series, _ = facade
        prodigy.save(tmp_path / "d")
        loaded = Prodigy.load(tmp_path / "d")
        np.testing.assert_allclose(
            loaded.anomaly_score(series[:2]), prodigy.anomaly_score(series[:2])
        )

    def test_csv_interchange_preserves_predictions(self, facade, campaign, catalog, tmp_path):
        """Telemetry exported to CSV and re-imported scores identically."""
        prodigy, gen, _, _ = facade
        store, _ = campaign
        frame = store.query("meminfo", job_id=6)
        path = write_csv(frame, tmp_path / "extract.csv")
        back = read_csv(path)
        assert back.n_rows == frame.n_rows
        np.testing.assert_array_equal(np.unique(back.component_id), np.unique(frame.component_id))

    def test_explanation_through_full_stack(self, facade):
        prodigy, _, series, y = facade
        flagged = [s for s, l, p in zip(series, y, prodigy.predict(series)) if l == 1 and p == 1]
        if not flagged:
            pytest.skip("no true positive to explain at this micro scale")
        cf = prodigy.explain(flagged[0], max_metrics=3)
        assert cf.n_evaluations > 0
