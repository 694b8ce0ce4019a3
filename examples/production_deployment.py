#!/usr/bin/env python
"""Full production-deployment walkthrough (paper Sec. 4, Figs. 2-4).

Simulates the Eclipse/Shirley stack end to end:

1. a cluster runs jobs while ``ldmsd`` samplers collect telemetry at 1 Hz,
2. the aggregator (with realistic collection faults) ingests into the
   DSOS-style store,
3. offline: DataGenerator -> DataPipeline -> ModelTrainer persist a trained
   deployment to disk,
4. online: the artifact directory is reloaded by the AnomalyDetectorService
   and the Grafana-style AnalyticsService answers job-dashboard requests —
   including CoMTE counterfactual explanations for flagged nodes.

Usage::

    python examples/production_deployment.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

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
from repro.serving import AnalyticsService, render_anomaly_dashboard
from repro.workloads import ECLIPSE, ECLIPSE_APPS, JobRunner, JobSpec, default_catalog

SEED = 11


def collect_telemetry(catalog, store_dir: Path) -> tuple[HistStore, dict, int]:
    """Run a monitored campaign; returns (store, ground truth, anomalous job)."""
    runner = JobRunner(ECLIPSE, catalog=catalog, seed=SEED)
    store = HistStore(store_dir)
    aggregator = Aggregator(
        catalog,
        store,
        faults=FaultModel(row_drop_prob=0.01, value_drop_prob=0.002, jitter_std=0.05),
        seed=SEED,
    )

    specs = []
    job_id = 0
    for app in ("lammps", "sw4"):
        for _ in range(6):  # healthy production jobs
            job_id += 1
            specs.append(JobSpec(job_id=job_id, app=ECLIPSE_APPS[app], n_nodes=4, duration_s=300))
    # One job where two nodes suffer a memory leak.
    job_id += 1
    bad_job = job_id
    specs.append(
        JobSpec(
            job_id=job_id,
            app=ECLIPSE_APPS["lammps"],
            n_nodes=4,
            duration_s=300,
            anomalies={0: MemLeak(10.0, 1.0), 1: MemLeak(10.0, 1.0)},
        )
    )
    results = runner.run_campaign(specs)
    rows = aggregator.collect_campaign(results)
    print(f"  aggregated {rows} rows into {len(store.samplers)} DSOS containers")
    labels = {(r.spec.job_id, c): r.node_label(c) for r in results for c in r.component_ids}
    return store, labels, bad_job


def train_offline(store, labels, catalog, artifact_dir: Path):
    """The Fig. 3 path: DataGenerator -> DataPipeline -> ModelTrainer."""
    generator = DataGenerator(store, catalog, trim_seconds=30.0)
    series, y = [], []
    for job in generator.all_job_ids():
        for s in generator.job_series(int(job)):
            series.append(s)
            y.append(labels[(int(job), s.component_id)])
    print(f"  preprocessed {len(series)} node runs ({sum(y)} anomalous)")

    pipeline = DataPipeline(FeatureExtractor(), n_features=512)
    samples = pipeline.engine.extract(series, y)
    pipeline.fit(samples)
    detector = ProdigyDetector(
        hidden_dims=(128, 64), latent_dim=16,
        epochs=250, batch_size=32, learning_rate=1e-3, seed=SEED,
    )
    ModelTrainer(pipeline, detector, artifact_dir).train(samples)
    print(f"  artifacts saved under {artifact_dir}")
    healthy_references = [s for s, label in zip(series, y) if label == 0][:12]
    return generator, healthy_references


def serve_online(generator, artifact_dir: Path, healthy_references, bad_job: int):
    """The Fig. 4 path: reload artifacts, answer dashboard requests."""
    pipeline, detector = load_detector(artifact_dir)
    service = AnomalyDetectorService(generator, pipeline, detector)
    analytics = AnalyticsService(service, healthy_references)

    print(f"\n--- anomaly-detection dashboard for job {bad_job} ---")
    response = analytics.handle_request(bad_job, "anomaly_detection", explain=True)
    print(render_anomaly_dashboard(response))

    print("\n--- node-analysis dashboard (memory stats, job 1) ---")
    response = analytics.handle_request(
        1, "node_analysis", metrics=["MemFree::meminfo", "MemAvailable::meminfo"]
    )
    for node in response["nodes"]:
        stats = node["metrics"]["MemFree::meminfo"]
        print(
            f"  node {node['component_id']}: MemFree mean {stats['mean']:.0f} MB "
            f"(min {stats['min']:.0f}, max {stats['max']:.0f})"
        )


def main() -> None:
    catalog = default_catalog()
    with tempfile.TemporaryDirectory() as tmp:
        print("collecting telemetry (LDMS samplers -> aggregator -> DSOS)...")
        store, labels, bad_job = collect_telemetry(catalog, Path(tmp) / "dsos")
        artifact_dir = Path(tmp) / "prodigy_deployment"
        print("offline training (DataGenerator -> DataPipeline -> ModelTrainer)...")
        generator, healthy_refs = train_offline(store, labels, catalog, artifact_dir)
        print("online serving (load artifacts -> AnalyticsService)...")
        serve_online(generator, artifact_dir, healthy_refs, bad_job)


if __name__ == "__main__":
    main()
