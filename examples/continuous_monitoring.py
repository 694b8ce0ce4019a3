#!/usr/bin/env python
"""Continuous cluster operation with online anomaly detection.

Extends the paper's post-run pipeline toward its Sec. 7 future-work
direction: a batch scheduler keeps a node pool busy with overlapping jobs,
telemetry streams into a windowed detector, and alerts fire *while* the
anomalous job is still running.

Usage::

    python examples/continuous_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro.anomalies import MemLeak
from repro.core import ProdigyDetector
from repro.features import FeatureExtractor
from repro.monitoring import StreamingDetector
from repro.pipeline import DataPipeline
from repro.telemetry import NodeSeries, standard_preprocess
from repro.workloads import (
    BatchScheduler,
    ECLIPSE_APPS,
    JobRequest,
    JobRunner,
    JobSpec,
    VOLTA,
    default_catalog,
)

SEED = 13


def train_deployment(catalog):
    """Offline: fit pipeline + detector on a small labeled collection."""
    runner = JobRunner(VOLTA, catalog=catalog, seed=SEED)
    series, labels = [], []
    job_id = 0
    for app in ("lammps", "sw4", "hacc"):
        for anomalous in (False, False, False, False, True):
            job_id += 1
            anomalies = {0: MemLeak(20.0, 1.0)} if anomalous else {}
            result = runner.run(
                JobSpec(job_id=job_id, app=ECLIPSE_APPS[app], n_nodes=2,
                        duration_s=300, anomalies=anomalies)
            )
            for comp in result.component_ids:
                series.append(
                    standard_preprocess(
                        result.frame.node_series(job_id, comp),
                        catalog.counter_names, trim_seconds=20,
                    )
                )
                labels.append(result.node_label(comp))
    pipeline = DataPipeline(FeatureExtractor(), n_features=512)
    pipeline, transformed = pipeline.fit_from_series(series, labels)
    detector = ProdigyDetector(
        hidden_dims=(128, 64), latent_dim=16, epochs=200, batch_size=32,
        learning_rate=1e-3, seed=SEED,
    )
    detector.fit(transformed.features, transformed.labels)
    healthy = [s for s, label in zip(series, labels) if label == 0]
    return pipeline, detector, healthy


def main() -> None:
    catalog = default_catalog()
    print("training the deployment offline...")
    pipeline, detector, healthy_refs = train_deployment(catalog)

    stream = StreamingDetector(
        pipeline, detector, window_seconds=180, evaluate_every=45, consecutive_alerts=2
    )  # two consecutive hot windows debounce phase-boundary spikes
    print("calibrating the window threshold on healthy streams...")
    # Max (100th percentile) over healthy windows: streams are noisier
    # than full runs, so the operating point must be conservative.
    thr = stream.calibrate(healthy_refs[:6], percentile=100.0)
    # Unseen nodes add hardware-character variation the references cannot
    # cover; a 1.5x operating margin keeps the false-alert rate near zero
    # at the cost of catching only pronounced anomalies early.
    stream.threshold_ = 1.5 * thr
    print(f"  run-level threshold {detector.threshold_:.3f} -> window threshold "
          f"{thr:.3f} (x1.5 margin -> {stream.threshold_:.3f})")

    # Schedule a queue of overlapping jobs on a 16-node partition.
    partition = VOLTA
    scheduler = BatchScheduler(partition, seed=SEED)
    requests = [
        JobRequest(job_id=100 + i, n_nodes=4, duration_s=360, submit_time=60.0 * i)
        for i in range(5)
    ]
    placed = scheduler.schedule(requests)
    # Note: the scheduler decides placement times; the telemetry runner
    # draws its own node allocation (the monitoring view of the job).
    print("\nschedule (FCFS + backfill):")
    for job in placed:
        print(f"  job {job.request.job_id}: start t={job.start_time:>6.0f}s "
              f"wait {job.wait_time:>4.0f}s nodes {job.node_ids}")

    # Run the scheduled jobs; job 102 leaks memory on one node.
    runner = JobRunner(partition, catalog=catalog, seed=SEED + 1)
    print("\nstreaming detection during execution:")
    rng = np.random.default_rng(SEED)
    for job in placed:
        anomalies = {0: MemLeak(80.0, 1.0)} if job.request.job_id == 102 else {}
        result = runner.run(
            JobSpec(job_id=job.request.job_id, app=ECLIPSE_APPS["lammps"],
                    n_nodes=job.request.n_nodes, duration_s=job.request.duration_s,
                    anomalies=anomalies, start_time=job.start_time)
        )
        comp = result.component_ids[0]
        series = standard_preprocess(
            result.frame.node_series(job.request.job_id, comp),
            catalog.counter_names, trim_seconds=0,
        )
        # Replay the node's telemetry in 45 s chunks, as it would arrive.
        for start in range(0, series.n_timestamps, 45):
            end = min(start + 45, series.n_timestamps)
            chunk = NodeSeries(
                series.job_id, series.component_id,
                series.timestamps[start:end], series.values[start:end],
                series.metric_names,
            )
            verdict = stream.ingest(chunk)
            if verdict and verdict.alert:
                truth = result.node_anomalies[comp]
                print(f"  ALERT job {verdict.job_id} node {verdict.component_id} "
                      f"at t={verdict.window_end:.0f}s score={verdict.anomaly_score:.3f} "
                      f"(ground truth: {truth})")
                break
        else:
            print(f"  job {job.request.job_id} node {comp}: no alert "
                  f"(ground truth: {result.node_anomalies[comp]})")
        stream.reset(job.request.job_id, comp)


if __name__ == "__main__":
    main()
