"""Deployment set-up: the part of a run that ``setup_s`` times.

A deployment is built from generated inputs only: a resample-free pipeline
and detector fitted on the training campaign, a window threshold calibrated
on healthy replays, a ``HistStore`` (prefilled with finished jobs on
ops-mixed), a started fleet (including the worker fork on wide-ingest), and
a ``ServingGateway`` over the store and fleet.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from repro.core import ProdigyDetector
from repro.features import FeatureExtractor
from repro.fleet import FleetCoordinator, RingSpec
from repro.hist import HistStore
from repro.monitoring import StreamingDetector
from repro.pipeline import AnomalyDetectorService, DataPipeline
from repro.pipeline.datagenerator import DataGenerator
from repro.serving.gateway import ServingGateway, TenantSpec
from repro.serving.service import AnalyticsService

from inputs import (
    CHUNK_ROWS,
    CONSECUTIVE_ALERTS,
    EVALUATE_EVERY,
    TRAIN_SEED,
    TRIM_S,
    WINDOW_S,
    Inputs,
)
from spans import TracedDataGenerator, TracedDetector, TracedPipeline, TracedStore, Tracer

N_FEATURES = 64
#: Calibration replays healthy series at this stride (window ends).
CALIBRATION_STRIDE = 64
#: Operating margin over the highest healthy calibration window score.
THRESHOLD_MARGIN = 1.1
#: Memtable rows per sampler container that trigger a segment flush.
STORE_FLUSH_ROWS = 8192
FLEET_QUEUE_CAPACITY = 256
FLEET_HIGH_WATERMARK = 96

STREAM_KWARGS = dict(
    window_seconds=WINDOW_S,
    evaluate_every=EVALUATE_EVERY,
    consecutive_alerts=CONSECUTIVE_ALERTS,
    streaming_mode="rolling",
)

#: Admission contracts, sized so the seeded schedules are never refused.
TENANTS = (
    TenantSpec("interactive", priority="interactive", rate=50.0, burst=50.0,
               queue_capacity=64, p99_slo_ms=1000.0),
    TenantSpec("batch", priority="batch", rate=50.0, burst=50.0,
               queue_capacity=64, deadline_s=60.0, p99_slo_ms=5000.0),
)


@dataclass
class Deployment:
    pipeline: DataPipeline
    detector: ProdigyDetector
    store: HistStore
    #: what the loop and the DataGenerator write and read through
    store_view: object
    fleet: FleetCoordinator
    gateway: ServingGateway
    root: Path

    def close(self) -> None:
        self.fleet.close()
        shutil.rmtree(self.root, ignore_errors=True)


def build(inputs: Inputs, root: Path, tracer: Tracer) -> tuple[Deployment, float]:
    """Build one deployment; returns it and its set-up seconds."""
    start = time.perf_counter()
    pipeline = DataPipeline(FeatureExtractor(resample_points=None), n_features=N_FEATURES)
    with tracer.span("features.fit"):
        pipeline, samples = pipeline.fit_from_series(inputs.train_series, inputs.train_labels)
    detector = ProdigyDetector(
        hidden_dims=(64, 32), latent_dim=8, epochs=100, batch_size=16, patience=None,
        seed=TRAIN_SEED,
    ).fit(samples.features[inputs.train_labels == 0])
    calibrator = StreamingDetector(
        pipeline, detector, window_seconds=WINDOW_S, evaluate_every=CALIBRATION_STRIDE,
        streaming_mode="rolling",
    )
    threshold = THRESHOLD_MARGIN * calibrator.calibrate(
        inputs.calibration_series, percentile=100.0
    )

    store = HistStore(root, flush_rows=STORE_FLUSH_ROWS)
    store.register_schema(inputs.catalog.schema())
    store_view = TracedStore(store, tracer) if tracer.enabled else store
    for sampler, frame in inputs.prefill:
        store_view.ingest(sampler, frame)

    process = inputs.workload == "wide-ingest"
    fleet = FleetCoordinator(
        pipeline,
        # Inline scoring runs on this thread, so its calls can be traced;
        # a forked worker's cannot.
        TracedDetector(detector, tracer, "score.stream")
        if tracer.enabled and not process else detector,
        n_workers=1,
        transport="process" if process else "inline",
        queue_capacity=FLEET_QUEUE_CAPACITY,
        high_watermark=FLEET_HIGH_WATERMARK,
        ring_spec=RingSpec(slot_samples=CHUNK_ROWS,
                           slot_metrics=len(inputs.catalog.metric_names)),
        stream_kwargs=STREAM_KWARGS,
    )
    fleet.set_threshold(threshold)

    generator = DataGenerator(store_view, inputs.catalog, trim_seconds=TRIM_S)
    if tracer.enabled:
        service = AnomalyDetectorService(
            TracedDataGenerator(generator, tracer),
            TracedPipeline(pipeline, tracer),
            TracedDetector(detector, tracer, "score.batch"),
        )
    else:
        service = AnomalyDetectorService(generator, pipeline, detector)
    gateway = ServingGateway(
        AnalyticsService(service, fleet=fleet), TENANTS,
        clock=lambda: 0.0,
    )
    deployment = Deployment(pipeline, detector, store, store_view, fleet, gateway, root)
    return deployment, time.perf_counter() - start
