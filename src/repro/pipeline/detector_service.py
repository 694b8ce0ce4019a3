"""Online anomaly detection (paper Fig. 4's AnomalyDetector module).

Given a job id, the service pulls sampler data through the DataGenerator,
transforms each node's series with the fitted DataPipeline, and emits a
binary prediction per compute node.

The pipeline's transform computes only the selected feature cells of
each node (the selected-feature plan), and
:meth:`AnomalyDetectorService.runtime_stats` exposes the per-stage timers
for service health monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.prodigy import ProdigyDetector
from repro.explain.evaluators import series_classifier
from repro.pipeline.datagenerator import DataGenerator
from repro.pipeline.datapipeline import DataPipeline

__all__ = ["NodePrediction", "AnomalyDetectorService"]


@dataclass(frozen=True)
class NodePrediction:
    """Per-node detection result for a job dashboard."""

    job_id: int
    component_id: int
    prediction: int  # 1 anomalous, 0 healthy
    anomaly_score: float
    threshold: float

    @property
    def is_anomalous(self) -> bool:
        return self.prediction == 1


class AnomalyDetectorService:
    """End-to-end online detector over the monitoring database.

    With a :class:`~repro.lifecycle.manager.LifecycleManager` attached,
    every scored node-run also feeds the drift monitor (and, when the run
    was not flagged, the healthy-sample buffer), and a candidate promoted
    out of shadow hot-swaps the served detector.
    """

    def __init__(
        self,
        data_generator: DataGenerator,
        pipeline: DataPipeline,
        detector: ProdigyDetector,
        *,
        lifecycle=None,
    ):
        self.data_generator = data_generator
        self.pipeline = pipeline
        self.detector = detector
        self.lifecycle = lifecycle

    def runtime_stats(self) -> dict:
        """Engine/cache/stage snapshot of the service's extraction runtime."""
        stats = self.pipeline.engine.stats()
        if self.lifecycle is not None:
            stats["lifecycle"] = {
                "monitor": self.lifecycle.monitor.summary(),
                "drift_events": len(self.lifecycle.drift_events),
            }
        return stats

    def predict_job(self, job_id: int) -> list[NodePrediction]:
        """Binary prediction per compute node of *job_id*."""
        series = self.data_generator.job_series(job_id)
        inst = self.pipeline.engine.instrumentation
        inst.count("service_jobs", 1)
        inst.count("service_nodes", len(series))
        features = self.pipeline.transform_series(series)
        scores = self.detector.anomaly_score(features)
        # ProdigyDetector.predict's rule, on the scores already computed.
        preds = scores > self.detector.threshold_
        if self.lifecycle is not None:
            for s, row, sc, p in zip(series, features, scores, preds):
                promoted = self.lifecycle.observe_window(
                    s, row, float(sc), alert=bool(p),
                    active_detector=self.detector,
                )
                if promoted is not None:
                    self.detector = promoted
        return [
            NodePrediction(
                job_id=job_id,
                component_id=s.component_id,
                prediction=int(p),
                anomaly_score=float(sc),
                threshold=float(self.detector.threshold_),
            )
            for s, p, sc in zip(series, preds, scores)
        ]

    def as_series_classifier(self):
        """CoMTE's :func:`~repro.explain.evaluators.series_classifier` over
        the service's pipeline and current detector."""
        return series_classifier(self.pipeline, self.detector)
