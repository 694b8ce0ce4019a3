"""Online anomaly detection (paper Fig. 4's AnomalyDetector module).

Given a job id, the service pulls sampler data through the DataGenerator,
transforms each node's series with the fitted DataPipeline, and emits a
binary prediction per compute node.  It also exposes the raw-series
``predict_proba`` interface CoMTE needs.

The pipeline's transform computes only the selected feature cells of
each node (the selected-feature plan), and
:meth:`AnomalyDetectorService.runtime_stats` exposes the per-stage timers
for service health monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.prodigy import ProdigyDetector
from repro.explain.evaluators import series_classifier
from repro.pipeline.datagenerator import DataGenerator
from repro.pipeline.datapipeline import DataPipeline
from repro.telemetry.frame import NodeSeries

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

    def attach_lifecycle(self, manager) -> None:
        """Attach a LifecycleManager after construction."""
        self.lifecycle = manager

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
        preds = self.detector.predict(features)
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

    def predict_series_batch(self, series: list[NodeSeries]) -> list[NodePrediction]:
        """Predictions for several node series in one engine dispatch.

        The micro-batch companion of :meth:`predict_series`: callers holding
        multiple concurrently-pending runs (stream drains, dashboard fan-in)
        get one block extraction instead of N single-row ones.
        """
        if not series:
            return []
        features = self.pipeline.transform_series(series)
        scores = self.detector.anomaly_score(features)
        preds = self.detector.predict(features)
        return [
            NodePrediction(
                job_id=s.job_id,
                component_id=s.component_id,
                prediction=int(p),
                anomaly_score=float(sc),
                threshold=float(self.detector.threshold_),
            )
            for s, p, sc in zip(series, preds, scores)
        ]

    def predict_series(self, series: NodeSeries) -> NodePrediction:
        """Prediction for one already-preprocessed node series."""
        features = self.pipeline.transform_single(series)
        score = float(self.detector.anomaly_score(features)[0])
        pred = int(self.detector.predict(features)[0])
        return NodePrediction(
            job_id=series.job_id,
            component_id=series.component_id,
            prediction=pred,
            anomaly_score=score,
            threshold=float(self.detector.threshold_),
        )

    def predict_proba_series(self, series: NodeSeries) -> np.ndarray:
        """``[P(healthy), P(anomalous)]`` for a raw series (CoMTE's hook)."""
        features = self.pipeline.transform_single(series)
        return self.detector.predict_proba(features)[0]

    def predict_proba_series_batch(self, series: list[NodeSeries]) -> np.ndarray:
        """``(n, 2)`` probabilities for several raw series in one dispatch.

        The batched CoMTE search hands a whole round of candidate
        substituted series here: one micro-batched extraction plus one
        detector forward instead of N single-series round trips.
        """
        if not series:
            return np.empty((0, 2))
        features = self.pipeline.transform_series(series)
        return self.detector.predict_proba(features)

    def as_series_classifier(self):
        """CoMTE's :func:`~repro.explain.evaluators.series_classifier` over
        the service's pipeline and current detector."""
        return series_classifier(self.pipeline, self.detector)
