"""Substitution evaluation for CoMTE.

The search loops of :mod:`repro.explain.comte` need ``P(anomalous)`` for
hundreds of metric-substituted variants of one sample.
:class:`ClassifierEvaluator` materialises each substituted series and
runs the classifier on it; ``p_anomalous_batch`` hands a whole search
round to the classifier's ``classify_batch`` in one dispatch.

:func:`series_classifier` is that classifier for a fitted deployment:
the pipeline's transform computes only the selected cells (the
selected-feature plan), so scoring a substituted series costs those
cells and one detector forward.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.explain.comte import SeriesClassifier, substitute_metrics
from repro.telemetry.frame import NodeSeries

__all__ = ["ClassifierEvaluator", "series_classifier"]


def series_classifier(pipeline, detector) -> SeriesClassifier:
    """CoMTE's classifier over a fitted pipeline and detector.

    Scores one series as ``detector.predict_proba`` of
    ``pipeline.transform_single``; its ``classify_batch`` scores a list
    through one ``pipeline.transform_series`` call, and its
    ``candidate_metrics`` are the metrics the extractor pins (``None``:
    every metric of the sample).
    """

    def classify(series: NodeSeries) -> np.ndarray:
        return detector.predict_proba(pipeline.transform_single(series))[0]

    classify.classify_batch = lambda many: detector.predict_proba(
        pipeline.transform_series(many)
    )
    classify.candidate_metrics = pipeline.extractor.metrics
    return classify


class ClassifierEvaluator:
    """Evaluate candidates by rebuilding the substituted series.

    A classifier's ``candidate_metrics`` attribute, when set, limits the
    search to those metrics (the only ones its features read).
    """

    def __init__(self, classifier: SeriesClassifier):
        self.classifier = classifier
        self.candidate_metrics = getattr(classifier, "candidate_metrics", None)

    def p_anomalous(
        self,
        sample: NodeSeries,
        distractor: NodeSeries | None,
        metrics: Sequence[str],
    ) -> float:
        series = sample
        if distractor is not None and metrics:
            series = substitute_metrics(sample, distractor, metrics)
        proba = np.asarray(self.classifier(series), dtype=np.float64).ravel()
        if proba.shape[0] != 2:
            raise ValueError("classifier must return [P(healthy), P(anomalous)]")
        return float(proba[1])

    def p_anomalous_batch(
        self,
        sample: NodeSeries,
        distractor: NodeSeries | None,
        metric_sets: Sequence[Sequence[str]],
    ) -> np.ndarray:
        """P(anomalous) for many substitution candidates against one distractor.

        Uses the classifier's ``classify_batch`` attribute (one dispatch over
        all materialised series) when present — e.g. the callable from
        :func:`series_classifier` — and falls back to a per-candidate loop
        otherwise.
        """
        metric_sets = list(metric_sets)
        if not metric_sets:
            return np.empty(0)
        batch_fn = getattr(self.classifier, "classify_batch", None)
        if batch_fn is None:
            return np.array(
                [self.p_anomalous(sample, distractor, m) for m in metric_sets]
            )
        series = [
            sample
            if distractor is None or not metrics
            else substitute_metrics(sample, distractor, metrics)
            for metrics in metric_sets
        ]
        proba = np.asarray(batch_fn(series), dtype=np.float64)
        if proba.ndim != 2 or proba.shape[1] != 2:
            raise ValueError("classify_batch must return an (n, 2) probability array")
        return proba[:, 1]
