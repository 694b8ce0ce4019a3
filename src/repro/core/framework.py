"""End-to-end Prodigy facade.

A convenience wrapper for the most common usage: give it labeled (or
healthy-only) node series, get a deployed detector with its feature
pipeline, persistence, and CoMTE explanations — one object instead of five.
The pieces remain fully accessible for anything bespoke.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.prodigy import ProdigyDetector
from repro.features.extraction import FeatureExtractor
from repro.pipeline.datapipeline import DataPipeline
from repro.pipeline.modeltrainer import ModelTrainer, fit_detector, load_detector
from repro.runtime.config import ExecutionConfig
from repro.telemetry.frame import NodeSeries
from repro.util.rng import derive_seed, ensure_rng
from repro.util.validation import NotFittedError

__all__ = ["Prodigy"]


class Prodigy:
    """High-level train/predict/explain interface over raw node series.

    Parameters mirror :class:`ProdigyDetector` plus the feature-pipeline
    knobs; see those classes for details.

    Example
    -------
    >>> prodigy = Prodigy(n_features=512, seed=0)
    >>> prodigy.fit(series_list, labels)            # labels optional
    >>> prodigy.predict(new_series)                 # [0, 1, ...]
    >>> prodigy.explain(flagged_series)             # CoMTE counterfactual
    """

    def __init__(
        self,
        *,
        n_features: int = 2048,
        hidden_dims: Sequence[int] = (128, 64),
        latent_dim: int = 16,
        epochs: int = 300,
        batch_size: int = 64,
        learning_rate: float = 1e-3,
        threshold_percentile: float = 99.0,
        validation_fraction: float = 0.2,
        patience: int | None = 40,
        extractor: FeatureExtractor | None = None,
        execution: ExecutionConfig | None = None,
        seed: int | np.random.Generator | None = None,
    ):
        self._rng = ensure_rng(seed)
        self.pipeline = DataPipeline(
            extractor if extractor is not None else FeatureExtractor(),
            n_features=n_features,
            execution=execution,
        )
        self.detector = ProdigyDetector(
            hidden_dims=hidden_dims,
            latent_dim=latent_dim,
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            threshold_percentile=threshold_percentile,
            validation_fraction=validation_fraction,
            patience=patience,
            seed=derive_seed(self._rng),
        )
        self._healthy_references: list[NodeSeries] = []
        self._fitted = False

    # -- training --------------------------------------------------------------

    def fit(
        self,
        series: Sequence[NodeSeries],
        labels: Sequence[int] | np.ndarray | None = None,
    ) -> "Prodigy":
        """Extract, select, scale, and train on healthy samples.

        Without labels every run is assumed healthy (the production
        assumption) and selection ranks features by variance; supplying
        even a few labeled anomalous runs lets the Chi-square test select
        instead, which is recommended.
        """
        series = list(series)
        y = None if labels is None else np.asarray(labels, dtype=np.int64)
        samples = self.pipeline.engine.extract(series, y)
        self.pipeline.fit(samples)
        # Lineage + drift reference, persisted by save() for the lifecycle layer.
        self._fingerprint, self._reference = fit_detector(
            self.pipeline, self.detector, samples
        )
        self._healthy_references = [
            s for s, label in zip(series, samples.labels) if label != 1
        ][:25]
        self._fitted = True
        return self

    # -- inference ----------------------------------------------------------------

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("Prodigy is not fitted; call fit() first")

    def anomaly_score(self, series: Sequence[NodeSeries]) -> np.ndarray:
        self._require_fitted()
        x, present = self.pipeline.transform_series_masked(list(series))
        return self.detector.anomaly_score(x, present=present)

    def predict(self, series: Sequence[NodeSeries]) -> np.ndarray:
        """Binary prediction per node run (1 = anomalous)."""
        self._require_fitted()
        x, present = self.pipeline.transform_series_masked(list(series))
        return self.detector.predict(x, present=present)

    def explain(self, series: NodeSeries, *, max_metrics: int = 5):
        """CoMTE counterfactual for one (typically flagged) run."""
        self._require_fitted()
        if not self._healthy_references:
            raise RuntimeError("no healthy reference series retained from fit()")
        from repro.explain.comte import OptimizedSearch
        from repro.explain.evaluators import series_classifier

        # CoMTE substitutes whole metric series between the flagged run and
        # a reference, so references must share the run's column layout —
        # on a mixed fleet only same-schema nodes are comparable.
        references = [
            r
            for r in self._healthy_references
            if r.schema_digest == series.schema_digest
        ]
        if not references:
            raise RuntimeError(
                "no healthy reference series share the flagged run's metric "
                "schema; cannot build a counterfactual across schemas"
            )
        search = OptimizedSearch(
            series_classifier(self.pipeline, self.detector),
            references,
            max_metrics=max_metrics,
        )
        # The search itself records the ``explain`` stage.
        return search.explain(series)

    # -- persistence -------------------------------------------------------------------

    def save(self, artifact_dir: str | Path) -> Path:
        """Persist the deployment (weights + scaler + metadata)."""
        self._require_fitted()
        trainer = ModelTrainer(self.pipeline, self.detector, artifact_dir)
        trainer.fingerprint_ = getattr(self, "_fingerprint", None)
        trainer.reference_ = getattr(self, "_reference", None)
        return trainer.save()

    @classmethod
    def load(cls, artifact_dir: str | Path, *, seed=None) -> "Prodigy":
        """Reload a persisted deployment (references for explain() excluded)."""
        pipeline, detector = load_detector(artifact_dir)
        obj = cls(seed=seed)
        obj.pipeline = pipeline
        obj.detector = detector
        obj._fitted = True
        return obj
