"""ModelTrainer (paper Fig. 3): offline training + artifact persistence.

Trains a detector on a fitted :class:`DataPipeline`'s output and writes
everything the online AnomalyDetector needs into an artifact directory:
model weights, model architecture/config, the fitted scaler, and deployment
metadata (selected features, extractor configuration) — the paper's "save
to Shirley's local storage" step.

Beyond the paper, the trainer also records what the model lifecycle layer
needs: a **training-data fingerprint** (row count, metric-names hash) in
the metadata for registry lineage, and a **reference profile** artifact
group (training anomaly-score sample + a subsample of the transformed
feature matrix) that drift monitors compare live traffic against.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from repro.core.prodigy import ProdigyDetector
from repro.pipeline.datapipeline import DataPipeline
from repro.telemetry.sampleset import SampleSet
from repro.util.persistence import ArtifactBundle

__all__ = [
    "ModelTrainer",
    "fit_detector",
    "load_detector",
    "training_fingerprint",
    "reference_arrays",
]

_FORMAT_VERSION = 1
_SUPPORTED_VERSIONS = (1,)
#: Max transformed-feature rows kept in the persisted reference profile.
_REFERENCE_ROWS = 512


def training_fingerprint(samples: SampleSet) -> dict:
    """Lineage record of a training set: row count + metric-names hash.

    Feature names follow the ``<metric>|<calculator>`` layout, so the
    distinct metric set is recoverable and hashed; two deployments trained
    on the same telemetry schema and row count fingerprint identically.
    """
    metric_names = sorted({str(n).split("|", 1)[0] for n in samples.feature_names})
    digest = hashlib.blake2b(
        "\n".join(metric_names).encode(), digest_size=8
    ).hexdigest()
    return {
        "n_rows": int(samples.n_samples),
        "n_features": int(samples.features.shape[1]),
        "n_metrics": len(metric_names),
        "metric_names_hash": digest,
    }


def reference_arrays(
    detector: ProdigyDetector, features: np.ndarray, labels: np.ndarray | None
) -> dict[str, np.ndarray]:
    """Healthy training scores + feature subsample for drift monitoring."""
    healthy = features if labels is None else features[np.asarray(labels) == 0]
    if healthy.shape[0] == 0:
        healthy = features
    scores = detector.anomaly_score(healthy)
    if healthy.shape[0] > _REFERENCE_ROWS:
        idx = np.unique(
            np.linspace(0, healthy.shape[0] - 1, _REFERENCE_ROWS).round().astype(np.int64)
        )
        healthy = healthy[idx]
    return {"scores": np.asarray(scores, dtype=np.float64), "features": healthy}


def fit_detector(
    pipeline: DataPipeline, detector: ProdigyDetector, samples: SampleSet
) -> tuple[dict, dict[str, np.ndarray]]:
    """The training step of every deployment fit: ``(fingerprint, reference)``.

    Transforms the raw extracted *samples* through the fitted *pipeline*
    and fits *detector* on the healthy rows — anomalous rows dropped when
    the set carries labels, every row when it is all unlabeled — with the
    presence mask, so a mixed fleet's threshold comes from the masked
    errors it is scored by.  Returns the training fingerprint and the
    drift reference profile.
    """
    transformed = pipeline.transform_samples(samples)
    labels = None if np.all(transformed.labels == -1) else transformed.labels
    detector.fit(transformed.features, labels, present=transformed.present)
    return (
        training_fingerprint(samples),
        reference_arrays(detector, transformed.features, labels),
    )


class ModelTrainer:
    """Trains and persists a Prodigy deployment.

    Parameters
    ----------
    pipeline:
        A *fitted* DataPipeline.
    detector:
        An unfitted :class:`ProdigyDetector` (or compatible model exposing
        ``fit``/``get_state``).
    output_dir:
        Artifact directory.
    """

    def __init__(self, pipeline: DataPipeline, detector: ProdigyDetector, output_dir: str | Path):
        self.pipeline = pipeline
        self.detector = detector
        self.bundle = ArtifactBundle(output_dir)
        self.fingerprint_: dict | None = None
        self.reference_: dict[str, np.ndarray] | None = None

    def train(self, samples: SampleSet) -> ProdigyDetector:
        """Fit the detector (:func:`fit_detector`) and persist.

        ``samples`` is the raw extracted SampleSet (labels included so
        healthy-only training can drop anomalous rows).
        """
        self.fingerprint_, self.reference_ = fit_detector(
            self.pipeline, self.detector, samples
        )
        self.save()
        return self.detector

    def save(self) -> Path:
        weights, model_config = self.detector.get_state()
        pipe_meta, scaler_state = self.pipeline.state()
        self.bundle.save_group("weights", weights)
        self.bundle.save_group("scaler", scaler_state)
        if self.reference_ is not None:
            self.bundle.save_group("reference", self.reference_)
        metadata = {
            "format_version": _FORMAT_VERSION,
            "model": model_config,
            "pipeline": pipe_meta,
        }
        if self.fingerprint_ is not None:
            metadata["fingerprint"] = self.fingerprint_
        return self.bundle.save_metadata(metadata)


def load_detector(artifact_dir: str | Path) -> tuple[DataPipeline, ProdigyDetector]:
    """Reload a persisted deployment: (fitted pipeline, fitted detector)."""
    bundle = ArtifactBundle(artifact_dir)
    if not bundle.exists():
        raise FileNotFoundError(f"no deployment artifacts under {artifact_dir}")
    meta = bundle.load_metadata()
    if meta.get("format_version") not in _SUPPORTED_VERSIONS:
        raise ValueError(
            f"artifact format {meta.get('format_version')!r} in {Path(artifact_dir)} "
            f"unsupported (supported versions: {list(_SUPPORTED_VERSIONS)})"
        )
    pipeline = DataPipeline.from_state(meta["pipeline"], bundle.load_group("scaler"))
    detector = ProdigyDetector.from_state(bundle.load_group("weights"), meta["model"])
    return pipeline, detector
