"""The Prodigy anomaly detector (the paper's primary contribution).

Training (Sec. 3.3): fit the VAE on healthy samples only, then set the
anomaly threshold from the healthy reconstruction errors (99th percentile
by default).  Detection (Sec. 3.4): a sample whose reconstruction MAE
exceeds the threshold is anomalous.

For the baseline-comparison protocol (Sec. 5.4.4) the threshold can instead
be calibrated by the 0-to-1 F1 sweep via :meth:`calibrate_threshold`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.thresholds import f1_sweep_threshold, percentile_threshold
from repro.core.vae import VAE, TrainingHistory
from repro.models.base import ThresholdDetector
from repro.runtime.instrumentation import get_instrumentation
from repro.util.rng import derive_seed, ensure_rng
from repro.util.validation import check_fitted

__all__ = ["ProdigyDetector"]


class ProdigyDetector(ThresholdDetector):
    """VAE-based unsupervised performance-anomaly detector.

    Parameters
    ----------
    hidden_dims, latent_dim, beta:
        VAE architecture (encoder trunk widths mirrored in the decoder).
    epochs, batch_size, learning_rate:
        Training schedule; defaults are the paper's starred values scaled
        to the synthetic dataset sizes.
    threshold_percentile:
        Percentile of healthy training reconstruction errors used as the
        detection threshold.
    validation_fraction:
        Healthy-data fraction held out for early stopping and threshold
        sweeps (the paper's 80-20 split).
    patience:
        Early-stopping patience in epochs (``None`` disables).
    """

    name = "prodigy"

    def __init__(
        self,
        hidden_dims: Sequence[int] = (128, 64),
        latent_dim: int = 16,
        *,
        beta: float = 1.0,
        epochs: int = 400,
        batch_size: int = 256,
        learning_rate: float = 1e-4,
        threshold_percentile: float = 99.0,
        validation_fraction: float = 0.2,
        patience: int | None = 40,
        seed: int | np.random.Generator | None = None,
    ):
        super().__init__()
        self.hidden_dims = tuple(hidden_dims)
        self.latent_dim = latent_dim
        self.beta = beta
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.threshold_percentile = threshold_percentile
        self.validation_fraction = validation_fraction
        self.patience = patience
        self._rng = ensure_rng(seed)
        self.vae_: VAE | None = None
        self.history_: TrainingHistory | None = None
        self.validation_errors_: np.ndarray | None = None

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray | None = None,
        *,
        present: np.ndarray | None = None,
    ) -> "ProdigyDetector":
        """Train on healthy samples.

        If labels are provided, anomalous samples are removed first (the
        paper's protocol when evaluating on labeled collections); otherwise
        all samples are assumed healthy — the production deployment
        assumption that anomalies are exceedingly rare.

        With a *present* mask (mixed-schema fleets) the VAE still trains on
        the 0-filled dense matrix, but the detection threshold is set from
        mask-aware reconstruction errors so it matches how mixed samples
        are scored at inference time.
        """
        x = self._check_input(x)
        if present is not None:
            present = np.asarray(present, dtype=bool)
            if present.shape != x.shape:
                raise ValueError(
                    f"present mask shape {present.shape} != X shape {x.shape}"
                )
        if y is not None:
            y = np.asarray(y)
            keep = y == 0
            x = x[keep]
            if present is not None:
                present = present[keep]
            if x.shape[0] == 0:
                raise ValueError("no healthy samples to train on")

        n = x.shape[0]
        n_val = int(round(self.validation_fraction * n))
        idx = self._rng.permutation(n)
        val = x[idx[:n_val]] if n_val else None
        train = x[idx[n_val:]]
        if train.shape[0] == 0:
            train, val = x, None

        self.vae_ = VAE(
            input_dim=x.shape[1],
            hidden_dims=self.hidden_dims,
            latent_dim=self.latent_dim,
            beta=self.beta,
            seed=derive_seed(self._rng),
        )
        self.history_ = self.vae_.fit(
            train,
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            validation_data=val,
            patience=self.patience if val is not None else None,
        )
        # Threshold from healthy errors (train + validation combined so the
        # percentile reflects everything known-healthy).
        errors = self.vae_.reconstruction_error(x, present=present)
        self.threshold_ = percentile_threshold(errors, self.threshold_percentile)
        self.validation_errors_ = (
            self.vae_.reconstruction_error(val) if val is not None else errors
        )
        return self

    def anomaly_score(
        self, x: np.ndarray, *, present: np.ndarray | None = None
    ) -> np.ndarray:
        """Reconstruction mean-absolute-error per sample.

        *present* (mixed-schema fleets) restricts each row's mean to its
        observed feature columns; see :meth:`VAE.reconstruction_error`.
        A row scores the same bits alone as inside any batch, so callers
        may score windows one at a time or a whole micro-batch at once.
        """
        check_fitted(self, ["vae_"])
        x = self._check_input(x)
        with get_instrumentation().stage("score", items=x.shape[0]):
            return self.vae_._reconstruction_error(x, present)

    def predict(
        self, x: np.ndarray, *, present: np.ndarray | None = None
    ) -> np.ndarray:
        check_fitted(self, ["threshold_"])
        return (self.anomaly_score(x, present=present) > self.threshold_).astype(np.int64)

    def calibrate_threshold(
        self, scores_or_x: np.ndarray, labels: np.ndarray, *, step: float = 0.001
    ) -> float:
        """Re-set the threshold by the paper's F1 sweep on a labeled set.

        Accepts either precomputed scores (1-D) or feature rows (2-D).
        Returns the selected threshold.
        """
        check_fitted(self, ["vae_"])
        arr = np.asarray(scores_or_x, dtype=np.float64)
        scores = self.anomaly_score(arr) if arr.ndim == 2 else arr
        hi = max(float(scores.max()) * 1.05, 1.0)
        thr, _ = f1_sweep_threshold(scores, labels, lo=0.0, hi=hi, step=step)
        self.threshold_ = thr
        return thr

    # -- persistence ---------------------------------------------------------

    def get_state(self) -> tuple[dict[str, np.ndarray], dict]:
        """(weights, config) pair for the deployment artifact store."""
        check_fitted(self, ["vae_", "threshold_"])
        config = {
            "input_dim": self.vae_.input_dim,
            "hidden_dims": list(self.hidden_dims),
            "latent_dim": self.latent_dim,
            "beta": self.beta,
            "threshold": self.threshold_,
            "threshold_percentile": self.threshold_percentile,
        }
        return dict(self.vae_.named_params()), config

    @classmethod
    def from_state(
        cls, weights: dict[str, np.ndarray], config: dict, *, seed=None
    ) -> "ProdigyDetector":
        """Reconstruct a trained detector from persisted artifacts."""
        det = cls(
            hidden_dims=tuple(config["hidden_dims"]),
            latent_dim=int(config["latent_dim"]),
            beta=float(config["beta"]),
            threshold_percentile=float(config["threshold_percentile"]),
            seed=seed,
        )
        det.vae_ = VAE(
            input_dim=int(config["input_dim"]),
            hidden_dims=tuple(config["hidden_dims"]),
            latent_dim=int(config["latent_dim"]),
            beta=float(config["beta"]),
            seed=seed,
        )
        det.vae_.load_params(weights)
        det.threshold_ = float(config["threshold"])
        return det
