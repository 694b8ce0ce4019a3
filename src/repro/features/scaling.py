"""Min-max feature scaling (the paper's Scaler module, Fig. 3).

The scaler is fitted on the training split only and persisted with the
model so online inference applies the identical transform.  Min-max is the
paper's scaler: it makes features non-negative for the Chi-square stage and
bounds the VAE reconstruction target.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_fitted, check_matrix

__all__ = ["MinMaxScaler"]


class MinMaxScaler:
    """Scale each feature to [0, 1] by its training min/max.

    Test values outside the training range are clipped (an unseen extreme
    value would otherwise leave the VAE's sigmoid output range and dominate
    the reconstruction error for the wrong reason).
    """

    def __init__(self, *, clip: bool = True):
        self.clip = clip
        self.min_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, x: np.ndarray, *, present: np.ndarray | None = None) -> "MinMaxScaler":
        """Fit per-column min/max, optionally over a presence mask.

        With *present* (mixed-schema feature tables), each column's range
        comes from its observed cells only; a column no row observes maps
        to 0.  A dense mask fits identically to the unmasked path.
        """
        x = check_matrix(x, name="X")
        if present is None:
            self.min_ = x.min(axis=0)
            rng = x.max(axis=0) - self.min_
        else:
            p = np.asarray(present, dtype=bool)
            if p.shape != x.shape:
                raise ValueError(f"present mask shape {p.shape} != X shape {x.shape}")
            any_obs = p.any(axis=0)
            self.min_ = np.where(any_obs, np.where(p, x, np.inf).min(axis=0), 0.0)
            rng = np.where(any_obs, np.where(p, x, -np.inf).max(axis=0), 0.0) - self.min_
        # Subnormal ranges overflow 1/rng to inf (0 * inf = NaN downstream);
        # treat them as constant columns like an exact zero range.
        rng[rng < np.finfo(np.float64).tiny] = 1.0  # constant features map to 0
        self.scale_ = 1.0 / rng
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, ["min_", "scale_"])
        x = check_matrix(x, name="X")
        if x.shape[1] != self.min_.shape[0]:
            raise ValueError(
                f"X has {x.shape[1]} features, scaler fitted on {self.min_.shape[0]}"
            )
        out = (x - self.min_) * self.scale_
        if self.clip:
            np.clip(out, 0.0, 1.0, out=out)
        return out

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

    def state(self) -> dict[str, np.ndarray]:
        """Arrays needed to reconstruct the fitted scaler."""
        check_fitted(self, ["min_", "scale_"])
        return {"min": self.min_, "scale": self.scale_, "clip": np.array([self.clip])}

    @classmethod
    def from_state(cls, state: dict[str, np.ndarray]) -> "MinMaxScaler":
        obj = cls(clip=bool(state["clip"][0]))
        obj.min_ = np.asarray(state["min"], dtype=np.float64)
        obj.scale_ = np.asarray(state["scale"], dtype=np.float64)
        return obj
