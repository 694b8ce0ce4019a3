"""Local Outlier Factor baseline, from scratch (paper Sec. 5.3).

LOF compares each point's local reachability density (lrd) with that of its
k nearest neighbours; points in sparser neighbourhoods than their
neighbours score > 1.  This implementation runs in novelty mode (like
scikit-learn's ``novelty=True``): the reference density field comes from
the training set, and test points are scored against it — required because
the paper evaluates on a held-out test split.

Neighbour queries use :class:`scipy.spatial.cKDTree`; in the ~2000-feature
selected space a KD-tree degenerates towards brute force, which is still
fine at these sample counts.  SciPy is imported in :meth:`fit`, where the
tree is built, so importing ``repro`` (every deployment process does)
loads no SciPy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.models.base import ThresholdDetector
from repro.util.validation import check_fitted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from scipy.spatial import cKDTree

__all__ = ["LocalOutlierFactor"]


class LocalOutlierFactor(ThresholdDetector):
    """k-NN density-ratio anomaly detector with contamination thresholding."""

    name = "lof"

    def __init__(self, n_neighbors: int = 20, *, contamination: float = 0.10):
        super().__init__()
        if n_neighbors < 1:
            raise ValueError("n_neighbors must be >= 1")
        if not 0.0 < contamination < 0.5:
            raise ValueError("contamination must be in (0, 0.5)")
        self.n_neighbors = int(n_neighbors)
        self.contamination = float(contamination)
        self._tree: cKDTree | None = None
        self._train_x: np.ndarray | None = None
        self._train_lrd: np.ndarray | None = None
        self._k_distance: np.ndarray | None = None

    # -- internals -------------------------------------------------------------

    def _neighbors_of_train(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(distances, indices) of the k nearest *other* training points."""
        dist, idx = self._tree.query(self._train_x, k=k + 1)
        return dist[:, 1:], idx[:, 1:]  # drop self-match

    @property
    def _k(self) -> int:
        return getattr(self, "n_neighbors_", self.n_neighbors)

    @staticmethod
    def _lrd(dist: np.ndarray, k_dist_of_neighbors: np.ndarray) -> np.ndarray:
        """Local reachability density from reach-dist_k."""
        reach = np.maximum(dist, k_dist_of_neighbors)
        mean_reach = reach.mean(axis=1)
        # Duplicated points give zero reach distance -> infinite density;
        # cap like scikit-learn does via a small epsilon.
        return 1.0 / np.maximum(mean_reach, 1e-10)

    # -- API ----------------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray | None = None) -> "LocalOutlierFactor":
        """Build the reference density field; ``y`` unused (contaminated fit).

        ``n_neighbors`` is clamped to ``n_samples - 1`` on small training
        sets (scikit-learn behaviour), so the requested value acts as an
        upper bound.
        """
        from scipy.spatial import cKDTree

        x = self._check_input(x)
        if x.shape[0] < 3:
            raise ValueError(f"need at least 3 training samples, got {x.shape[0]}")
        self.n_neighbors_ = min(self.n_neighbors, x.shape[0] - 1)
        self._train_x = x
        self._tree = cKDTree(x)
        dist, idx = self._neighbors_of_train(self._k)
        self._k_distance = dist[:, -1]
        self._train_lrd = self._lrd(dist, self._k_distance[idx])
        scores = self.anomaly_score(x, _self_exclude=True)
        self.threshold_ = float(np.quantile(scores, 1.0 - self.contamination))
        return self

    def anomaly_score(self, x: np.ndarray, *, _self_exclude: bool = False) -> np.ndarray:
        """LOF value: ratio of neighbour density to own density (>1 = outlier)."""
        check_fitted(self, ["_tree", "_train_lrd"])
        x = self._check_input(x)
        if _self_exclude:
            dist, idx = self._neighbors_of_train(self._k)
        else:
            dist, idx = self._tree.query(x, k=self._k)
            if self._k == 1:
                dist, idx = dist[:, None], idx[:, None]
        lrd_x = self._lrd(dist, self._k_distance[idx])
        return self._train_lrd[idx].mean(axis=1) / np.maximum(lrd_x, 1e-10)
