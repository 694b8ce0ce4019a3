"""Feature selection (paper Sec. 3.2 / 5.4.3).

Prodigy selects the most discriminative features with the Chi-square test
between each (non-negative) feature and the class variable.  This is the
only stage that sees anomalous labels, and it needs very few of them (24-55
anomalous samples in the paper).  The selector here matches the
scikit-learn ``chi2`` contract the paper relies on: per-class feature sums
as observed counts against class-frequency-scaled totals as expected
counts.

Near-constant columns are dropped before the test, and the rest are
min-max normalised to [0, 1] internally (the Chi-square statistic requires
non-negative "frequencies"; the paper applies its scaler before selection
for the same reason).

A set without a single anomalous row — the production case, healthy runs
only — has no class to test against; the selector then keeps the
highest-variance features instead.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.telemetry.sampleset import SampleSet
from repro.util.validation import check_fitted, check_labels, check_matrix

__all__ = ["chi2_scores", "ChiSquareSelector"]

#: Columns whose variance over the labeled rows is at most this are
#: near-constant: they score 0 and are never among the Chi-square picks.
_VARIANCE_FLOOR = 1e-12


def chi2_scores(
    features: np.ndarray,
    labels: np.ndarray,
    *,
    present: np.ndarray | None = None,
) -> np.ndarray:
    """Chi-square statistic of each feature column against the labels.

    ``features`` must be non-negative; rows are samples.  Returns one score
    per column (larger = more class-dependent).  Columns with zero total
    mass score 0.

    With a boolean *present* mask (mixed-schema extraction), absent cells
    contribute no mass and the class frequencies are computed per column
    over the rows that actually observe it, so a feature only half the
    fleet produces is judged against its own population — not diluted by
    the other half's 0-fill.  A dense mask reproduces the unmasked scores
    exactly.
    """
    x = check_matrix(features, name="features")
    y = check_labels(labels, n_samples=x.shape[0])
    if np.any(x < 0):
        raise ValueError("chi2 requires non-negative features; scale first")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("chi2 needs both healthy and anomalous samples")
    if present is None:
        # observed[c, f]: total feature mass in class c.
        observed = np.stack([x[y == c].sum(axis=0) for c in classes])
        class_prob = np.array([(y == c).mean() for c in classes])
        feature_total = x.sum(axis=0)
        expected = class_prob[:, None] * feature_total[None, :]
    else:
        p = np.asarray(present, dtype=bool)
        if p.shape != x.shape:
            raise ValueError(f"present mask shape {p.shape} != features shape {x.shape}")
        xp = np.where(p, x, 0.0)
        observed = np.stack([xp[y == c].sum(axis=0) for c in classes])
        counts = np.stack([p[y == c].sum(axis=0) for c in classes]).astype(np.float64)
        total = p.sum(axis=0).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            class_prob = counts / total[None, :]
        class_prob[~np.isfinite(class_prob)] = 0.0
        feature_total = xp.sum(axis=0)
        expected = class_prob * feature_total[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (observed - expected) ** 2 / expected
    terms[~np.isfinite(terms)] = 0.0
    return terms.sum(axis=0)


def _masked_variance(
    features: np.ndarray, present: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-column variance over the observed cells, and their counts.

    A column observed nowhere has variance 0.
    """
    cnt = present.sum(axis=0).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.where(present, features, 0.0).sum(axis=0) / cnt
        mean_sq = np.where(present, features * features, 0.0).sum(axis=0) / cnt
    var = mean_sq - mean**2
    var[~np.isfinite(var)] = 0.0
    return var, cnt


class ChiSquareSelector:
    """Top-k feature selection over a :class:`SampleSet`.

    Chi-square ranking when the set has anomalous rows, variance ranking
    when it has none (see :meth:`fit`).

    The fitted selector records the chosen feature *names*, so it can be
    applied to any later SampleSet sharing the extraction layout — this is
    what the deployment metadata persists.

    Parameters
    ----------
    k:
        Number of features to keep (paper sweeps 250/500/1000/2000 and
        settles on 2000; scaled datasets use proportionally fewer).
    """

    def __init__(self, k: int = 256):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.selected_names_: tuple[str, ...] | None = None
        self.scores_: np.ndarray | None = None

    @classmethod
    def sentinel(
        cls,
        names: Sequence[str],
        scores: np.ndarray | Sequence[float],
        *,
        k: int | None = None,
    ) -> "ChiSquareSelector":
        """A fitted selector carrying predetermined names and scores.

        Used where the selection was made earlier and is only reloaded —
        :meth:`DataPipeline.from_state` rebuilds a deployment's selector
        from its persisted metadata this way.  ``scores`` must align with
        ``names``.
        """
        names = tuple(str(n) for n in names)
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (len(names),):
            raise ValueError(
                f"scores has shape {scores.shape}, expected ({len(names)},)"
            )
        selector = cls(k=len(names) if k is None else k)
        selector.selected_names_ = names
        selector.scores_ = scores
        selector._ranked = sorted(
            zip(names, (float(s) for s in scores)), key=lambda p: -p[1]
        )
        return selector

    def fit(self, samples: SampleSet) -> "ChiSquareSelector":
        """Select features on a SampleSet.

        A set with anomalous rows runs the Chi-square test over its
        labeled rows.  A set with none — unlabeled, or healthy only, the
        production case — has no class to test against, so every column
        is ranked by its variance over all rows instead; constant columns
        are kept when ``k`` exceeds the varying ones.

        Mixed-schema SampleSets (those carrying a presence mask) are scored
        mask-aware: variance, min-max normalisation and the Chi-square test
        all run over each column's observed cells only, so 0-filled absent
        cells never masquerade as measurements.
        """
        if samples.n_anomalous == 0:
            if samples.present is None:
                scores = samples.features.var(axis=0)
            else:
                scores, _ = _masked_variance(samples.features, samples.present)
            k = min(self.k, scores.size)
        else:
            scores, k = self._chi2_scores(samples)
        # Stable top-k: sort by (-score, column index).
        order = np.lexsort((np.arange(scores.size), -scores))
        top = np.sort(order[:k])
        names = np.asarray(samples.feature_names, dtype=object)
        self.selected_names_ = tuple(str(n) for n in names[top])
        self.scores_ = scores
        self._ranked = sorted(
            ((str(names[i]), float(scores[i])) for i in top), key=lambda p: -p[1]
        )
        return self

    def _chi2_scores(self, samples: SampleSet) -> tuple[np.ndarray, int]:
        """Chi-square score of every column over the labeled rows, and k.

        Near-constant columns score 0 and are never among the k kept.
        """
        labeled = samples.subset(samples.labels != -1)
        x = labeled.features
        y = labeled.labels
        if labeled.present is None:
            var_mask = x.var(axis=0) > _VARIANCE_FLOOR
            if not var_mask.any():
                raise ValueError("all features are constant; nothing to select")
            x_var = x[:, var_mask]
            # Min-max to [0,1] per column so mass is non-negative and comparable.
            mn = x_var.min(axis=0)
            rng = x_var.max(axis=0) - mn
            rng[rng == 0] = 1.0
            scores_var = chi2_scores((x_var - mn) / rng, y)
        else:
            p = labeled.present
            var, cnt = _masked_variance(x, p)
            var_mask = (var > _VARIANCE_FLOOR) & (cnt >= 2)
            if not var_mask.any():
                raise ValueError("all features are constant; nothing to select")
            x_var, p_var = x[:, var_mask], p[:, var_mask]
            mn = np.where(p_var, x_var, np.inf).min(axis=0)
            rng = np.where(p_var, x_var, -np.inf).max(axis=0) - mn
            rng[rng == 0] = 1.0
            scaled = np.where(p_var, (x_var - mn) / rng, 0.0)
            scores_var = chi2_scores(scaled, y, present=p_var)
        scores = np.zeros(x.shape[1])
        scores[var_mask] = scores_var
        return scores, min(self.k, int(var_mask.sum()))

    def transform(self, samples: SampleSet) -> SampleSet:
        check_fitted(self, ["selected_names_"])
        return samples.select_features(self.selected_names_)

    def fit_transform(self, samples: SampleSet) -> SampleSet:
        return self.fit(samples).transform(samples)

    def top_features(self, n: int = 20) -> list[tuple[str, float]]:
        """The *n* highest-scoring selected features with their Chi-square scores."""
        check_fitted(self, ["selected_names_", "scores_"])
        return self._ranked[:n]
