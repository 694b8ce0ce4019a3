"""Distribution-drift monitoring for deployed detectors.

The paper's deployment assumes the trained detector stays valid, but
production telemetry shifts as applications, system software, and firmware
change (its Sec. 7; Borghesi et al.'s online-operation argument in
PAPERS.md).  This module watches the *live* anomaly-score distribution and
a handful of selected-feature distributions against a training-time
:class:`ReferenceProfile`, using two complementary statistics:

* the two-sample **Kolmogorov–Smirnov** statistic — sensitive to any shape
  change, scale-free;
* the **Population Stability Index** over reference-quantile bins — the
  standard model-monitoring measure, robust on small windows.

Windows are tumbling (``window_size`` observations each); the first
``warmup_windows`` windows never fire (streaming windows are noisier than
the run-level training distribution), and a breach must persist for
``debounce`` consecutive windows before a :class:`DriftEvent` is emitted —
the same flap suppression the streaming detector applies to alerts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.runtime.instrumentation import Instrumentation, get_instrumentation

__all__ = ["DriftEvent", "ReferenceProfile", "DriftMonitor", "ks_statistic", "psi"]

#: Cap on PSI quantile bins; small windows use fewer (see DriftMonitor).
_PSI_BINS = 10


def ks_statistic(reference: np.ndarray, sample: np.ndarray) -> float:
    """Two-sample Kolmogorov–Smirnov statistic ``sup |F_ref - F_sample|``."""
    reference = np.sort(np.asarray(reference, dtype=np.float64))
    sample = np.sort(np.asarray(sample, dtype=np.float64))
    if reference.size == 0 or sample.size == 0:
        return 0.0
    grid = np.concatenate([reference, sample])
    cdf_ref = np.searchsorted(reference, grid, side="right") / reference.size
    cdf_smp = np.searchsorted(sample, grid, side="right") / sample.size
    return float(np.abs(cdf_ref - cdf_smp).max())


def _bin_counts(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.histogram(values, bins=edges)[0]`` for edges running -inf..+inf.

    One ``searchsorted`` over the interior edges and one ``bincount``,
    with ``np.histogram``'s rules: bins are closed on the left, the last
    also on the right (+inf lands there), and NaN is not counted.
    """
    inner = edges[1:-1]
    idx = np.searchsorted(inner, values, side="right")
    idx[np.isnan(values)] = inner.size + 1  # NaN sorts past every edge
    return np.bincount(idx, minlength=inner.size + 2)[: inner.size + 1]


def psi(expected: np.ndarray, edges: np.ndarray, sample: np.ndarray) -> float:
    """Population Stability Index of *sample* against reference proportions.

    ``expected`` are the reference bin proportions for ``edges`` (outer
    edges are +-inf so every observation lands in a bin).  Proportions are
    floored to avoid log blow-ups on empty bins.
    """
    sample = np.asarray(sample, dtype=np.float64)
    if sample.size == 0:
        return 0.0
    actual = _bin_counts(edges, sample) / sample.size
    floor = 1.0 / (_PSI_BINS * 100)
    e = np.maximum(np.asarray(expected, dtype=np.float64), floor)
    a = np.maximum(actual, floor)
    return float(((a - e) * np.log(a / e)).sum())


def _quantile_bins(values: np.ndarray, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """(edges, proportions) for PSI: equal-mass bins from reference quantiles."""
    qs = np.quantile(values, np.linspace(0.0, 1.0, n_bins + 1))
    edges = np.unique(qs[1:-1])
    edges = np.concatenate([[-np.inf], edges, [np.inf]])
    return edges, _bin_counts(edges, values) / max(values.size, 1)


@dataclass(frozen=True)
class DriftEvent:
    """One confirmed distribution shift.

    ``source`` is ``"score"`` for the anomaly-score stream or the feature
    name for a watched selected-feature column.
    """

    source: str
    statistic: str  # "ks" | "psi"
    value: float
    threshold: float
    window_index: int
    window_size: int


class ReferenceProfile:
    """Training-time distributions the monitors compare live windows against.

    Parameters
    ----------
    scores:
        Anomaly scores of the (healthy) training samples.
    features:
        Optional ``(N, F)`` transformed training feature matrix.
    feature_names:
        Length-``F`` names matching *features* columns.
    watch_features:
        How many feature columns to monitor online (picked by variance —
        high-variance features are where covariate shift shows first).
    max_reference:
        Cap on stored reference observations per distribution.
    """

    def __init__(
        self,
        scores: np.ndarray,
        features: np.ndarray | None = None,
        feature_names: Sequence[str] = (),
        *,
        watch_features: int = 8,
        max_reference: int = 2048,
    ):
        scores = np.asarray(scores, dtype=np.float64).ravel()
        if scores.size == 0:
            raise ValueError("reference profile needs at least one score")
        self.scores = _subsample(scores, max_reference)
        #: watched feature columns as (name, column index, reference sample)
        self.watched: list[tuple[str, int, np.ndarray]] = []
        if features is not None and len(feature_names):
            features = np.asarray(features, dtype=np.float64)
            var = features.var(axis=0)
            k = min(int(watch_features), features.shape[1])
            cols = np.sort(np.lexsort((np.arange(var.size), -var))[:k])
            for col in cols:
                ref = _subsample(features[:, col], max_reference)
                self.watched.append((str(feature_names[col]), int(col), ref))

    @classmethod
    def from_training(
        cls,
        scores: np.ndarray,
        features: np.ndarray | None = None,
        feature_names: Sequence[str] = (),
        **kwargs,
    ) -> "ReferenceProfile":
        return cls(scores, features, feature_names, **kwargs)

    # -- persistence (the ModelTrainer's "reference" artifact group) ----------

    def to_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {
            "scores": self.scores,
            "watched_names": np.array([w[0] for w in self.watched], dtype=str),
            "watched_cols": np.array([w[1] for w in self.watched], dtype=np.int64),
        }
        for name, col, ref in self.watched:
            out[f"feature_{col}"] = ref
        return out

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "ReferenceProfile":
        """Rebuild from a persisted ``reference`` artifact group."""
        profile = cls(arrays["scores"])
        names = [str(n) for n in arrays.get("watched_names", [])]
        cols = [int(c) for c in arrays.get("watched_cols", [])]
        for name, col in zip(names, cols):
            ref = np.asarray(arrays[f"feature_{col}"], dtype=np.float64)
            profile.watched.append((name, col, ref))
        return profile


def _subsample(values: np.ndarray, cap: int) -> np.ndarray:
    if values.size <= cap:
        return values.copy()
    idx = np.linspace(0, values.size - 1, cap).round().astype(np.int64)
    return values[np.unique(idx)]


class DriftMonitor:
    """Windowed KS/PSI drift detection with warmup and debounce.

    Feed one observation per evaluated streaming window (or per scored
    sample) via :meth:`observe`; a non-empty return is a confirmed drift
    episode.  Events fire exactly once per episode: when the breach streak
    reaches ``debounce``; a quiet window ends the episode and re-arms.

    Parameters
    ----------
    profile:
        Training-time reference distributions.
    window_size:
        Observations per tumbling evaluation window.
    warmup_windows:
        Evaluated windows ignored before monitoring starts.
    debounce:
        Consecutive breaching windows required before events are emitted.
    ks_threshold, psi_threshold:
        Base breach levels (PSI 0.25 is the conventional "significant
        shift" level).  Both are corrected upward for small windows at
        construction — the null KS statistic scales like
        ``sqrt(1/window + 1/reference)`` and the null PSI mean like
        ``(bins - 1)/window`` — so the configured level expresses the
        *excess* shift beyond finite-sample noise.
    """

    def __init__(
        self,
        profile: ReferenceProfile,
        *,
        window_size: int = 32,
        warmup_windows: int = 2,
        debounce: int = 2,
        ks_threshold: float = 0.35,
        psi_threshold: float = 0.25,
        instrumentation: Instrumentation | None = None,
    ):
        if window_size < 4:
            raise ValueError("window_size must be >= 4")
        if warmup_windows < 0:
            raise ValueError("warmup_windows must be >= 0")
        if debounce < 1:
            raise ValueError("debounce must be >= 1")
        self.profile = profile
        self.window_size = int(window_size)
        self.warmup_windows = int(warmup_windows)
        self.debounce = int(debounce)
        self.instrumentation = instrumentation or get_instrumentation()
        # PSI bin count adapts to the window: equal-mass bins need several
        # observations each or the null PSI ~ (bins-1)/n swamps the signal.
        self.n_bins = int(np.clip(self.window_size // 8, 4, _PSI_BINS))
        ks_null = 1.63 * float(
            np.sqrt(1.0 / self.window_size + 1.0 / profile.scores.size)
        )
        self.ks_threshold = max(float(ks_threshold), ks_null)
        psi_null = (self.n_bins - 1) / self.window_size
        self.psi_threshold = float(psi_threshold) + 2.0 * psi_null
        self._score_bins = _quantile_bins(profile.scores, self.n_bins)
        self._feature_bins = {
            col: _quantile_bins(ref, self.n_bins) for _, col, ref in profile.watched
        }
        self._scores: list[float] = []
        self._rows: list[np.ndarray] = []
        self.windows_evaluated = 0
        self.streak = 0
        self.events: list[DriftEvent] = []
        self.last_stats: dict[str, float] = {}

    def observe(self, score: float, feature_row: np.ndarray | None = None) -> list[DriftEvent]:
        """Add one observation; returns confirmed events when a window closes."""
        self._scores.append(float(score))
        if feature_row is not None and self.profile.watched:
            self._rows.append(np.asarray(feature_row, dtype=np.float64).ravel())
        if len(self._scores) < self.window_size:
            return []
        with self.instrumentation.stage("drift", items=self.window_size):
            return self._evaluate_window()

    def _evaluate_window(self) -> list[DriftEvent]:
        scores = np.asarray(self._scores)
        rows = np.vstack(self._rows) if self._rows else None
        self._scores.clear()
        self._rows.clear()
        self.windows_evaluated += 1
        self.instrumentation.count("drift_windows", 1)

        breaches: list[DriftEvent] = []
        idx = self.windows_evaluated
        stats: dict[str, float] = {}
        ks = ks_statistic(self.profile.scores, scores)
        score_edges, score_props = self._score_bins
        p = psi(score_props, score_edges, scores)
        stats["score_ks"], stats["score_psi"] = ks, p
        if ks > self.ks_threshold:
            breaches.append(DriftEvent("score", "ks", ks, self.ks_threshold, idx, self.window_size))
        if p > self.psi_threshold:
            breaches.append(DriftEvent("score", "psi", p, self.psi_threshold, idx, self.window_size))
        if rows is not None and rows.shape[0] == scores.size:
            for name, col, ref in self.profile.watched:
                if col >= rows.shape[1]:
                    continue
                edges, props = self._feature_bins[col]
                fp = psi(props, edges, rows[:, col])
                stats[f"{name}_psi"] = fp
                if fp > self.psi_threshold:
                    breaches.append(
                        DriftEvent(name, "psi", fp, self.psi_threshold, idx, self.window_size)
                    )
        self.last_stats = stats

        if self.windows_evaluated <= self.warmup_windows:
            return []
        if not breaches:
            self.streak = 0
            return []
        self.streak += 1
        if self.streak != self.debounce:
            return []  # not yet confirmed, or already reported this episode
        self.events.extend(breaches)
        self.instrumentation.count("drift_events", len(breaches))
        return breaches

    def summary(self) -> dict:
        """JSON-ready monitor state for dashboards and the CLI."""
        return {
            "window_size": self.window_size,
            "windows_evaluated": self.windows_evaluated,
            "warmup_windows": self.warmup_windows,
            "debounce": self.debounce,
            "streak": self.streak,
            "events": len(self.events),
            "watched_features": [w[0] for w in self.profile.watched],
            "last_stats": dict(self.last_stats),
        }
