"""Batched statistical feature extraction from node telemetry.

Implements the paper's feature-extraction stage (Sec. 3.1): each node run's
``Time x M metrics`` series becomes one ``1 x N features`` sample.  The
extractor stacks all runs of a dataset into one ``(N, T)`` batch per metric,
stacks a few whole metric batches into one context, and applies every
calculator once per context — a few thousand vectorised NumPy calls instead
of hundreds of millions of scalar ones.

Runs of unequal length are linearly resampled onto a common grid first
(controlled by ``resample_points``); the paper's runs are 20-45 min and
edge-trimmed, so a fixed grid preserves the phase structure the features
measure.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.features.alignment import FeatureTable, align_feature_groups
from repro.features.calculators import Calculator, calculator_names, default_calculators
from repro.features.context import MetricBlockContext
from repro.telemetry.frame import NodeSeries
from repro.telemetry.sampleset import SampleSet

__all__ = [
    "FeatureExtractor",
    "calculator_offsets",
    "compute_block",
    "compute_slab_group",
    "slab_groups",
    "validate_aligned",
]

#: Cells (series x time steps) stacked into one :class:`MetricBlockContext`.
#: Whole metric slabs share a context up to this budget, so perfbench's
#: 96 x 240 slabs pair up.  Stacking cuts the Python calls per cell; a
#: small budget keeps each context's derived arrays small, and with them
#: the threaded engine's peak memory.
_GROUP_CELLS = 48 * 1024


def calculator_offsets(calculators: Sequence[Calculator]) -> tuple[tuple[int, int], ...]:
    """Per-calculator ``(column_offset, width)`` within one metric's F columns."""
    offsets = []
    col = 0
    for calc in calculators:
        width = len(calc.output_names)
        offsets.append((col, width))
        col += width
    return tuple(offsets)


def slab_groups(shape: tuple[int, int, int]) -> list[tuple[int, int]]:
    """Metric ranges ``[lo, hi)`` whose slabs share one context.

    Each group holds at least one whole slab and at most
    :data:`_GROUP_CELLS` cells.  The grouping depends only on the
    ``(N, T, K)`` block shape, so every full extraction, serial or
    threaded, stacks the same rows.
    """
    n, t, k = shape
    per = max(1, _GROUP_CELLS // max(1, n * t))
    return [(lo, min(lo + per, k)) for lo in range(0, k, per)]


def compute_slab_group(
    calculators: Sequence[Calculator],
    block: np.ndarray,
    lo: int,
    hi: int,
    out: np.ndarray,
) -> None:
    """Fill metrics ``lo..hi`` of *out* ``(N, K, F)`` from an ``(N, T, K)`` block.

    The group's slabs are stacked metric-major into one ``(g*N, T)``
    context, so every calculator runs once per group and shares its
    memoised intermediates (moments, diffs, sorts, FFT, pairwise window
    distances).  Calculators are row-wise, so a row's features do not
    depend on the rows stacked beside it — except the few ULPs a BLAS
    ``matrix @ vector`` may move with block height (``linear_trend``,
    ``benford_correlation``, ``fft_aggregated``).
    """
    n, t, _ = block.shape
    g = hi - lo
    ctx = MetricBlockContext(block[:, :, lo:hi].transpose(2, 0, 1).reshape(g * n, t))
    col = 0
    for calc in calculators:
        vals = calc(ctx)
        width = vals.shape[1]
        out[:, lo:hi, col : col + width] = vals.reshape(g, n, width).transpose(1, 0, 2)
        col += width


def compute_block(calculators: Sequence[Calculator], block: np.ndarray) -> np.ndarray:
    """Apply *calculators* to an ``(N, T, K)`` metric block -> ``(N, K*F)``.

    Output is metric-major: metric ``m``'s ``F`` columns start at ``m*F``.
    Slabs are computed in the groups of :func:`slab_groups`; the runtime
    engine runs the same groups on several threads.
    """
    n, _, k = block.shape
    out = np.empty((n, k, sum(len(c.output_names) for c in calculators)))
    for lo, hi in slab_groups(block.shape):
        compute_slab_group(calculators, block, lo, hi, out)
    return out.reshape(n, -1)


def validate_aligned(n_series: int, **named: Sequence | np.ndarray | None) -> None:
    """Require every non-None metadata sequence to have *n_series* entries."""
    for name, value in named.items():
        if value is None:
            continue
        length = len(value)
        if length != n_series:
            raise ValueError(
                f"{name} has {length} entries but there are {n_series} series"
            )


class FeatureExtractor:
    """Turns node series into feature samples.

    Parameters
    ----------
    calculators:
        Feature calculators to apply per metric; defaults to the efficient
        set of :func:`~repro.features.calculators.default_calculators`.
    resample_points:
        Common series length T.  ``None`` requires all inputs to already
        share one length.
    metrics:
        Restrict extraction to this metric subset (default: all metrics of
        the first series).
    """

    def __init__(
        self,
        calculators: Sequence[Calculator] | None = None,
        *,
        resample_points: int | None = 128,
        metrics: Sequence[str] | None = None,
    ):
        self.calculators = list(calculators) if calculators is not None else default_calculators()
        if not self.calculators:
            raise ValueError("need at least one calculator")
        self.per_metric_names = calculator_names(self.calculators)
        self.resample_points = resample_points
        self.metrics = tuple(metrics) if metrics is not None else None
        # Layout cache: every full extraction (fit, the full-extraction
        # oracle per group, the runtime engine) names its K*F columns, and
        # rebuilding that tuple (thousands of string formats) per call can
        # dwarf the NumPy work of a small batch.
        self._names_cache: dict[tuple[str, ...], tuple[str, ...]] = {}

    # -- names -----------------------------------------------------------------

    def feature_names(self, metric_names: Sequence[str]) -> tuple[str, ...]:
        """Full feature-name layout for *metric_names* (metric-major order).

        Memoised per metric-name tuple; repeated extractions over one
        schema hit the cache after the first.
        """
        key = tuple(metric_names)
        names = self._names_cache.get(key)
        if names is None:
            names = tuple(f"{m}|{f}" for m in key for f in self.per_metric_names)
            self._names_cache[key] = names
        return names

    @property
    def n_features_per_metric(self) -> int:
        return len(self.per_metric_names)

    # -- extraction --------------------------------------------------------------

    def stack(self, series: Sequence[NodeSeries]) -> tuple[np.ndarray, tuple[str, ...]]:
        """Resample and stack runs into a ``(N, T, M)`` block."""
        if not series:
            raise ValueError("need at least one NodeSeries")
        metric_names = self.metrics if self.metrics is not None else series[0].metric_names
        prepared = []
        for s in series:
            if self.metrics is not None:
                s = s.select_metrics(metric_names)
            elif s.metric_names != metric_names:
                ref, cur = set(metric_names), set(s.metric_names)
                missing = sorted(ref - cur)
                extra = sorted(cur - ref)
                parts = []
                if missing:
                    parts.append(f"missing {missing[:4]}")
                if extra:
                    parts.append(f"extra {extra[:4]}")
                detail = "; ".join(parts) if parts else "same metrics in a different order"
                raise ValueError(
                    f"series (job_id={s.job_id}, component_id={s.component_id}) "
                    f"diverges from the metric names of (job_id={series[0].job_id}, "
                    f"component_id={series[0].component_id}): {detail}; pass "
                    f"metrics=... or use extract_table() for mixed-schema fleets"
                )
            if self.resample_points is not None:
                s = s.resample(self.resample_points)
            prepared.append(s.values)
        lengths = {p.shape[0] for p in prepared}
        if len(lengths) != 1:
            raise ValueError(
                f"series have unequal lengths {sorted(lengths)}; set resample_points"
            )
        return np.stack(prepared, axis=0), tuple(metric_names)

    def extract_matrix(self, series: Sequence[NodeSeries]) -> tuple[np.ndarray, tuple[str, ...]]:
        """Extract the raw ``(N, F_total)`` feature matrix and its names."""
        block, metric_names = self.stack(series)
        return compute_block(self.calculators, block), self.feature_names(metric_names)

    def extract(
        self,
        series: Sequence[NodeSeries],
        labels: np.ndarray | Sequence[int] | None = None,
        *,
        app_names: Sequence[str] | None = None,
        anomaly_names: Sequence[str] | None = None,
    ) -> SampleSet:
        """Extract a :class:`SampleSet`, carrying run provenance along."""
        series = list(series)
        validate_aligned(
            len(series), labels=labels, app_names=app_names, anomaly_names=anomaly_names
        )
        features, names = self.extract_matrix(series)
        return self.package(
            series, features, names, labels,
            app_names=app_names, anomaly_names=anomaly_names,
        )

    def package(
        self,
        series: Sequence[NodeSeries],
        features: np.ndarray,
        names: tuple[str, ...],
        labels: np.ndarray | Sequence[int] | None = None,
        *,
        app_names: Sequence[str] | None = None,
        anomaly_names: Sequence[str] | None = None,
    ) -> SampleSet:
        """Wrap an already-extracted matrix into a provenance-carrying SampleSet."""
        return SampleSet(
            features,
            names,
            None if labels is None else np.asarray(labels),
            job_ids=np.array([s.job_id for s in series], dtype=np.int64),
            component_ids=np.array([s.component_id for s in series], dtype=np.int64),
            app_names=app_names,
            anomaly_names=anomaly_names,
        )

    def extract_single(self, series: NodeSeries) -> np.ndarray:
        """Feature row ``(1, F)`` for one run — the online-inference path."""
        features, _ = self.extract_matrix([series])
        return features

    # -- schema-partitioned extraction -------------------------------------------

    def extract_table(self, series: Sequence[NodeSeries]) -> FeatureTable:
        """Schema-partitioned extraction onto the union feature axis.

        Series are grouped by :attr:`~repro.telemetry.frame.NodeSeries.schema_digest`
        (first-appearance order), each group extracted as its own dense
        ``(N_g, T, M_g)`` batch, and the per-group matrices aligned into a
        :class:`~repro.features.alignment.FeatureTable` with an explicit
        presence mask.  A homogeneous fleet forms exactly one group, so its
        features and names are bit-identical to :meth:`extract_matrix`.
        """
        series = list(series)
        if not series:
            raise ValueError("need at least one NodeSeries")
        partitions: dict[str, list[int]] = {}
        for i, s in enumerate(series):
            partitions.setdefault(s.schema_digest, []).append(i)
        groups = []
        for rows in partitions.values():
            feats, names = self.extract_matrix([series[i] for i in rows])
            groups.append((rows, feats, names))
        return align_feature_groups(groups, len(series))

    def extract_mixed(
        self,
        series: Sequence[NodeSeries],
        labels: np.ndarray | Sequence[int] | None = None,
        *,
        app_names: Sequence[str] | None = None,
        anomaly_names: Sequence[str] | None = None,
    ) -> SampleSet:
        """Like :meth:`extract` but tolerates a mixed-schema fleet.

        The returned :class:`SampleSet` carries the presence mask; for a
        homogeneous fleet the mask is dense and the features match
        :meth:`extract` exactly.
        """
        series = list(series)
        validate_aligned(
            len(series), labels=labels, app_names=app_names, anomaly_names=anomaly_names
        )
        table = self.extract_table(series)
        return SampleSet(
            table.features,
            table.feature_names,
            None if labels is None else np.asarray(labels),
            job_ids=np.array([s.job_id for s in series], dtype=np.int64),
            component_ids=np.array([s.component_id for s in series], dtype=np.int64),
            app_names=app_names,
            anomaly_names=anomaly_names,
            present=None if table.is_dense else table.present,
        )
