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

This module is the serial kernel.  Samples come from the runtime engine,
:meth:`~repro.runtime.parallel.ParallelExtractor.extract`, which runs these
kernels on threads behind a feature cache and takes mixed-schema fleets.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.features.calculators import Calculator, calculator_names, default_calculators
from repro.features.context import MetricBlockContext
from repro.telemetry.frame import NodeSeries

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

    def metric_layout(self, series: Sequence[NodeSeries]) -> tuple[str, ...]:
        """The metric names a batch of *series* extracts, after the layout check.

        A pinned subset (``metrics=...``) is the layout.  Otherwise every
        series must carry the first one's metric names in the same order;
        the error names the first node that diverges and its column delta.
        Stacking and the runtime engine (before its cache lookup) both
        check here, so cached rows never mix layouts.
        """
        if not series:
            raise ValueError("need at least one NodeSeries")
        if self.metrics is not None:
            return self.metrics
        metric_names = series[0].metric_names
        for s in series:
            if s.metric_names == metric_names:
                continue
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
                f"metrics=... or use ParallelExtractor.extract() for mixed-schema fleets"
            )
        return tuple(metric_names)

    def stack(self, series: Sequence[NodeSeries]) -> tuple[np.ndarray, tuple[str, ...]]:
        """Resample and stack runs into a ``(N, T, M)`` block."""
        metric_names = self.metric_layout(series)
        prepared = []
        for s in series:
            if self.metrics is not None:
                s = s.select_metrics(metric_names)
            if self.resample_points is not None:
                s = s.resample(self.resample_points)
            prepared.append(s.values)
        lengths = {p.shape[0] for p in prepared}
        if len(lengths) != 1:
            raise ValueError(
                f"series have unequal lengths {sorted(lengths)}; set resample_points"
            )
        return np.stack(prepared, axis=0), metric_names

    def extract_matrix(self, series: Sequence[NodeSeries]) -> tuple[np.ndarray, tuple[str, ...]]:
        """Extract the raw ``(N, F_total)`` feature matrix and its names.

        Serial and cache-free: the kernel entry that the plan's oracle
        (:meth:`~repro.pipeline.datapipeline.DataPipeline.transform_series_full`)
        and the parity checks run.  Samples come from
        :meth:`~repro.runtime.parallel.ParallelExtractor.extract`.
        """
        block, metric_names = self.stack(series)
        return compute_block(self.calculators, block), self.feature_names(metric_names)
