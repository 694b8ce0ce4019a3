"""The selected-feature plan: only the selected cells, batch kernels.

Every fitted transform computes only the cells the fitted Chi-square
selection keeps, not the full calculator set: ``DataPipeline``'s
transforms and, through them, the streaming engine.  A
:class:`RollingPlan` resolves every selected ``metric|feature`` name
against one metric schema once, and :meth:`RollingPlan.evaluate` turns
series of that schema and one length after resampling into their raw
selected features: it takes each series' selected columns — re-gridded
with :func:`~repro.telemetry.frame.resample_uniform`, the arithmetic of
the :meth:`NodeSeries.resample` that ``FeatureExtractor.stack`` applies,
when the extractor resamples; that interpolates column by column, so
selecting first changes nothing — stacks them into one block (one row per
series and column), runs each calculator the cells need once — the batch
kernels the extractor uses — on a :class:`MetricBlockContext` over only
the rows its cells read, and gathers the cells out of the concatenated
outputs.  Calculators are row-wise, so a row's output does not depend on
which other rows share its context.

Each cell equals full extraction of the same series, NaN quirks included,
with one exception: ``linear_trend``, ``benford_correlation`` and
``fft_aggregated`` reduce a row with a float ``matrix @ vector``, which
BLAS may sum differently depending on how many rows share the block, so
their cells can move by a few ULPs when series are grouped or stacked
differently (DESIGN.md "Streaming engine").

A plan holds no per-node or per-series state; features are a pure
function of the series passed in.
"""

from __future__ import annotations

import numpy as np

from repro.features.calculators import Calculator, finite_features
from repro.features.context import MetricBlockContext
from repro.features.extraction import FeatureExtractor
from repro.telemetry.frame import NodeSeries, resample_uniform

__all__ = ["RollingPlan"]


class RollingPlan:
    """Selected-feature layout resolved once per (selection, metric schema).

    Maps every fitted ``metric|feature`` name onto the schema's metric
    column and owning calculator.  Nodes sharing a metric schema share one
    plan, and one :meth:`evaluate` call serves all of their series.  A
    schema lacking a metric the extractor pins, or a selected feature no
    calculator of the extractor produces, raises full extraction's
    ``KeyError`` here, before any series is scored.
    """

    def __init__(
        self,
        extractor: FeatureExtractor,
        selected: tuple[str, ...],
        metric_names: tuple[str, ...],
    ):
        self.metric_names = tuple(metric_names)
        self.selected = tuple(selected)
        self.resample_points = extractor.resample_points
        metric_pos = {m: i for i, m in enumerate(self.metric_names)}
        missing = [m for m in extractor.metrics or () if m not in metric_pos]
        if missing:  # the error batch extraction's select_metrics raises
            raise KeyError(f"unknown metric {missing[0]!r}")
        allowed = set(extractor.metrics) if extractor.metrics is not None else None

        feature_map: dict[str, tuple[Calculator, int]] = {}
        for calc in extractor.calculators:
            for col, out in enumerate(calc.output_names):
                feature_map[out] = (calc, col)

        #: selected cells the schema has; absent ones stay 0, like batch
        self.present = np.zeros(len(self.selected), dtype=bool)
        cells: list[tuple[int, int, Calculator, int]] = []
        for j, name in enumerate(self.selected):
            metric, _, feature = name.rpartition("|")
            entry = feature_map.get(feature)
            if entry is None:
                raise KeyError(
                    f"selected feature {name!r} missing from extraction layout; "
                    "extractor configuration must match the fitted pipeline"
                )
            idx = metric_pos.get(metric)
            if idx is None or (allowed is not None and metric not in allowed):
                continue  # absent cell: stays 0 with a False mask, like batch
            calc, col = entry
            self.present[j] = True
            cells.append((j, idx, calc, col))

        #: schema columns the block reads, ascending; a window's block row
        #: ``r`` is column ``columns[r]``
        self.columns = np.array(sorted({metric for _, metric, _, _ in cells}), dtype=np.intp)
        #: schema columns a series must carry for this plan: the block's
        #: and every metric the extractor pins, ascending.  Series of only
        #: these columns get the same features from their own plan.
        self.input_columns = np.array(
            sorted({*self.columns.tolist(), *(metric_pos[m] for m in extractor.metrics or ())}),
            dtype=np.intp,
        )
        row_of = {int(m): r for r, m in enumerate(self.columns)}
        #: each calculator the cells need, once
        self.calcs: list[Calculator] = []
        rows_of: dict[int, set[int]] = {}
        for _, m, calc, _ in cells:
            if id(calc) not in rows_of:
                rows_of[id(calc)] = set()
                self.calcs.append(calc)
            rows_of[id(calc)].add(row_of[m])
        # One pass per distinct row subset: its calculators share one
        # context over those rows of every window (None: all of them).
        passes: dict[tuple[int, ...], list[Calculator]] = {}
        for calc in self.calcs:
            passes.setdefault(tuple(sorted(rows_of[id(calc)])), []).append(calc)
        self._passes = [
            (None if len(rows) == len(self.columns) else np.array(rows, dtype=np.intp), calcs)
            for rows, calcs in passes.items()
        ]
        # A window's outputs are the passes' blocks side by side, each
        # flattened from (its rows, its calculators' concatenated columns).
        start: dict[tuple[int, int], int] = {}
        width = 0
        for rows, calcs in passes.items():
            k = sum(len(calc.output_names) for calc in calcs)
            offset = 0
            for calc in calcs:
                for i, r in enumerate(rows):
                    start[id(calc), r] = width + i * k + offset
                offset += len(calc.output_names)
            width += len(rows) * k
        #: position of every present cell, in selected order, in one
        #: window's flattened outputs
        self._gather = np.array(
            [start[id(calc), row_of[m]] + col for _, m, calc, col in cells],
            dtype=np.intp,
        )

    @property
    def n_selected(self) -> int:
        return len(self.selected)

    def _rows(self, windows: list[NodeSeries]) -> np.ndarray:
        """Context rows ``(W * C, T)``: every window's plan columns, in
        window order, re-gridded like batch.

        Windows on one time grid (CoMTE's candidates share their sample's)
        are re-gridded in one call: the interpolation runs column by
        column, so the rows are the bits one call per window gives.
        """
        columns = [w.values[:, self.columns] for w in windows]
        if self.resample_points is None:
            return np.concatenate([c.T for c in columns])
        ts = windows[0].timestamps
        if all(w.timestamps is ts for w in windows):
            _, out = resample_uniform(ts, np.concatenate(columns, axis=1), self.resample_points)
            return np.ascontiguousarray(out.T)
        return np.concatenate([
            resample_uniform(w.timestamps, c, self.resample_points)[1].T
            for w, c in zip(windows, columns)
        ])

    def evaluate(self, windows: list[NodeSeries]) -> tuple[np.ndarray, np.ndarray]:
        """Raw selected features ``(W, F)`` of *windows* plus the presence mask.

        *windows* share this plan's schema and one length after
        resampling.  Each calculator in :attr:`calcs` runs exactly once, on
        one context over the rows its cells read in every window.
        """
        n = len(windows)
        if not self.calcs:
            return np.zeros((n, self.n_selected)), self.present
        rows = self._rows(windows)
        t = rows.shape[1]
        blocks = []
        for subset, calcs in self._passes:
            part = rows if subset is None else rows.reshape(n, -1, t)[:, subset].reshape(-1, t)
            ctx = MetricBlockContext(part)
            out = np.concatenate([calc.raw(ctx) for calc in calcs], axis=1)
            blocks.append(out.reshape(n, -1))
        raw = np.zeros((n, self.n_selected))
        raw[:, self.present] = finite_features(np.concatenate(blocks, axis=1)[:, self._gather])
        return raw, self.present
