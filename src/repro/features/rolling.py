"""Rolling-mode feature evaluation: only the selected cells, batch kernels.

The online feature path computes only the cells the fitted Chi-square
selection keeps, not the full calculator set.  A :class:`RollingPlan`
resolves every selected ``metric|feature`` name against one metric schema
once, and :meth:`RollingPlan.evaluate` turns the due windows of that
schema into their raw selected features: it takes each window's selected
columns — re-gridded with :meth:`NodeSeries.resample`, as
``FeatureExtractor.stack`` does, when the extractor resamples; that
interpolates column by column, so selecting first changes nothing —
stacks them into one :class:`MetricBlockContext` (one row per window and
column), runs each calculator the cells need once on it — the batch
kernels the extractor uses — and gathers the cells out of the
concatenated outputs.

Each cell equals batch mode's extraction of the same window, NaN quirks
included, with one exception: ``linear_trend``, ``benford_correlation``
and ``fft_aggregated`` reduce a row with a float ``matrix @ vector``,
which BLAS may sum differently depending on how many rows share the
block, so their cells can move by a few ULPs when windows are grouped or
stacked differently (DESIGN.md "Streaming engine").

A plan holds no per-node or per-window state; features are a pure
function of the windows passed in.
"""

from __future__ import annotations

import numpy as np

from repro.features.calculators import Calculator
from repro.features.context import MetricBlockContext
from repro.features.extraction import FeatureExtractor
from repro.telemetry.frame import NodeSeries

__all__ = ["RollingPlan"]


class RollingPlan:
    """Selected-feature layout resolved once per (pipeline, metric schema).

    Maps every fitted ``metric|feature`` name onto the schema's metric
    column and owning calculator.  Nodes sharing a metric schema share one
    plan, and one :meth:`evaluate` call serves all of their due windows.
    A schema lacking a metric the extractor pins raises the batch path's
    ``KeyError`` here, before any window is scored.
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

        self.present = np.zeros(len(self.selected), dtype=bool)
        cells: list[tuple[int, int, Calculator, int]] = []
        for j, name in enumerate(self.selected):
            metric, _, feature = name.rpartition("|")
            idx = metric_pos.get(metric)
            if idx is None or (allowed is not None and metric not in allowed):
                continue  # absent cell: stays 0 with a False mask, like batch
            entry = feature_map.get(feature)
            if entry is None:
                continue
            calc, col = entry
            self.present[j] = True
            cells.append((j, idx, calc, col))

        #: schema columns the context reads, ascending; a window's context
        #: row ``r`` is column ``columns[r]``
        self.columns = np.array(sorted({metric for _, metric, _, _ in cells}), dtype=np.intp)
        self._column_names = tuple(self.metric_names[c] for c in self.columns)
        #: each calculator the cells need, once; their outputs are
        #: concatenated in this order
        self.calcs: list[Calculator] = []
        offset: dict[int, int] = {}
        width = 0
        for _, _, calc, _ in cells:
            if id(calc) not in offset:
                offset[id(calc)] = width
                width += len(calc.output_names)
                self.calcs.append(calc)
        row_of = {int(m): r for r, m in enumerate(self.columns)}
        #: position of every present cell, in selected order, in one
        #: window's flattened ``(len(columns), width)`` output block
        self._gather = np.array(
            [row_of[m] * width + offset[id(calc)] + col for _, m, calc, col in cells],
            dtype=np.intp,
        )

    @property
    def n_selected(self) -> int:
        return len(self.selected)

    def _window_columns(self, window: NodeSeries) -> np.ndarray:
        """The plan's ``(T, C)`` columns of *window*, re-gridded like batch."""
        if self.resample_points is None:
            return window.values[:, self.columns]
        return window.select_metrics(self._column_names).resample(self.resample_points).values

    def evaluate(self, windows: list[NodeSeries]) -> tuple[np.ndarray, np.ndarray]:
        """Raw selected features ``(W, F)`` of *windows* plus the presence mask.

        *windows* share this plan's schema and one length after
        resampling.  Each calculator in :attr:`calcs` runs exactly once, on
        one context over every window's selected columns.
        """
        raw = np.zeros((len(windows), self.n_selected))
        if self.calcs:
            rows = np.concatenate([self._window_columns(w).T for w in windows])
            ctx = MetricBlockContext(rows)
            block = np.concatenate([calc(ctx) for calc in self.calcs], axis=1)
            raw[:, self.present] = block.reshape(len(windows), -1)[:, self._gather]
        return raw, self.present
