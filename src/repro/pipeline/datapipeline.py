"""DataPipeline (paper Fig. 3): feature extraction + selection + scaling.

The pipeline is fitted once offline — Chi-square selection needs the small
labeled set, the scaler is fitted on training features — and then applied
unchanged online.  Its fitted state (selected feature names, scaler
parameters, extractor configuration) is exactly the "deployment metadata"
the ModelTrainer persists.

Fitting extracts every feature, because Chi-square selection scores them
all; that extraction routes through the shared runtime layer, a
:class:`~repro.runtime.parallel.ParallelExtractor` engine built from the
process-wide :class:`~repro.runtime.config.ExecutionConfig` (worker
fan-out, feature-row memoisation, per-stage timers).  A fitted transform
computes only the selected cells: it groups its series by (length after
resampling, metric names) and runs each group's
:class:`~repro.features.rolling.RollingPlan` once.  Full extraction of a
fitted transform survives only as :meth:`DataPipeline.transform_series_full`,
the parity oracle of the plan.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.features.extraction import FeatureExtractor
from repro.features.rolling import RollingPlan
from repro.features.scaling import MinMaxScaler
from repro.features.selection import ChiSquareSelector
from repro.runtime.config import ExecutionConfig
from repro.runtime.parallel import ParallelExtractor
from repro.telemetry.frame import NodeSeries
from repro.telemetry.sampleset import SampleSet
from repro.util.validation import check_fitted

__all__ = ["DataPipeline"]


class DataPipeline:
    """Fitted transform: raw node series -> scaled, selected feature rows.

    Parameters
    ----------
    extractor:
        The statistical feature extractor, or an already-built
        :class:`ParallelExtractor` engine to adopt as-is.
    n_features:
        Features kept by Chi-square selection.
    execution:
        Runtime knobs for the extraction engine; defaults to the
        process-wide configuration (``PRODIGY_WORKERS`` etc.).
    """

    def __init__(
        self,
        extractor: FeatureExtractor | ParallelExtractor | None = None,
        *,
        n_features: int = 256,
        execution: ExecutionConfig | None = None,
    ):
        if isinstance(extractor, ParallelExtractor):
            self.engine = extractor
            self.extractor = extractor.extractor
        else:
            self.extractor = extractor if extractor is not None else FeatureExtractor()
            self.engine = ParallelExtractor(self.extractor, config=execution)
        self.n_features = n_features
        self.selector_: ChiSquareSelector | None = None
        self.scaler_: MinMaxScaler | None = None
        self.selected_names_: tuple[str, ...] | None = None
        #: plans keyed by (selection, metric names): ``selected_names_`` is
        #: also assigned directly, so the selection is part of the key
        self._plans: dict[tuple[tuple[str, ...], tuple[str, ...]], RollingPlan] = {}
        #: calculator calls the plans have made (one per calculator per group)
        self.calc_runs = 0

    # -- offline -------------------------------------------------------------

    def fit(self, samples: SampleSet) -> "DataPipeline":
        """Fit selection on the SampleSet, then the min-max scaler on it.

        Selection runs the Chi-square test when the set has anomalous rows
        and ranks by variance when it has none (:meth:`ChiSquareSelector.fit`).
        Mixed-schema SampleSets (carrying a presence mask) fit mask-aware:
        selection scores each column over its observed cells and the min-max
        scaler learns per-column ranges from observations only.
        """
        self.selector_ = ChiSquareSelector(k=self.n_features).fit(samples)
        selected = self.selector_.transform(samples)
        self.selected_names_ = selected.feature_names
        self.scaler_ = MinMaxScaler().fit(selected.features, present=selected.present)
        return self

    def fit_from_series(
        self,
        series: Sequence[NodeSeries],
        labels: np.ndarray | None = None,
        **extract_kwargs,
    ) -> tuple["DataPipeline", SampleSet]:
        """Extract + fit in one step; returns (self, transformed SampleSet).

        Without labels (or without an anomalous one) selection ranks by
        variance.  A fleet spanning several metric schemas is extracted per
        schema and aligned with a presence mask (:meth:`ParallelExtractor.extract`).
        """
        samples = self.engine.extract(series, labels, **extract_kwargs)
        self.fit(samples)
        return self, self.transform_samples(samples)

    # -- online ---------------------------------------------------------------

    def transform_samples(self, samples: SampleSet) -> SampleSet:
        """Apply selection + scaling to an already-extracted SampleSet."""
        check_fitted(self, ["selector_", "scaler_"])
        inst = self.engine.instrumentation
        with inst.stage("select", items=samples.n_samples):
            selected = samples.select_features(self.selected_names_)
        with inst.stage("scale", items=samples.n_samples):
            scaled = self.scaler_.transform(selected.features)
            if selected.present is not None:
                # Absent cells are placeholders, not measurements; pin them
                # to 0 so the scaler's offset cannot fabricate a value.
                scaled = np.where(selected.present, scaled, 0.0)
        return selected.with_features(
            scaled, selected.feature_names, present=selected.present
        )

    def plan(self, metric_names: tuple[str, ...]) -> RollingPlan:
        """The selected-feature plan of one metric schema, built once per selection."""
        key = (self.selected_names_, metric_names)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = RollingPlan(
                self.extractor, self.selected_names_, metric_names
            )
        return plan

    def _groups(self, series: list[NodeSeries]) -> list[list[int]]:
        """Indices of *series* per (length after resampling, metric names).

        Groups come in first-seen order; each one is a single stacked
        block, for its plan or for full extraction alike.
        """
        resample = self.extractor.resample_points
        groups: dict[tuple, list[int]] = {}
        for i, s in enumerate(series):
            groups.setdefault((resample or s.n_timestamps, s.metric_names), []).append(i)
        return list(groups.values())

    def transform_series(self, series: Sequence[NodeSeries]) -> np.ndarray:
        """Raw series -> scaled feature matrix ``(N, n_features)``."""
        return self.transform_series_masked(series)[0]

    def transform_series_masked(
        self, series: Sequence[NodeSeries]
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Raw series -> ``(scaled, present)`` through the selected-feature plan.

        Each (length after resampling, metric names) group runs its plan
        once.  A selected feature whose metric a node's schema lacks comes
        back 0 with a False mask cell; dense input returns ``(scaled, None)``.
        """
        check_fitted(self, ["selector_", "scaler_"])
        series = list(series)
        if not series:
            raise ValueError("need at least one NodeSeries")
        raw = np.zeros((len(series), len(self.selected_names_)))
        present = np.zeros(raw.shape, dtype=bool)
        with self.engine.instrumentation.stage("extract", items=len(series)):
            for idx in self._groups(series):
                plan = self.plan(series[idx[0]].metric_names)
                raw[idx], present[idx] = plan.evaluate([series[i] for i in idx])
                self.calc_runs += len(plan.calcs)
        return self._scale(raw, present)

    def transform_series_full(
        self, series: Sequence[NodeSeries]
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """:meth:`transform_series_masked` by full extraction: the plan's oracle.

        Every calculator runs on every metric of each group, as in
        :meth:`fit`, before the selected cells are kept; batch-mode
        streaming and the parity tests run it, no online path does.
        """
        check_fitted(self, ["selector_", "scaler_"])
        series = list(series)
        raw = np.zeros((len(series), len(self.selected_names_)))
        present = np.zeros(raw.shape, dtype=bool)
        for idx in self._groups(series):
            features, names = self.extractor.extract_matrix([series[i] for i in idx])
            pos = {name: i for i, name in enumerate(names)}
            cells = [j for j, name in enumerate(self.selected_names_) if name in pos]
            block = np.ix_(idx, cells)
            raw[block] = features[:, [pos[self.selected_names_[j]] for j in cells]]
            present[block] = True
        return self._scale(raw, present)

    def _scale(
        self, raw: np.ndarray, present: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        with self.engine.instrumentation.stage("scale", items=len(raw)):
            scaled = self.scaler_.transform(raw)
            if present.all():
                return scaled, None
            # Absent cells are placeholders, not measurements; pin them to 0
            # so the scaler's offset cannot fabricate a value.
            return np.where(present, scaled, 0.0), present

    def transform_single(self, series: NodeSeries) -> np.ndarray:
        """One node run -> one scaled feature row (CoMTE's evaluation path)."""
        scaled, _ = self.transform_series_masked([series])
        return scaled

    # -- persistence --------------------------------------------------------------

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """(metadata, scaler arrays) for the artifact bundle."""
        check_fitted(self, ["selector_", "scaler_"])
        meta = {
            "selected_features": list(self.selected_names_),
            "scaler_kind": "minmax",
            "n_features": self.n_features,
            "resample_points": self.extractor.resample_points,
            "metrics": list(self.extractor.metrics) if self.extractor.metrics else None,
        }
        return meta, self.scaler_.state()

    @classmethod
    def from_state(
        cls,
        meta: dict,
        scaler_state: dict[str, np.ndarray],
        *,
        extractor: FeatureExtractor | None = None,
        execution: ExecutionConfig | None = None,
    ) -> "DataPipeline":
        """Rebuild a fitted pipeline from persisted deployment metadata.

        The metadata's ``scaler_kind`` must be ``"minmax"``, the one scaler
        a deployment fits; any other value raises ``ValueError``.
        """
        if meta["scaler_kind"] != "minmax":
            raise ValueError(
                f"unsupported scaler_kind {meta['scaler_kind']!r}: "
                f"deployments are scaled min-max ('minmax')"
            )
        if extractor is None:
            extractor = FeatureExtractor(
                resample_points=meta["resample_points"],
                metrics=meta["metrics"],
            )
        pipe = cls(extractor, n_features=int(meta["n_features"]), execution=execution)
        pipe.selected_names_ = tuple(meta["selected_features"])
        pipe.scaler_ = MinMaxScaler.from_state(scaler_state)
        # Selector itself is not needed online; mark fitted via sentinel.
        pipe.selector_ = ChiSquareSelector.sentinel(
            pipe.selected_names_,
            np.zeros(len(pipe.selected_names_)),
            k=pipe.n_features,
        )
        return pipe
