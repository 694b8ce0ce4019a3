"""ParallelExtractor — the shared feature-extraction engine.

Wraps a :class:`~repro.features.extraction.FeatureExtractor` with the three
runtime services every consumer needs:

* **fan-out** — the ``(N, T, M)`` block is split into cost-weighted work
  units (a metric range crossed with one calculator cost tier, sized by the
  tiers' :data:`~repro.features.calculators.COST_WEIGHTS`) and computed on
  a process pool (``n_workers > 1``); per-metric columns depend only on
  their own slab, so scatter-assembled output is bit-identical to the
  serial path.  The engine runs serial whenever parallelism cannot pay:
  ``n_workers=1``, a single-CPU host (``os.cpu_count() == 1``), or a plan
  with too few units to amortise pool startup;
* **memoisation** — per-series feature rows are cached in a content-hashed
  LRU (:class:`~repro.runtime.cache.FeatureCache`), so experiment re-runs
  and repeated fits over shared datasets skip extraction entirely;
* **instrumentation** — the ``extract`` stage timer and cache hit/miss
  counters feed the global registry surfaced by ``runtime stats``.

Worker processes rebuild calculators from a factory spec (the default
calculator set closes over lambdas and cannot be pickled); truly custom
calculator lists fall back to pickling, and unpicklable ones degrade to the
serial path rather than failing.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from typing import NamedTuple, Sequence

import numpy as np

from repro.features.calculators import (
    Calculator,
    calculator_cost_weight,
    default_calculators,
    full_calculators,
)
from repro.features.extraction import (
    FeatureExtractor,
    calculator_offsets,
    compute_block,
    compute_block_columns,
    validate_aligned,
)
from repro.runtime.cache import FeatureCache, extractor_signature, series_fingerprint
from repro.runtime.config import ExecutionConfig, get_execution_config
from repro.runtime.instrumentation import Instrumentation, get_instrumentation
from repro.telemetry.frame import NodeSeries
from repro.telemetry.sampleset import SampleSet

__all__ = ["ParallelExtractor", "WorkUnit", "plan_chunks"]


# -- worker-side plumbing ------------------------------------------------------

_WORKER_CALCULATORS: list[Calculator] | None = None

_FACTORIES = {"default": default_calculators, "full": full_calculators}


def _calculator_spec(calculators: Sequence[Calculator]):
    """A picklable recipe for rebuilding *calculators* in a worker process.

    Returns ``("factory", name, calc_names)`` when every calculator comes
    from a known registry factory, ``("pickle", bytes)`` when the list
    pickles directly, and ``None`` when neither works (serial only).
    """
    names = tuple(c.name for c in calculators)
    for factory_name, factory in _FACTORIES.items():
        registry = {c.name for c in factory()}
        if all(n in registry for n in names):
            return ("factory", factory_name, names)
    try:
        return ("pickle", pickle.dumps(list(calculators)))
    except Exception:
        return None


def _calculators_from_spec(spec) -> list[Calculator]:
    if spec[0] == "factory":
        _, factory_name, names = spec
        by_name = {c.name: c for c in _FACTORIES[factory_name]()}
        return [by_name[n] for n in names]
    return pickle.loads(spec[1])


def _init_worker(spec) -> None:
    global _WORKER_CALCULATORS
    _WORKER_CALCULATORS = _calculators_from_spec(spec)


def _compute_chunk_cols(block_chunk: np.ndarray, calc_indices: tuple[int, ...]) -> np.ndarray:
    return compute_block_columns(_WORKER_CALCULATORS, block_chunk, calc_indices)


# -- cost-aware chunk planning -------------------------------------------------


class WorkUnit(NamedTuple):
    """One schedulable unit: a metric range crossed with a calculator subset."""

    metric_lo: int
    metric_hi: int
    calc_indices: tuple[int, ...]
    weight: float


def plan_chunks(
    calculators: Sequence[Calculator],
    n_metrics: int,
    n_workers: int,
) -> list[WorkUnit]:
    """Split an extraction into cost-balanced work units.

    Calculators are grouped by cost tier and each tier's metric axis is
    split so every unit carries roughly ``total_weight / (n_workers * 2)``
    of work — the expensive tier shatters into fine metric spans while the
    cheap tier stays in a few coarse ones, instead of every uniform K-chunk
    dragging the full expensive tier along.  Units come back heaviest-first
    so pool submission order aids balance.
    """
    if n_metrics < 1:
        return []
    tiers: dict[str, list[int]] = {}
    for i, calc in enumerate(calculators):
        tiers.setdefault(calc.cost, []).append(i)
    tier_weight = {
        tier: sum(calculator_cost_weight(calculators[i]) for i in idx)
        for tier, idx in tiers.items()
    }
    target = n_metrics * sum(tier_weight.values()) / max(1, n_workers * 2)
    units: list[WorkUnit] = []
    for tier, idx in tiers.items():
        w = tier_weight[tier]
        span = max(1, int(target // w)) if w > 0 else n_metrics
        for lo in range(0, n_metrics, span):
            hi = min(lo + span, n_metrics)
            units.append(WorkUnit(lo, hi, tuple(idx), w * (hi - lo)))
    return sorted(units, key=lambda u: -u.weight)


# -- the engine ----------------------------------------------------------------


class ParallelExtractor:
    """Cached, optionally parallel drop-in for ``FeatureExtractor`` extraction.

    Parameters
    ----------
    extractor:
        The wrapped extractor (defaults to a fresh ``FeatureExtractor()``).
        Its configuration — calculators, resample grid, metric subset — is
        part of every cache key.
    config:
        Runtime knobs; defaults to the process-wide
        :func:`~repro.runtime.config.get_execution_config`.
    cache:
        Share a :class:`FeatureCache` across engines; by default each
        engine owns one sized by ``config.cache_size`` (0 disables).
    instrumentation:
        Stage-timer registry; defaults to the global one.
    """

    def __init__(
        self,
        extractor: FeatureExtractor | None = None,
        *,
        config: ExecutionConfig | None = None,
        cache: FeatureCache | None = None,
        instrumentation: Instrumentation | None = None,
    ):
        self.extractor = extractor if extractor is not None else FeatureExtractor()
        self.config = config if config is not None else get_execution_config()
        if cache is not None:
            self.cache = cache
        else:
            self.cache = FeatureCache(self.config.cache_size) if self.config.cache_size else None
        self.instrumentation = (
            instrumentation if instrumentation is not None else get_instrumentation()
        )
        self._signature = extractor_signature(self.extractor)
        self._pool: ProcessPoolExecutor | None = None
        self._spec_resolved = False
        self._spec = None
        self._last_plan: dict | None = None

    # -- passthrough introspection --------------------------------------------

    @property
    def n_features_per_metric(self) -> int:
        return self.extractor.n_features_per_metric

    def feature_names(self, metric_names: Sequence[str]) -> tuple[str, ...]:
        return self.extractor.feature_names(metric_names)

    # -- extraction ------------------------------------------------------------

    def extract_matrix(
        self, series: Sequence[NodeSeries]
    ) -> tuple[np.ndarray, tuple[str, ...]]:
        """Extract the raw ``(N, F_total)`` matrix — cached, fanned out."""
        series = list(series)
        if not series:
            raise ValueError("need at least one NodeSeries")
        metric_names = self._batch_metric_names(series)
        with self._stage("extract", items=len(series)):
            if self.cache is None:
                matrix = self._compute_rows(series)
            else:
                matrix = self._cached_rows(series)
        return matrix, self.extractor.feature_names(metric_names)

    def extract(
        self,
        series: Sequence[NodeSeries],
        labels: np.ndarray | Sequence[int] | None = None,
        *,
        app_names: Sequence[str] | None = None,
        anomaly_names: Sequence[str] | None = None,
    ) -> SampleSet:
        """Engine-routed equivalent of :meth:`FeatureExtractor.extract`."""
        series = list(series)
        validate_aligned(
            len(series), labels=labels, app_names=app_names, anomaly_names=anomaly_names
        )
        features, names = self.extract_matrix(series)
        return self.extractor.package(
            series, features, names, labels,
            app_names=app_names, anomaly_names=anomaly_names,
        )

    def extract_single(self, series: NodeSeries) -> np.ndarray:
        """Feature row ``(1, F)`` for one run — the online-inference path."""
        features, _ = self.extract_matrix([series])
        return features

    # -- internals -------------------------------------------------------------

    def _stage(self, name: str, *, items: int = 0):
        if not self.config.instrument:
            return nullcontext()
        return self.instrumentation.stage(name, items=items)

    def _count(self, name: str, n: int) -> None:
        if self.config.instrument and n:
            self.instrumentation.count(name, n)

    def _batch_metric_names(self, series: Sequence[NodeSeries]) -> tuple[str, ...]:
        """The effective metric layout, with the cross-series consistency check.

        Mirrors :meth:`FeatureExtractor.stack` so cached rows can never be
        mixed across incompatible layouts: every series of a batch must share
        metric names (or the extractor pins an explicit subset).
        """
        if self.extractor.metrics is not None:
            return tuple(self.extractor.metrics)
        metric_names = series[0].metric_names
        for s in series[1:]:
            if s.metric_names != metric_names:
                raise ValueError("all series must share metric names (or pass metrics=...)")
        return tuple(metric_names)

    def _cached_rows(self, series: list[NodeSeries]) -> np.ndarray:
        keys = [self._signature + series_fingerprint(s) for s in series]
        rows: list[np.ndarray | None] = [self.cache.get(k) for k in keys]
        miss_idx = [i for i, row in enumerate(rows) if row is None]
        self._count("extract_cache_hits", len(series) - len(miss_idx))
        self._count("extract_cache_misses", len(miss_idx))
        if miss_idx:
            computed = self._compute_rows([series[i] for i in miss_idx])
            for j, i in enumerate(miss_idx):
                self.cache.put(keys[i], computed[j])
                rows[i] = computed[j]
        return np.stack(rows, axis=0)

    @property
    def effective_workers(self) -> int:
        """Configured workers clamped to the host's CPU count."""
        return min(self.config.n_workers, os.cpu_count() or 1)

    def _record_plan(self, mode: str, reason: str, units: list[WorkUnit] | None = None) -> None:
        plan: dict = {
            "mode": mode,
            "reason": reason,
            "configured_workers": self.config.n_workers,
            "effective_workers": self.effective_workers,
            "cpu_count": os.cpu_count() or 1,
        }
        if units:
            weights = [u.weight for u in units]
            plan["n_units"] = len(units)
            plan["unit_weight_min"] = min(weights)
            plan["unit_weight_max"] = max(weights)
        self._last_plan = plan

    def _compute_rows(self, series: list[NodeSeries]) -> np.ndarray:
        """Raw extraction of *series*, parallel when configured and worthwhile."""
        workers = self.effective_workers
        if workers <= 1:
            reason = (
                "configured_serial" if self.config.n_workers <= 1 else "single_cpu_fallback"
            )
            self._record_plan("serial", reason)
            return self.extractor.extract_matrix(series)[0]
        block, _ = self.extractor.stack(series)
        calcs = self.extractor.calculators
        units = plan_chunks(calcs, block.shape[2], workers)
        if len(units) <= 1:
            self._record_plan("serial", "single_unit", units)
            return compute_block(calcs, block)
        pool = self._ensure_pool()
        if pool is None:  # unpicklable custom calculators: stay serial
            self._record_plan("serial", "unpicklable_calculators", units)
            return compute_block(calcs, block)
        self._record_plan("parallel", "cost_aware_plan", units)
        futures = [
            (
                unit,
                pool.submit(
                    _compute_chunk_cols,
                    np.ascontiguousarray(block[:, :, unit.metric_lo : unit.metric_hi]),
                    unit.calc_indices,
                ),
            )
            for unit in units
        ]
        # Scatter-assemble the partial columns into the metric-major layout.
        offsets = calculator_offsets(calcs)
        f_per = sum(width for _, width in offsets)
        out = np.empty((block.shape[0], block.shape[2] * f_per))
        for unit, future in futures:
            partial = future.result()
            f_sub = partial.shape[1] // (unit.metric_hi - unit.metric_lo)
            for m in range(unit.metric_lo, unit.metric_hi):
                src = (m - unit.metric_lo) * f_sub
                base = m * f_per
                for ci in unit.calc_indices:
                    off, width = offsets[ci]
                    out[:, base + off : base + off + width] = partial[:, src : src + width]
                    src += width
        return out

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._pool is not None:
            return self._pool
        if not self._spec_resolved:
            self._spec = _calculator_spec(self.extractor.calculators)
            self._spec_resolved = True
        if self._spec is None:
            return None
        if "fork" in mp.get_all_start_methods():
            ctx = mp.get_context("fork")
        else:  # pragma: no cover - non-POSIX platforms
            ctx = mp.get_context()
        self._pool = ProcessPoolExecutor(
            max_workers=self.effective_workers,
            mp_context=ctx,
            initializer=_init_worker,
            initargs=(self._spec,),
        )
        return self._pool

    # -- lifecycle / observability ----------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool (idempotent; the engine stays usable)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelExtractor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self) -> dict:
        """JSON-ready runtime snapshot: config, cache, and stage timings."""
        return {
            "config": {
                "n_workers": self.config.n_workers,
                "cache_size": self.config.cache_size,
                "instrument": self.config.instrument,
                "fleet_transport": self.config.fleet_transport,
            },
            "scheduler": self._last_plan,
            "cache": self.cache.stats() if self.cache is not None else None,
            "instrumentation": self.instrumentation.snapshot(),
        }
