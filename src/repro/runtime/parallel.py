"""ParallelExtractor — the shared feature-extraction engine.

Wraps a :class:`~repro.features.extraction.FeatureExtractor` with the three
runtime services every consumer needs:

* **fan-out** — the ``(N, T, K)`` block is split into the slab groups of
  :func:`~repro.features.extraction.slab_groups` (whole metric slabs
  stacked into one context, a function of the block shape alone) and the
  groups run on the calling thread plus ``n_workers - 1`` helper threads,
  which pull group indices from a shared counter and are joined before
  the call returns.  Each group writes only its own metrics' columns, so
  the output is the same bits at any worker count, and no extraction
  thread is alive once ``extract`` returns (the fleet forks its scoring
  workers after a fit).  NumPy releases the GIL inside its kernels, which
  is what lets the threads overlap; helper threads start with NumPy's
  default ``errstate``, and the builtin calculators set their own;
* **memoisation** — per-series feature rows are cached in a content-hashed
  LRU (:class:`~repro.runtime.cache.FeatureCache`), so experiment re-runs
  and repeated fits over shared datasets skip extraction entirely;
* **instrumentation** — the ``extract`` stage timer and cache hit/miss
  counters feed the global registry surfaced by ``runtime stats``.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import nullcontext
from typing import Callable, Sequence

import numpy as np

from repro.features.extraction import (
    FeatureExtractor,
    compute_block,
    compute_slab_group,
    slab_groups,
    validate_aligned,
)
from repro.runtime.cache import FeatureCache, extractor_signature, series_fingerprint
from repro.runtime.config import ExecutionConfig, get_execution_config, usable_cpus
from repro.runtime.instrumentation import Instrumentation, get_instrumentation
from repro.telemetry.frame import NodeSeries
from repro.telemetry.sampleset import SampleSet

__all__ = ["ParallelExtractor"]


def _run_threaded(task: Callable[[int], None], n_tasks: int, workers: int) -> None:
    """Run ``task(0) .. task(n_tasks - 1)`` on this thread plus helpers.

    ``workers - 1`` helper threads and the calling thread claim task
    indices from one shared counter; every helper is joined before this
    returns, and the first exception raised by any of them is re-raised
    here once the others have stopped claiming work.
    """
    claim = itertools.count()
    errors: list[BaseException] = []

    def drain() -> None:
        while not errors:
            i = next(claim)
            if i >= n_tasks:
                return
            try:
                task(i)
            except BaseException as exc:  # re-raised on the calling thread
                errors.append(exc)

    helpers: list[threading.Thread] = []
    try:
        for _ in range(workers - 1):
            helpers.append(threading.Thread(target=drain))
            helpers[-1].start()
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


class ParallelExtractor:
    """Cached, threaded drop-in for ``FeatureExtractor`` extraction.

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
        """Configured workers clamped to the CPUs this process may run on."""
        return min(self.config.n_workers, usable_cpus())

    def _compute_rows(self, series: list[NodeSeries]) -> np.ndarray:
        """Raw extraction of *series*, its slab groups spread over threads."""
        block, _ = self.extractor.stack(series)
        calcs = self.extractor.calculators
        groups = slab_groups(block.shape)
        workers = max(1, min(self.effective_workers, len(groups)))
        self._last_plan = {
            "mode": "threaded" if workers > 1 else "inline",
            "workers": workers,
            "groups": len(groups),
        }
        if workers == 1:
            return compute_block(calcs, block)
        n, _, k = block.shape
        out = np.empty((n, k, self.extractor.n_features_per_metric))
        _run_threaded(
            lambda i: compute_slab_group(calcs, block, *groups[i], out),
            len(groups),
            workers,
        )
        return out.reshape(n, -1)

    # -- observability -----------------------------------------------------------

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
