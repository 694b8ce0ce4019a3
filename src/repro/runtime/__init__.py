"""Shared extraction/inference runtime layer.

One engine, one config object, one metrics surface for every consumer of
feature extraction — ``Prodigy.fit``, ``DataPipeline``, the streaming
detector, the detector service, CoMTE's evaluators, the experiment
runners, the CLI, and the benchmarks:

* :class:`ExecutionConfig` — worker and cache knobs, resolvable from
  ``PRODIGY_*`` environment variables and CLI flags;
* :class:`ParallelExtractor` — full extraction over groups of metric
  slabs on a few threads, the same bits at any worker count;
* :class:`FeatureCache` — content-hash-keyed LRU memoisation of feature
  rows;
* :class:`Instrumentation` — per-stage timers/counters (extract, select,
  scale, score, explain) surfaced by ``repro-prodigy runtime stats``; its
  ``enabled`` flag is the one switch for all of them.
"""

from repro.runtime.cache import FeatureCache, extractor_signature, series_fingerprint
from repro.runtime.config import (
    ExecutionConfig,
    get_execution_config,
    set_execution_config,
)
from repro.runtime.instrumentation import (
    STAGES,
    Instrumentation,
    StageStats,
    get_instrumentation,
)
from repro.runtime.parallel import ParallelExtractor

__all__ = [
    "STAGES",
    "ExecutionConfig",
    "FeatureCache",
    "Instrumentation",
    "ParallelExtractor",
    "StageStats",
    "extractor_signature",
    "get_execution_config",
    "get_instrumentation",
    "series_fingerprint",
    "set_execution_config",
]
