"""Execution configuration for the shared extraction/inference runtime.

One small frozen object carries every knob of the runtime layer — worker
count, task granularity, cache capacity, instrumentation on/off — and is
resolvable from three sources with a fixed precedence:

    explicit argument  >  ``PRODIGY_*`` environment  >  process default

so a CLI ``--workers 4``, a ``PRODIGY_WORKERS=4`` deployment environment,
and a programmatic :func:`set_execution_config` all reach the same engine
the same way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Mapping

__all__ = [
    "ExecutionConfig",
    "FLEET_TRANSPORTS",
    "STREAMING_MODES",
    "get_execution_config",
    "set_execution_config",
]

ENV_WORKERS = "PRODIGY_WORKERS"
ENV_CHUNK_SIZE = "PRODIGY_CHUNK_SIZE"
ENV_CACHE_SIZE = "PRODIGY_CACHE_SIZE"
ENV_INSTRUMENT = "PRODIGY_INSTRUMENT"
ENV_FLEET_TRANSPORT = "PRODIGY_FLEET_TRANSPORT"
ENV_GATEWAY_CACHE = "PRODIGY_GATEWAY_CACHE"
ENV_STREAMING_MODE = "PRODIGY_STREAMING_MODE"

#: Valid values of :attr:`ExecutionConfig.fleet_transport`.
FLEET_TRANSPORTS = ("inline", "process")

#: Valid values of :attr:`ExecutionConfig.streaming_mode`.
STREAMING_MODES = ("batch", "rolling")

_FALSY = {"0", "false", "no", "off", ""}


def _env_int(env: Mapping[str, str], key: str) -> int | None:
    raw = env.get(key)
    if raw is None or raw.strip() == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class ExecutionConfig:
    """Runtime knobs shared by every extraction/inference consumer.

    Parameters
    ----------
    n_workers:
        Worker processes for feature extraction.  ``1`` means the serial
        in-process path (no pool is ever created).
    chunk_size:
        Metrics per parallel work unit; ``0`` picks a chunk that yields
        roughly two tasks per worker.
    cache_size:
        Feature-row entries kept by the LRU :class:`FeatureCache`;
        ``0`` disables caching entirely.
    instrument:
        Record per-stage timers/counters in the global
        :class:`~repro.runtime.instrumentation.Instrumentation` registry.
    fleet_transport:
        How the fleet coordinator runs its scoring workers: ``"inline"``
        (cooperatively scheduled on the coordinator thread — the parity
        oracle) or ``"process"`` (one OS process per worker fed over
        shared-memory rings; falls back to inline where ``fork`` is
        unavailable).
    gateway_cache_size:
        Response-cache entries kept by the serving gateway
        (:class:`~repro.serving.gateway.ResponseCache`); ``0`` disables
        response caching.
    streaming_mode:
        How :class:`~repro.monitoring.streaming.StreamingDetector`
        computes evaluation-window features: ``"batch"`` (recompute every
        calculator on the materialised window — the parity oracle) or
        ``"rolling"`` (only the fitted selection's cells, computed by the
        batch kernels on the per-node ring window).
    """

    n_workers: int = 1
    chunk_size: int = 0
    cache_size: int = 512
    instrument: bool = True
    fleet_transport: str = "inline"
    gateway_cache_size: int = 256
    streaming_mode: str = "batch"

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.chunk_size < 0:
            raise ValueError(f"chunk_size must be >= 0, got {self.chunk_size}")
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.gateway_cache_size < 0:
            raise ValueError(
                f"gateway_cache_size must be >= 0, got {self.gateway_cache_size}"
            )
        if self.fleet_transport not in FLEET_TRANSPORTS:
            raise ValueError(
                f"fleet_transport must be one of {FLEET_TRANSPORTS}, "
                f"got {self.fleet_transport!r}"
            )
        if self.streaming_mode not in STREAMING_MODES:
            raise ValueError(
                f"streaming_mode must be one of {STREAMING_MODES}, "
                f"got {self.streaming_mode!r}"
            )

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "ExecutionConfig":
        """Config from ``PRODIGY_*`` variables over the built-in defaults."""
        env = os.environ if env is None else env
        kwargs = {}
        for key, field_name in (
            (ENV_WORKERS, "n_workers"),
            (ENV_CHUNK_SIZE, "chunk_size"),
            (ENV_CACHE_SIZE, "cache_size"),
            (ENV_GATEWAY_CACHE, "gateway_cache_size"),
        ):
            value = _env_int(env, key)
            if value is not None:
                kwargs[field_name] = value
        raw_instrument = env.get(ENV_INSTRUMENT)
        if raw_instrument is not None:
            kwargs["instrument"] = raw_instrument.strip().lower() not in _FALSY
        raw_transport = env.get(ENV_FLEET_TRANSPORT)
        if raw_transport is not None and raw_transport.strip() != "":
            kwargs["fleet_transport"] = raw_transport.strip().lower()
        raw_mode = env.get(ENV_STREAMING_MODE)
        if raw_mode is not None and raw_mode.strip() != "":
            kwargs["streaming_mode"] = raw_mode.strip().lower()
        return cls(**kwargs)

    @classmethod
    def resolve(
        cls,
        *,
        n_workers: int | None = None,
        chunk_size: int | None = None,
        cache_size: int | None = None,
        instrument: bool | None = None,
        fleet_transport: str | None = None,
        gateway_cache_size: int | None = None,
        streaming_mode: str | None = None,
        env: Mapping[str, str] | None = None,
    ) -> "ExecutionConfig":
        """Merge explicit arguments over the environment over the defaults."""
        config = cls.from_env(env)
        overrides = {
            name: value
            for name, value in (
                ("n_workers", n_workers),
                ("chunk_size", chunk_size),
                ("cache_size", cache_size),
                ("instrument", instrument),
                ("fleet_transport", fleet_transport),
                ("gateway_cache_size", gateway_cache_size),
                ("streaming_mode", streaming_mode),
            )
            if value is not None
        }
        return replace(config, **overrides) if overrides else config


_process_config: ExecutionConfig | None = None


def get_execution_config() -> ExecutionConfig:
    """The process-wide config: the last :func:`set_execution_config`, else env."""
    if _process_config is not None:
        return _process_config
    return ExecutionConfig.from_env()


def set_execution_config(config: ExecutionConfig | None) -> None:
    """Install *config* as the process-wide default (``None`` reverts to env).

    Also flips the global instrumentation registry to match
    ``config.instrument`` so stage timers outside engine objects (score,
    explain) honour the same switch.
    """
    global _process_config
    _process_config = config
    from repro.runtime.instrumentation import get_instrumentation

    get_instrumentation().enabled = config.instrument if config is not None else True
