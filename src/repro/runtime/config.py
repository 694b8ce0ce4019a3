"""Execution configuration for the shared extraction/inference runtime.

One small frozen object carries every knob of the runtime layer — worker
count, cache capacity, instrumentation on/off, fleet transport, gateway
cache — and is resolvable from three sources with a fixed precedence:

    explicit argument  >  ``PRODIGY_*`` environment  >  process default

so a CLI ``--workers 4``, a ``PRODIGY_WORKERS=4`` deployment environment,
and a programmatic :func:`set_execution_config` all reach the same engine
the same way.  Each field declares its environment variable and parser
once, in its ``dataclasses.field`` metadata.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Mapping

__all__ = [
    "ExecutionConfig",
    "FLEET_TRANSPORTS",
    "get_execution_config",
    "set_execution_config",
    "usable_cpus",
]

#: Valid values of :attr:`ExecutionConfig.fleet_transport`.
FLEET_TRANSPORTS = ("inline", "process")

_FALSY = {"0", "false", "no", "off", ""}


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def _parse_int(key: str, raw: str) -> int | None:
    if raw.strip() == "":
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {raw!r}") from None


def _parse_flag(key: str, raw: str) -> bool:
    return raw.strip().lower() not in _FALSY


def _parse_choice(key: str, raw: str) -> str | None:
    return raw.strip().lower() or None


def _knob(default, env: str, parse: Callable[[str, str], object]):
    """A config field read from *env* through *parse* (``None`` = unset)."""
    return field(default=default, metadata={"env": env, "parse": parse})


@dataclass(frozen=True)
class ExecutionConfig:
    """Runtime knobs shared by every extraction/inference consumer.

    Parameters
    ----------
    n_workers:
        Threads running a full feature extraction: the calling thread
        plus ``n_workers - 1`` helpers, clamped to :func:`usable_cpus`.
        Defaults to :func:`usable_cpus`; ``1`` runs on the calling thread
        alone.  Output is the same bits at any count.
    cache_size:
        Feature-row entries kept by the LRU :class:`FeatureCache`;
        ``0`` disables caching entirely.
    instrument:
        Record per-stage timers/counters in the global
        :class:`~repro.runtime.instrumentation.Instrumentation` registry.
        An environment value of ``0``/``false``/``no``/``off`` or blank
        turns it off.
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
    """

    n_workers: int = _knob(usable_cpus(), "PRODIGY_WORKERS", _parse_int)
    cache_size: int = _knob(512, "PRODIGY_CACHE_SIZE", _parse_int)
    instrument: bool = _knob(True, "PRODIGY_INSTRUMENT", _parse_flag)
    fleet_transport: str = _knob("inline", "PRODIGY_FLEET_TRANSPORT", _parse_choice)
    gateway_cache_size: int = _knob(256, "PRODIGY_GATEWAY_CACHE", _parse_int)

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
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

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "ExecutionConfig":
        """Config from ``PRODIGY_*`` variables over the built-in defaults."""
        env = os.environ if env is None else env
        kwargs = {}
        for f in fields(cls):
            raw = env.get(f.metadata["env"])
            if raw is not None:
                value = f.metadata["parse"](f.metadata["env"], raw)
                if value is not None:
                    kwargs[f.name] = value
        return cls(**kwargs)

    @classmethod
    def resolve(
        cls, *, env: Mapping[str, str] | None = None, **explicit
    ) -> "ExecutionConfig":
        """Merge explicit arguments over the environment over the defaults.

        Keywords name fields; a ``None`` value defers to the environment.
        """
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(explicit) - names)
        if unknown:
            raise TypeError(f"unknown ExecutionConfig fields: {unknown}")
        config = cls.from_env(env)
        overrides = {name: v for name, v in explicit.items() if v is not None}
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
