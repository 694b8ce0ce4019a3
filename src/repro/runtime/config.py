"""Execution configuration for the shared extraction/inference runtime.

One small frozen object carries the two knobs of the runtime layer —
extraction worker count and feature-cache capacity — and is resolvable
from three sources with a fixed precedence:

    explicit argument  >  ``PRODIGY_*`` environment  >  process default

so a CLI ``--workers 4``, a ``PRODIGY_WORKERS=4`` deployment environment,
and a programmatic :func:`set_execution_config` all reach the same engine
the same way.  Each field declares its environment variable and parser
once, in its ``dataclasses.field`` metadata.  Stage timers are switched
by the instrumentation registry's own ``enabled`` flag, not by this config.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Mapping

__all__ = [
    "ExecutionConfig",
    "get_execution_config",
    "set_execution_config",
    "usable_cpus",
]


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
    """

    n_workers: int = _knob(usable_cpus(), "PRODIGY_WORKERS", _parse_int)
    cache_size: int = _knob(512, "PRODIGY_CACHE_SIZE", _parse_int)

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")

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
    """Install *config* as the process-wide default (``None`` reverts to env)."""
    global _process_config
    _process_config = config
