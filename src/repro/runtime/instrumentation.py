"""Per-stage timers and counters for the runtime layer.

Every hot-path stage — ``extract``, ``select``, ``scale``, ``score``,
``explain`` — records wall-clock time, call count, and items processed into
one process-wide registry, so "where does inference time go" is answerable
from any consumer (the ``repro-prodigy runtime stats`` subcommand, the
benchmarks, a service health endpoint) without profiling runs.

The registry is deliberately tiny: a dict guarded by a lock, microseconds
of overhead per stage, and a global kill switch (``enabled``) for
latency-critical deployments.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

__all__ = ["STAGES", "StageStats", "Instrumentation", "get_instrumentation"]

#: The canonical pipeline stages, in data-flow order.  ``train_epoch`` is
#: the model trainers' per-epoch loop (VAE/USAD fast path); ``drift`` and
#: ``shadow`` are the lifecycle layer's per-window monitors; ``rollup``
#: is the fleet layer's cluster aggregation.  The fleet also records one
#: extra stage per shard (``shard:<worker_id>`` — the micro-batch drain)
#: and, under the process transport, per-direction IPC stages
#: (``ipc:push`` — staged chunks into shared-memory rings; ``ipc:collect``
#: — verdict records back out), all listed after the canonical stages.
#: The serving gateway records ``gateway:serve`` (dashboard render time)
#: plus per-tenant SLO stages ``slo:<tenant>:wait`` (admission-queue wait)
#: and ``slo:<tenant>:service``, so the queue-wait vs service-time split is
#: readable from the same registry as every other stage.
STAGES = (
    "extract",
    "select",
    "scale",
    "score",
    "train_epoch",
    "explain",
    "drift",
    "shadow",
    "rollup",
)


@dataclass
class StageStats:
    """Accumulated timings of one stage."""

    calls: int = 0
    seconds: float = 0.0
    items: int = 0

    @property
    def mean_ms(self) -> float:
        return 0.0 if self.calls == 0 else self.seconds / self.calls * 1e3

    @property
    def items_per_second(self) -> float:
        return 0.0 if self.seconds <= 0 else self.items / self.seconds


class _StageTimer:
    """Context manager of :meth:`Instrumentation.stage`: one slotted
    object per block instead of a generator frame."""

    __slots__ = ("_inst", "_name", "_items", "_start")

    def __init__(self, inst: "Instrumentation", name: str, items: int):
        self._inst = inst
        self._name = name
        self._items = items
        self._start = None

    def __enter__(self) -> None:
        if self._inst.enabled:
            self._start = time.perf_counter()

    def __exit__(self, *exc) -> bool:
        if self._start is not None:
            self._inst.record(
                self._name, time.perf_counter() - self._start, items=self._items
            )
        return False


class Instrumentation:
    """Thread-safe registry of stage timers and named counters."""

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._stages: dict[str, StageStats] = {}
        self._counters: dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def stage(self, name: str, *, items: int = 0) -> _StageTimer:
        """Time a block as one call of stage *name* covering *items* items.

        The block is recorded when it exits, also when it raises; nothing
        is recorded while the registry is disabled.
        """
        return _StageTimer(self, name, items)

    def record(self, name: str, seconds: float, *, items: int = 0) -> None:
        if not self.enabled:
            return
        with self._lock:
            stats = self._stages.setdefault(name, StageStats())
            stats.calls += 1
            stats.seconds += seconds
            stats.items += items

    def count(self, name: str, n: int = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    # -- reading -------------------------------------------------------------

    def stage_stats(self, name: str) -> StageStats:
        with self._lock:
            return self._stages.get(name, StageStats())

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def prefixed_stages(self, prefix: str) -> dict[str, StageStats]:
        """Copies of every stage whose name starts with *prefix*.

        The fleet layer uses this to pull the per-shard drain timings
        (``prefix="shard:"``) into its status payload.
        """
        with self._lock:
            return {
                name: StageStats(s.calls, s.seconds, s.items)
                for name, s in sorted(self._stages.items())
                if name.startswith(prefix)
            }

    def snapshot(self) -> dict:
        """JSON-ready view: per-stage timings plus raw counters."""
        with self._lock:
            return {
                "stages": {
                    name: {
                        "calls": s.calls,
                        "seconds": s.seconds,
                        "items": s.items,
                        "mean_ms": s.mean_ms,
                        "items_per_second": s.items_per_second,
                    }
                    for name, s in sorted(self._stages.items())
                },
                "counters": dict(sorted(self._counters.items())),
            }

    def reset(self) -> None:
        with self._lock:
            self._stages.clear()
            self._counters.clear()

    def report(self) -> str:
        """Aligned text table of every recorded stage and counter."""
        snap = self.snapshot()
        lines = [f"{'stage':<12} {'calls':>7} {'total s':>9} {'mean ms':>9} {'items/s':>11}"]
        known = [s for s in STAGES if s in snap["stages"]]
        extra = [s for s in snap["stages"] if s not in STAGES]
        for name in known + extra:
            s = snap["stages"][name]
            lines.append(
                f"{name:<12} {s['calls']:>7} {s['seconds']:>9.3f} "
                f"{s['mean_ms']:>9.3f} {s['items_per_second']:>11.1f}"
            )
        if snap["counters"]:
            lines.append("")
            for name, value in snap["counters"].items():
                lines.append(f"{name:<24} {value}")
        return "\n".join(lines)


_GLOBAL = Instrumentation()


def get_instrumentation() -> Instrumentation:
    """The process-wide instrumentation registry."""
    return _GLOBAL
