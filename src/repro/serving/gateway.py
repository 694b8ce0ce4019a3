"""Multi-tenant serving gateway over :class:`AnalyticsService`.

The paper's serving story is a Grafana dashboard posting job ids to a
Django backend; :class:`~repro.serving.service.AnalyticsService` reproduces
that flow one caller at a time.  This module is the request front-end that
makes the flow survive *many* callers:

* :class:`RequestScheduler` — per-tenant token-bucket quotas, bounded
  admission queues with counted rejections, deadline-based shedding, and
  strict priority classes: ``interactive`` dashboard reads are always
  dispatched before ``batch`` retrain/explain work (round-robin within a
  class so no tenant starves its peers).
* :class:`ResponseCache` — LRU response cache keyed on
  ``(dashboard, job, params, model-version)``.  The model version is part
  of the key, so a lifecycle promotion/hot-swap makes every pre-promotion
  entry unreachable by construction — a stale verdict can never be served;
  the promotion listener then purges those unreachable entries.
* :class:`SloTracker` — per-tenant latency reservoirs (p50/p99), the
  queue-wait vs service-time split, rejection/shed/error rates, and the
  operator-facing early-warning lead time: for each (job, node) with a
  registered fault onset, how far ahead of the onset the first anomalous
  verdict was served.

Time is injectable everywhere (``now=`` on submit/pump): the traffic-replay
harness (:mod:`repro.serving.loadgen`) drives a virtual clock so replays
are deterministic, while live callers simply omit ``now``.

Stage timings land in the shared :mod:`repro.runtime.instrumentation`
registry (``gateway:serve`` plus per-tenant ``slo:<tenant>:wait`` /
``slo:<tenant>:service``), and the whole SLO picture is surfaced as a new
``slo`` dashboard section registered on the wrapped service.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.runtime.instrumentation import Instrumentation, get_instrumentation
from repro.serving.errors import ServingError, error_envelope
from repro.serving.service import AnalyticsService

__all__ = [
    "PRIORITY_CLASSES",
    "CACHEABLE_DASHBOARDS",
    "TenantSpec",
    "TokenBucket",
    "RequestScheduler",
    "ResponseCache",
    "SloTracker",
    "ServingGateway",
]

#: Priority classes in dispatch order: every queued ``interactive`` request
#: is served before any ``batch`` one.
PRIORITY_CLASSES = ("interactive", "batch")

#: Dashboards whose responses are pure functions of (job, params, model
#: version) and therefore cacheable.  Live-state panels (lifecycle, fleet,
#: slo) are never cached.
CACHEABLE_DASHBOARDS = frozenset({"anomaly_detection", "node_analysis", "history"})

#: Model-version tag used when no lifecycle registry is attached.
UNVERSIONED = "unversioned"


@dataclass(frozen=True)
class TenantSpec:
    """Admission contract of one tenant.

    Parameters
    ----------
    name:
        Tenant id (the dashboard's API key, in production terms).
    priority:
        ``"interactive"`` (dashboard reads) or ``"batch"`` (retrain/explain
        sweeps); interactive requests preempt queued batch work.
    rate:
        Sustained token-bucket refill in requests/second.
    burst:
        Bucket capacity — requests admitted back-to-back after idle.
    queue_capacity:
        Bound on this tenant's admission queue; the queue full means
        rejection (counted), not unbounded buffering.
    deadline_s:
        Default per-request deadline.  A request still queued when its
        deadline passes is shed (counted) instead of served late.
    p99_slo_ms:
        The tenant's latency objective; :class:`SloTracker` reports
        ``slo_met`` against it.
    """

    name: str
    priority: str = "interactive"
    rate: float = 50.0
    burst: float = 20.0
    queue_capacity: int = 64
    deadline_s: float | None = None
    p99_slo_ms: float = 250.0

    def __post_init__(self) -> None:
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"priority must be one of {PRIORITY_CLASSES}, got {self.priority!r}"
            )
        if self.rate <= 0 or self.burst <= 0:
            raise ValueError("rate and burst must be > 0")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")


class TokenBucket:
    """Deterministic token bucket (time injected, never sampled).

    The epoch is set by the *first* ``try_take``, so the same bucket works
    against the live monotonic clock and a replay's virtual clock starting
    at zero.
    """

    def __init__(self, rate: float, burst: float):
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last: float | None = None

    def try_take(self, now: float) -> bool:
        if self._last is not None and now > self._last:
            self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
        self._last = now if self._last is None else max(self._last, now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class Request:
    """One admitted dashboard request waiting in a tenant queue."""

    seq: int
    tenant: str
    dashboard: str
    job_id: int
    params: dict[str, Any]
    submitted_at: float
    deadline: float | None = None


@dataclass
class _TenantState:
    spec: TenantSpec
    bucket: TokenBucket
    queue: deque = field(default_factory=deque)
    admitted: int = 0
    rejected_quota: int = 0
    rejected_queue_full: int = 0
    shed_deadline: int = 0
    served: int = 0
    errors: int = 0


class RequestScheduler:
    """Admission control + priority dispatch over per-tenant bounded queues."""

    def __init__(self, tenants: Iterable[TenantSpec]):
        self._tenants: dict[str, _TenantState] = {}
        for spec in tenants:
            if spec.name in self._tenants:
                raise ValueError(f"duplicate tenant {spec.name!r}")
            self._tenants[spec.name] = _TenantState(
                spec, TokenBucket(spec.rate, spec.burst)
            )
        if not self._tenants:
            raise ValueError("at least one tenant is required")
        #: round-robin cursor per priority class, so same-class tenants
        #: share dispatch capacity fairly.
        self._cursor = {cls: 0 for cls in PRIORITY_CLASSES}
        self.priority_inversions = 0
        self._seq = 0

    @property
    def tenant_names(self) -> tuple[str, ...]:
        return tuple(self._tenants)

    def spec(self, tenant: str) -> TenantSpec:
        return self._state(tenant).spec

    def _state(self, tenant: str) -> _TenantState:
        try:
            return self._tenants[tenant]
        except KeyError:
            raise ServingError(
                "unknown_tenant",
                f"unknown tenant {tenant!r}; available: {sorted(self._tenants)}",
                available=self._tenants,
            ) from None

    # -- admission -------------------------------------------------------------

    def admit(
        self,
        tenant: str,
        dashboard: str,
        job_id: int,
        params: dict[str, Any],
        *,
        now: float,
        deadline_s: float | None = None,
    ) -> Request | dict[str, Any]:
        """Admit a request or return its structured rejection envelope."""
        state = self._state(tenant)
        if not state.bucket.try_take(now):
            state.rejected_quota += 1
            return error_envelope(
                "quota_exhausted",
                f"tenant {tenant!r} over its {state.spec.rate:g} req/s quota",
            )
        if len(state.queue) >= state.spec.queue_capacity:
            state.rejected_queue_full += 1
            return error_envelope(
                "queue_full",
                f"tenant {tenant!r} admission queue at capacity "
                f"({state.spec.queue_capacity})",
            )
        self._seq += 1
        horizon = deadline_s if deadline_s is not None else state.spec.deadline_s
        request = Request(
            seq=self._seq,
            tenant=tenant,
            dashboard=dashboard,
            job_id=job_id,
            params=dict(params),
            submitted_at=now,
            deadline=None if horizon is None else now + horizon,
        )
        state.queue.append(request)
        state.admitted += 1
        return request

    # -- dispatch --------------------------------------------------------------

    def shed_expired(self, now: float) -> int:
        """Drop queued requests whose deadline has passed; return the count."""
        shed = 0
        for state in self._tenants.values():
            kept = deque()
            for request in state.queue:
                if request.deadline is not None and request.deadline < now:
                    state.shed_deadline += 1
                    shed += 1
                else:
                    kept.append(request)
            state.queue = kept
        return shed

    def next_request(self, now: float) -> Request | None:
        """Pop the next request: strict priority, round-robin within class."""
        self.shed_expired(now)
        for cls in PRIORITY_CLASSES:
            names = [n for n, s in self._tenants.items() if s.spec.priority == cls]
            if not names:
                continue
            start = self._cursor[cls] % len(names)
            for offset in range(len(names)):
                state = self._tenants[names[(start + offset) % len(names)]]
                if state.queue:
                    self._cursor[cls] = (start + offset + 1) % len(names)
                    request = state.queue.popleft()
                    if cls != PRIORITY_CLASSES[0] and self._interactive_pending():
                        # Defensive observability: unreachable by
                        # construction, counted so the replay harness can
                        # assert zero.
                        self.priority_inversions += 1
                    return request
        return None

    def _interactive_pending(self) -> bool:
        return any(
            s.queue for s in self._tenants.values()
            if s.spec.priority == PRIORITY_CLASSES[0]
        )

    def pending(self) -> dict[str, int]:
        return {name: len(state.queue) for name, state in self._tenants.items()}

    def counters(self) -> dict[str, dict[str, int]]:
        return {
            name: {
                "admitted": s.admitted,
                "served": s.served,
                "rejected_quota": s.rejected_quota,
                "rejected_queue_full": s.rejected_queue_full,
                "shed_deadline": s.shed_deadline,
                "errors": s.errors,
                "pending": len(s.queue),
            }
            for name, s in self._tenants.items()
        }


def _freeze(value: Any) -> Any:
    """Hashable, order-independent form of a request parameter value."""
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, set)):
        items = [_freeze(v) for v in value]
        return tuple(sorted(items)) if isinstance(value, set) else tuple(items)
    return value


class ResponseCache:
    """Bounded LRU of dashboard responses, model-version aware.

    Keys are ``(dashboard, job_id, frozen params, model_version)``.
    Because the serving model version is *part of the key*, entries
    computed by a demoted version are unreachable the instant a promotion
    lands — correctness does not depend on anyone remembering to call
    :meth:`invalidate_except`; that call just reclaims the dead entries
    (and counts them) when the lifecycle promotion listener fires.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @staticmethod
    def key(
        dashboard: str, job_id: int, params: dict[str, Any], model_version: str
    ) -> tuple:
        return (dashboard, job_id, _freeze(params), model_version)

    def get(self, key: tuple) -> dict | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, response: dict) -> None:
        if self.capacity <= 0:
            return
        self._entries[key] = response
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate_except(self, model_version: str) -> int:
        """Purge every entry not computed by *model_version*."""
        doomed = [k for k in self._entries if k[3] != model_version]
        for key in doomed:
            del self._entries[key]
        self.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        self.invalidations += len(self._entries)
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return 0.0 if total == 0 else self.hits / total

    def stats(self) -> dict[str, Any]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


class SloTracker:
    """Per-tenant latency reservoirs plus early-warning lead-time accounting."""

    def __init__(self):
        self._wait: dict[str, list[float]] = {}
        self._service: dict[str, list[float]] = {}
        self._cached: dict[str, int] = {}
        self._onsets: dict[tuple[int, int], float] = {}
        self._first_alert: dict[tuple[int, int], float] = {}

    def record(
        self, tenant: str, *, queue_wait_s: float, service_s: float, cached: bool
    ) -> None:
        self._wait.setdefault(tenant, []).append(float(queue_wait_s))
        self._service.setdefault(tenant, []).append(float(service_s))
        if cached:
            self._cached[tenant] = self._cached.get(tenant, 0) + 1

    # -- early-warning lead time ----------------------------------------------

    def record_onset(self, job_id: int, component_id: int, at: float) -> None:
        """Register when an injected fault becomes operator-visible."""
        self._onsets[(int(job_id), int(component_id))] = float(at)

    def note_alert(self, job_id: int, component_id: int, at: float) -> None:
        """First anomalous verdict served for a (job, node); later ones ignored."""
        key = (int(job_id), int(component_id))
        self._first_alert.setdefault(key, float(at))

    def lead_times(self) -> list[float]:
        """Seconds of warning: onset minus first alert, per tracked pair.

        Positive means the first anomalous verdict was served *before* the
        registered fault onset (the Borghesi-style operator value metric).
        """
        return [
            onset - self._first_alert[key]
            for key, onset in sorted(self._onsets.items())
            if key in self._first_alert
        ]

    # -- reporting -------------------------------------------------------------

    def tenant_summary(self, tenant: str, spec: TenantSpec | None = None) -> dict:
        wait = np.asarray(self._wait.get(tenant, ()), dtype=np.float64)
        service = np.asarray(self._service.get(tenant, ()), dtype=np.float64)
        total = wait + service
        n = int(total.size)
        summary = {
            "requests": n,
            "cached": self._cached.get(tenant, 0),
            "p50_ms": float(np.percentile(total, 50) * 1e3) if n else 0.0,
            "p99_ms": float(np.percentile(total, 99) * 1e3) if n else 0.0,
            "queue_wait_ms_mean": float(wait.mean() * 1e3) if n else 0.0,
            "service_ms_mean": float(service.mean() * 1e3) if n else 0.0,
        }
        if spec is not None:
            summary["priority"] = spec.priority
            summary["p99_slo_ms"] = spec.p99_slo_ms
            summary["slo_met"] = bool(n == 0 or summary["p99_ms"] <= spec.p99_slo_ms)
        return summary

    def lead_time_summary(self) -> dict:
        leads = self.lead_times()
        return {
            "tracked_onsets": len(self._onsets),
            "alerted": len(leads),
            "lead_s_mean": float(np.mean(leads)) if leads else None,
            "lead_s_min": float(np.min(leads)) if leads else None,
            "lead_s_max": float(np.max(leads)) if leads else None,
        }


class ServingGateway:
    """The multi-tenant front door: scheduler + cache + SLO instrumentation.

    Parameters
    ----------
    service:
        The wrapped :class:`AnalyticsService`.  The gateway registers its
        ``slo`` dashboard on it, so ``handle_request(0, "slo")`` works
        through either entry point.
    tenants:
        Admission contracts; at least one.
    cache_size:
        Response-cache entries; ``0`` disables caching.
    version_source:
        Callable returning the serving model-version tag.  Defaults to the
        attached lifecycle registry's active version (``"unversioned"``
        when there is no lifecycle).  Every response carries the tag it was
        computed under.
    clock:
        Time source for live callers (default ``time.monotonic``); replay
        harnesses bypass it by passing ``now=`` explicitly.
    """

    def __init__(
        self,
        service: AnalyticsService,
        tenants: Sequence[TenantSpec],
        *,
        cache_size: int = 256,
        cacheable: frozenset[str] | None = None,
        version_source: Callable[[], str] | None = None,
        instrumentation: Instrumentation | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.service = service
        self._clock = clock
        self.instrumentation = instrumentation or get_instrumentation()
        self.scheduler = RequestScheduler(tenants)
        self.cache = ResponseCache(cache_size)
        self.cacheable = CACHEABLE_DASHBOARDS if cacheable is None else cacheable
        self.tracker = SloTracker()
        self._version_source = version_source or self._lifecycle_version
        self._last_version = self._version_source()
        self._unclaimed: dict[int, dict] = {}
        service.register_dashboard("slo", self.slo_dashboard)
        lifecycle = getattr(service, "lifecycle", None)
        if lifecycle is not None and hasattr(lifecycle, "add_promotion_listener"):
            lifecycle.add_promotion_listener(self._on_promotion)

    # -- model-version tracking -----------------------------------------------

    def _lifecycle_version(self) -> str:
        lifecycle = getattr(self.service, "lifecycle", None)
        if lifecycle is not None:
            active = lifecycle.registry.active_version
            if active is not None:
                return active
        return UNVERSIONED

    def model_version(self) -> str:
        """Current serving version; a change purges dead cache entries."""
        version = self._version_source()
        if version != self._last_version:
            self.cache.invalidate_except(version)
            self._last_version = version
        return version

    def _on_promotion(self, version: str) -> None:
        """Lifecycle promotion hook: reclaim entries of the demoted version."""
        self.cache.invalidate_except(version)
        self._last_version = version
        self.instrumentation.count("gateway_promotions", 1)

    # -- request path ----------------------------------------------------------

    def submit(
        self,
        tenant: str,
        dashboard: str,
        job_id: int = 0,
        *,
        now: float | None = None,
        deadline_s: float | None = None,
        **params: Any,
    ) -> Request | dict[str, Any]:
        """Admit one request; returns the queued :class:`Request` or a
        rejection envelope (already carrying its ``gateway`` meta)."""
        now = self._clock() if now is None else now
        outcome = self.scheduler.admit(
            tenant, dashboard, job_id, params, now=now, deadline_s=deadline_s
        )
        if isinstance(outcome, dict):
            outcome["gateway"] = {
                "tenant": tenant,
                "rejected": True,
                "reason": outcome["error"]["code"],
                "model_version": self.model_version(),
            }
        return outcome

    def pump(
        self, *, now: float | None = None, max_requests: int | None = None
    ) -> list[dict[str, Any]]:
        """Serve queued requests in priority order; returns the responses."""
        now = self._clock() if now is None else now
        served: list[dict[str, Any]] = []
        while max_requests is None or len(served) < max_requests:
            request = self.scheduler.next_request(now)
            if request is None:
                break
            served.append(self._serve(request, now))
        return served

    def request(
        self,
        tenant: str,
        dashboard: str,
        job_id: int = 0,
        *,
        now: float | None = None,
        **params: Any,
    ) -> dict[str, Any]:
        """Submit + serve synchronously (the CLI's one-shot path)."""
        outcome = self.submit(tenant, dashboard, job_id, now=now, **params)
        if isinstance(outcome, dict):
            return outcome
        for response in self.pump(now=now):
            self._unclaimed[response["gateway"]["seq"]] = response
        return self._unclaimed.pop(outcome.seq)

    def _serve(self, request: Request, now: float) -> dict[str, Any]:
        version = self.model_version()
        queue_wait = max(0.0, now - request.submitted_at)
        state = self.scheduler._state(request.tenant)
        cacheable = self.cache.capacity > 0 and request.dashboard in self.cacheable
        key = ResponseCache.key(request.dashboard, request.job_id, request.params, version)
        cached_payload = self.cache.get(key) if cacheable else None

        start = time.perf_counter()
        error = False
        if cached_payload is not None:
            payload, cached = cached_payload, True
        else:
            try:
                payload = self.service.handle_request(
                    request.job_id, request.dashboard, **request.params
                )
            except ServingError as exc:
                payload = exc.envelope()
            cached = False
            error = "error" in payload
            if cacheable and not error:
                self.cache.put(key, payload)
        service_s = time.perf_counter() - start

        state.served += 1
        if error:
            state.errors += 1
        self.tracker.record(
            request.tenant, queue_wait_s=queue_wait, service_s=service_s, cached=cached
        )
        inst = self.instrumentation
        inst.record("gateway:serve", service_s, items=1)
        inst.record(f"slo:{request.tenant}:wait", queue_wait, items=1)
        inst.record(f"slo:{request.tenant}:service", service_s, items=1)
        if request.dashboard == "anomaly_detection" and not payload.get("error"):
            for node in payload.get("nodes", ()):
                if node.get("prediction") == "anomalous":
                    self.tracker.note_alert(
                        request.job_id, node["component_id"], at=now
                    )
        response = dict(payload)
        response["gateway"] = {
            "tenant": request.tenant,
            "seq": request.seq,
            "model_version": version,
            "cached": cached,
            "queue_wait_s": queue_wait,
            "service_s": service_s,
            "latency_ms": (queue_wait + service_s) * 1e3,
        }
        return response

    # -- the slo dashboard -----------------------------------------------------

    def slo_dashboard(self, job_id: int | None = None, **_: Any) -> dict[str, Any]:
        """Tenant-facing SLO panel (``job_id`` accepted but irrelevant)."""
        return self.slo_status()

    def slo_status(self) -> dict[str, Any]:
        counters = self.scheduler.counters()
        tenants = {}
        for name in self.scheduler.tenant_names:
            summary = self.tracker.tenant_summary(name, self.scheduler.spec(name))
            summary.update(counters[name])
            tenants[name] = summary
        return {
            "model_version": self.model_version(),
            "tenants": tenants,
            "scheduler": {
                "priority_inversions": self.scheduler.priority_inversions,
                "pending": self.scheduler.pending(),
            },
            "cache": self.cache.stats(),
            "lead_time": self.tracker.lead_time_summary(),
        }
