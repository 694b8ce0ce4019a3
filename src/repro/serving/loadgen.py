"""Deterministic traffic-replay load generator for the serving gateway.

Replays the bursty multi-tenant query shapes of production dashboards
(cf. *Synthetic Time Series for Anomaly Detection in Cloud Microservices*,
PAPERS.md) against a :class:`~repro.serving.gateway.ServingGateway` on a
**virtual clock**:

* Arrivals per tenant come from a seeded two-state burst-modulated Poisson
  process (quiet rate / burst rate with exponential dwell times), so the
  same seed replays the same request schedule bit-for-bit.
* ``open`` mode submits on the arrival schedule regardless of completions
  (the saturation probe); ``closed`` mode models N users per tenant, each
  issuing its next request one think-time after its previous response.
* Service is modelled as a single server: queue waits accrue in virtual
  time while each request's service time is the *measured* wall-clock of
  actually rendering the dashboard — so p50/p99 latencies are real work,
  only the waiting is simulated.
* Scripted ``actions`` fire at virtual times (the mid-replay lifecycle
  promotion in the bench), and every response's model-version tag is
  checked against the version active at its serve time — a served-stale
  response is counted, and asserted zero by the bench and CI smoke.

:func:`demo_gateway` builds the self-contained synthetic deployment the
``loadgen`` CLI, the tests, and ``run_serving_check`` share.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.serving.gateway import Request, ServingGateway, TenantSpec
from repro.telemetry.frame import NodeSeries
from repro.util.rng import ensure_rng

__all__ = [
    "TrafficProfile",
    "BurstyArrivals",
    "ReplayReport",
    "ReplayHarness",
    "SeriesBank",
    "demo_gateway",
]


@dataclass(frozen=True)
class TrafficProfile:
    """Traffic shape of one tenant.

    Parameters
    ----------
    tenant:
        Name of a tenant the gateway's scheduler knows (its admission
        contract — priority, quota, SLO — lives in the
        :class:`~repro.serving.gateway.TenantSpec` registered there).
    mix:
        ``(dashboard, weight)`` pairs the tenant draws requests from.
    rate_hz:
        Mean arrival rate over the replay horizon (open loop).
    burst_factor / burst_fraction / mean_burst_s:
        Burst modulation: the process spends ``burst_fraction`` of its
        time in a burst state arriving ``burst_factor`` times faster,
        with exponential dwell of mean ``mean_burst_s`` seconds.
    users / think_s:
        Closed-loop shape: concurrent users per tenant and the think time
        between a response and that user's next request.
    """

    tenant: str
    mix: tuple[tuple[str, float], ...] = (("anomaly_detection", 1.0),)
    rate_hz: float = 20.0
    burst_factor: float = 3.0
    burst_fraction: float = 0.2
    mean_burst_s: float = 0.5
    users: int = 4
    think_s: float = 0.05

    def __post_init__(self) -> None:
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be > 0")
        if not self.mix or any(w <= 0 for _, w in self.mix):
            raise ValueError("mix must be non-empty with positive weights")
        if self.burst_factor < 1.0 or not (0.0 <= self.burst_fraction < 1.0):
            raise ValueError("burst_factor >= 1 and 0 <= burst_fraction < 1 required")


class BurstyArrivals:
    """Seeded two-state (quiet/burst) Poisson arrival process."""

    def __init__(self, profile: TrafficProfile, seed: int):
        self.profile = profile
        self.rng = np.random.default_rng(seed)
        # Solve the quiet rate so the long-run mean is rate_hz:
        #   mean = f * burst_rate + (1 - f) * quiet_rate
        f, b = profile.burst_fraction, profile.burst_factor
        self.burst_rate = profile.rate_hz * b
        quiet = profile.rate_hz * (1.0 - f * b) / (1.0 - f) if f else profile.rate_hz
        self.quiet_rate = max(quiet, 0.05 * profile.rate_hz)

    def times(self, horizon_s: float) -> list[float]:
        """Arrival instants on ``[0, horizon_s)``, deterministic per seed."""
        f = self.profile.burst_fraction
        mean_burst = self.profile.mean_burst_s
        mean_quiet = mean_burst * (1.0 - f) / f if f > 0 else math.inf
        # Start in the chain's stationary state, not always-quiet: a short
        # horizon would otherwise never leave the initial quiet dwell and
        # deliver a fraction of the advertised rate.
        bursting = f > 0 and float(self.rng.random()) < f
        t, out = 0.0, []
        switch_at = (
            float(self.rng.exponential(mean_burst if bursting else mean_quiet))
            if mean_quiet < math.inf
            else math.inf
        )
        while t < horizon_s:
            rate = self.burst_rate if bursting else self.quiet_rate
            t_next = t + float(self.rng.exponential(1.0 / rate))
            if t_next >= switch_at:
                t = switch_at
                bursting = not bursting
                dwell = mean_burst if bursting else mean_quiet
                switch_at = t + float(self.rng.exponential(dwell))
                continue
            t = t_next
            if t < horizon_s:
                out.append(t)
        return out


@dataclass
class _Arrival:
    t: float
    tenant: str
    dashboard: str
    job_id: int
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class ReplayReport:
    """Outcome of one replay: conservation counters + the SLO snapshot."""

    mode: str
    horizon_s: float
    virtual_seconds: float
    wall_seconds: float
    issued: dict[str, int]
    completed: int
    stale_responses: int
    versions_served: list[str]
    priority_inversions: int
    slo: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "horizon_s": self.horizon_s,
            "virtual_seconds": self.virtual_seconds,
            "wall_seconds": self.wall_seconds,
            "issued": dict(self.issued),
            "completed": self.completed,
            "stale_responses": self.stale_responses,
            "versions_served": list(self.versions_served),
            "priority_inversions": self.priority_inversions,
            "slo": self.slo,
        }


class ReplayHarness:
    """Drive a gateway with seeded multi-tenant traffic on a virtual clock.

    Parameters
    ----------
    gateway:
        The gateway under load.  Its scheduler must know every profile's
        tenant.
    profiles:
        One :class:`TrafficProfile` per tenant.
    jobs:
        Job ids requests draw from (uniformly, seeded).
    seed:
        Base seed; each tenant's arrival process derives its own stream.
    actions:
        ``(virtual_time, callable)`` pairs fired once the replay clock
        passes ``virtual_time`` — e.g. a lifecycle promotion mid-replay.
    onsets:
        ``(job_id, component_id, virtual_time)`` fault onsets registered
        with the SLO tracker for lead-time accounting.
    """

    def __init__(
        self,
        gateway: ServingGateway,
        profiles: Sequence[TrafficProfile],
        jobs: Sequence[int],
        *,
        seed: int = 0,
        actions: Sequence[tuple[float, Callable[[], Any]]] = (),
        onsets: Sequence[tuple[int, int, float]] = (),
    ):
        if not profiles:
            raise ValueError("at least one traffic profile is required")
        self.gateway = gateway
        self.profiles = {p.tenant: p for p in profiles}
        self.jobs = list(jobs)
        if not self.jobs:
            raise ValueError("at least one job id is required")
        self.seed = int(seed)
        self._actions = sorted(actions, key=lambda a: a[0])
        for job_id, component_id, t in onsets:
            gateway.tracker.record_onset(job_id, component_id, t)

    # -- schedule generation ---------------------------------------------------

    def open_schedule(self, horizon_s: float) -> list[_Arrival]:
        """The merged, time-sorted arrival schedule (deterministic)."""
        arrivals: list[_Arrival] = []
        for i, (name, profile) in enumerate(sorted(self.profiles.items())):
            times = BurstyArrivals(profile, seed=self.seed * 7919 + i).times(horizon_s)
            picker = np.random.default_rng(self.seed * 104729 + i)
            for t in times:
                arrivals.append(self._draw(picker, name, profile, t))
        arrivals.sort(key=lambda a: (a.t, a.tenant))
        return arrivals

    def _draw(self, rng, tenant: str, profile: TrafficProfile, t: float) -> _Arrival:
        names = [d for d, _ in profile.mix]
        weights = np.asarray([w for _, w in profile.mix], dtype=np.float64)
        dashboard = names[int(rng.choice(len(names), p=weights / weights.sum()))]
        job_id = self.jobs[int(rng.integers(len(self.jobs)))]
        return _Arrival(t=t, tenant=tenant, dashboard=dashboard, job_id=job_id)

    # -- replay ----------------------------------------------------------------

    def run(self, *, horizon_s: float = 10.0, mode: str = "open") -> ReplayReport:
        if mode not in ("open", "closed"):
            raise ValueError(f"mode must be 'open' or 'closed', got {mode!r}")
        wall_start = time.perf_counter()
        self._expected_version = self.gateway.model_version()
        self._pending_actions = list(self._actions)
        self._responses: list[dict] = []
        self._stale = 0
        self._issued: dict[str, int] = {name: 0 for name in self.profiles}
        if mode == "open":
            virtual_end = self._run_open(horizon_s)
        else:
            virtual_end = self._run_closed(horizon_s)
        slo = self.gateway.slo_status()
        versions = sorted({r["gateway"]["model_version"] for r in self._responses})
        return ReplayReport(
            mode=mode,
            horizon_s=horizon_s,
            virtual_seconds=virtual_end,
            wall_seconds=time.perf_counter() - wall_start,
            issued=self._issued,
            completed=len(self._responses),
            stale_responses=self._stale,
            versions_served=versions,
            priority_inversions=self.gateway.scheduler.priority_inversions,
            slo=slo,
        )

    def _fire_actions(self, now: float) -> None:
        while self._pending_actions and self._pending_actions[0][0] <= now:
            _, action = self._pending_actions.pop(0)
            action()
            self._expected_version = self.gateway.model_version()

    def _submit(self, arrival: _Arrival) -> Request | dict:
        self._issued[arrival.tenant] += 1
        return self.gateway.submit(
            arrival.tenant, arrival.dashboard, arrival.job_id,
            now=arrival.t, **arrival.params,
        )

    def _serve_one(self, start_t: float) -> dict | None:
        """Serve the scheduler's next request at virtual time *start_t*."""
        self._fire_actions(start_t)
        responses = self.gateway.pump(now=start_t, max_requests=1)
        if not responses:
            return None
        response = responses[0]
        if response["gateway"]["model_version"] != self._expected_version:
            # A response computed by (or cached from) a demoted version:
            # the invalidation contract says this must never happen.
            self._stale += 1
        self._responses.append(response)
        return response

    def _run_open(self, horizon_s: float) -> float:
        arrivals = self.open_schedule(horizon_s)
        busy_until = 0.0
        idx = 0
        while True:
            pending = any(self.gateway.scheduler.pending().values())
            next_arrival = arrivals[idx].t if idx < len(arrivals) else math.inf
            if not pending:
                if next_arrival is math.inf:
                    break
                arrival = arrivals[idx]
                idx += 1
                self._fire_actions(arrival.t)
                self._submit(arrival)
                busy_until = max(busy_until, arrival.t)
                continue
            if next_arrival <= busy_until:
                arrival = arrivals[idx]
                idx += 1
                self._fire_actions(arrival.t)
                self._submit(arrival)
                continue
            response = self._serve_one(busy_until)
            if response is not None:
                busy_until += response["gateway"]["service_s"]
        return busy_until

    def _run_closed(self, horizon_s: float) -> float:
        # One heap of (ready_time, tie, tenant) virtual users; each user's
        # next request follows its previous completion by think_s.
        ready: list[tuple[float, int, str]] = []
        tie = 0
        for name, profile in sorted(self.profiles.items()):
            for _ in range(profile.users):
                heapq.heappush(ready, (0.0, tie, name))
                tie += 1
        pickers = {
            name: np.random.default_rng(self.seed * 15485863 + i)
            for i, name in enumerate(sorted(self.profiles))
        }
        busy_until = 0.0
        while ready:
            t_ready, _, name = heapq.heappop(ready)
            if t_ready >= horizon_s:
                continue
            profile = self.profiles[name]
            arrival = self._draw(pickers[name], name, profile, t_ready)
            self._fire_actions(arrival.t)
            outcome = self._submit(arrival)
            if isinstance(outcome, dict):  # rejected: back off one think time
                heapq.heappush(ready, (t_ready + profile.think_s, tie, name))
                tie += 1
                continue
            start_t = max(busy_until, t_ready)
            response = self._serve_one(start_t)
            if response is None:  # shed before service: user retries
                heapq.heappush(ready, (start_t + profile.think_s, tie, name))
                tie += 1
                continue
            busy_until = start_t + response["gateway"]["service_s"]
            heapq.heappush(ready, (busy_until + profile.think_s, tie, name))
            tie += 1
        return busy_until


class SeriesBank:
    """In-memory :class:`DataGenerator` stand-in over a list of node series.

    Provides the three methods the serving layer actually uses
    (``job_series`` / ``node_series`` / ``all_job_ids``), so a gateway can
    front telemetry loaded from CSV or synthesised on the fly without a
    DSOS store behind it.
    """

    def __init__(self, series: Sequence[NodeSeries]):
        self._by_job: dict[int, list[NodeSeries]] = {}
        for s in series:
            self._by_job.setdefault(int(s.job_id), []).append(s)

    def job_series(self, job_id: int) -> list[NodeSeries]:
        if job_id not in self._by_job:
            raise LookupError(f"job {job_id} not found in the store")
        return list(self._by_job[job_id])

    def node_series(self, job_id: int, component_id: int) -> NodeSeries:
        for s in self.job_series(job_id):
            if s.component_id == component_id:
                return s
        raise LookupError(f"component {component_id} not in job {job_id}")

    def all_job_ids(self) -> np.ndarray:
        return np.array(sorted(self._by_job), dtype=np.int64)


def demo_deployment(series: Sequence[NodeSeries], *, seed: int = 0, n_keep: int = 48):
    """Variance-ranked pipeline + tiny detector fitted on unlabeled *series*.

    The same fast-deployment pattern as ``runtime stats`` / ``fleet run``:
    no chi-square search, no real training campaign — just enough of a
    fitted deployment to serve dashboards with real extraction costs.
    """
    from repro.core import ProdigyDetector
    from repro.features import FeatureExtractor
    from repro.pipeline import DataPipeline

    pipeline = DataPipeline(FeatureExtractor(resample_points=32), n_features=n_keep)
    pipeline.fit_from_series(series)
    detector = ProdigyDetector(
        hidden_dims=(16, 8), latent_dim=4, epochs=20, batch_size=16,
        learning_rate=1e-3, seed=seed,
    )
    train = pipeline.transform_series(list(series))
    detector.fit(train)
    # The default 99th-percentile threshold interpolates below the worst
    # training row on tiny fleets, guaranteeing a false positive; clear it
    # to just above the worst healthy reconstruction instead.
    detector.set_threshold(float(detector.anomaly_score(train).max()) + 0.01)
    return pipeline, detector


def demo_gateway(
    *,
    n_jobs: int = 3,
    nodes: int = 2,
    n_metrics: int = 6,
    n_samples: int = 96,
    seed: int = 0,
    tenants: Sequence[TenantSpec] | None = None,
    cache_size: int = 256,
    version_source: Callable[[], str] | None = None,
    healthy_references: int = 0,
):
    """A self-contained synthetic gateway deployment.

    Synthesises ``n_jobs`` healthy jobs plus one anomalous job (node 0's
    telemetry shifted far out of distribution so the detector reliably
    flags it), fits a variance-ranked deployment on the healthy jobs, and wraps
    it in a two-tier-ready gateway.  Returns
    ``(gateway, service, job_ids, anomalous_job)``.

    Shared by the ``loadgen`` CLI subcommand, the gateway test suite, and
    ``run_serving_check`` so all three replay the same deployment shape.
    """
    from repro.pipeline import AnomalyDetectorService
    from repro.serving.service import AnalyticsService

    rng = ensure_rng(seed)
    names = tuple(f"m{i}" for i in range(n_metrics))
    t = np.arange(float(n_samples))

    def healthy_values() -> np.ndarray:
        # Structured telemetry the VAE can actually learn: per-metric
        # sinusoids with stable phases plus small jitter.  A pure-noise
        # baseline would give the detector no manifold to model, and any
        # injected anomaly would score in-distribution.
        phases = np.arange(n_metrics) / n_metrics + rng.normal(0.0, 0.02, n_metrics)
        waves = 0.5 + 0.35 * np.sin(
            2.0 * np.pi * (t[:, None] / 24.0 + phases[None, :])
        )
        return waves + rng.normal(0.0, 0.02, (n_samples, n_metrics))

    healthy: list[NodeSeries] = []
    for job in range(1, n_jobs + 1):
        for comp in range(nodes):
            healthy.append(NodeSeries(job, comp, t, healthy_values(), names))
    anomalous_job = n_jobs + 1
    anomaly_rows = []
    for comp in range(nodes):
        if comp == 0:
            # Break the learned shape, not just the offset: a runaway ramp
            # with heavy noise replaces the periodic structure entirely.
            values = (
                np.linspace(0.0, 6.0, n_samples)[:, None]
                + rng.normal(0.0, 1.5, (n_samples, n_metrics))
            )
        else:
            values = healthy_values()
        anomaly_rows.append(NodeSeries(anomalous_job, comp, t, values, names))
    pipeline, detector = demo_deployment(healthy, seed=seed)
    bank = SeriesBank(healthy + anomaly_rows)
    detector_service = AnomalyDetectorService(bank, pipeline, detector)
    refs = healthy[:healthy_references] if healthy_references else None
    service = AnalyticsService(detector_service, refs)
    if tenants is None:
        tenants = (
            TenantSpec("dashboard", priority="interactive", rate=200.0, burst=50.0,
                       queue_capacity=128, p99_slo_ms=250.0),
            TenantSpec("analytics", priority="batch", rate=100.0, burst=50.0,
                       queue_capacity=64, deadline_s=5.0, p99_slo_ms=5000.0),
        )
    gateway = ServingGateway(
        service, tenants, cache_size=cache_size, version_source=version_source
    )
    job_ids = list(range(1, n_jobs + 1)) + [anomalous_job]
    return gateway, service, job_ids, anomalous_job
