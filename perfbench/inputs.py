"""Seeded input synthesis for the deployment-loop benchmark.

Everything the measured program receives is built here, before any set-up
clock starts: the labelled training campaign, the live fleet's telemetry cut
into 16-row chunks (a preprocessed node chunk for the scorers plus the raw
per-sampler rows for the store), the finished jobs that prefill the store,
and the dashboard request schedule.  The same ``(workload, seed, seconds)``
always yields the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.monitoring.sampler import SamplerDaemon
from repro.scenarios import get_scenario, load_scenario_series, simulate_scenario
from repro.telemetry import NodeSeries, TelemetryFrame
from repro.telemetry.preprocessing import standard_preprocess

SCENARIO = "hpc-node"
CHUNK_ROWS = 16
NODES_PER_JOB = 4
TRIM_S = 30.0

#: Rolling-window deployment shared by both workloads.
WINDOW_S = 96.0
EVALUATE_EVERY = 16
CONSECUTIVE_ALERTS = 3

#: Labelled training campaign the pipeline and detector are fitted on.  It
#: is the site's trained model, not traffic, so it does not vary with
#: ``--seed``: the selected features, and with them the per-window work of
#: every layer, stay fixed while the seed varies the live telemetry, the
#: finished jobs and the request schedule.
TRAIN_JOBS, TRAIN_ANOMALOUS, TRAIN_DURATION_S = 16, 8, 300
TRAIN_SEED = 0
#: Healthy node series replayed by window-threshold calibration.
CALIBRATION_SERIES = 2

#: Live fleets: healthy jobs + anomalous jobs (node 0 of each carries an
#: injector, cycling through the Table-2 suite).
WIDE_LIVE_JOBS = (6, 6)
OPS_LIVE_JOBS = (2, 6)
#: Finished jobs prefilled into the store for the dashboards.
FINISHED_JOBS = (9, 3)
FINISHED_DURATION_S = 240
LIVE_JOB_OFFSET = 100

#: Workload length per second of ``--seconds`` (counts, never wall time),
#: sized so one loop takes about ``--seconds`` on a 2-vCPU Xeon host.
WIDE_CHUNKS_PER_S = 250
OPS_CHUNKS_PER_S = 75
OPS_REQUESTS_PER_S = 15
#: Virtual seconds of ops-mixed schedule per second of ``--seconds``; it
#: keeps the single server busy about 30% of the time (the busier the
#: server, the more queueing amplifies the host's speed noise).
OPS_VIRTUAL_PER_S = 2.8
#: One batch drill-down per this many wide-ingest chunks, served on the
#: coordinator core that otherwise idles on backpressure.
WIDE_DRILLDOWN_EVERY = 28

#: Interactive share of ops-mixed requests, and how many of the finished
#: jobs the interactive tenant watches (the rest are drill-down only).
#: Interactive requests are response-cache hits, so this share keeps the
#: hit/miss boundary of the dashboard latencies far below their p50.
OPS_INTERACTIVE_SHARE = 0.2
OPS_WATCHED_JOBS = 2


@dataclass
class Chunk:
    """One live telemetry chunk: scorer input plus the raw store rows."""

    seq: int
    due: float
    series: NodeSeries
    raw: list[tuple[str, TelemetryFrame]]

    @property
    def key(self) -> tuple[int, int]:
        return (self.series.job_id, self.series.component_id)


@dataclass
class DashboardRequest:
    seq: int
    due: float
    tenant: str
    dashboard: str
    job_id: int
    params: dict = field(default_factory=dict)


@dataclass
class Inputs:
    workload: str
    seed: int
    catalog: object
    train_series: list[NodeSeries]
    train_labels: np.ndarray
    calibration_series: list[NodeSeries]
    live_labels: dict[tuple[int, int], int]
    chunks: list[Chunk]
    #: per-node rounds needed before every ring holds a full window
    warmup_rounds: int
    n_live_nodes: int
    prefill: list[tuple[str, TelemetryFrame]]
    requests: list[DashboardRequest]
    #: due time of the first steady-state chunk (ops-mixed); events due
    #: earlier fill the rings and the response cache and are not timed
    warm_s: float = 0.0

    @property
    def steady_seq(self) -> int:
        """Sequence number of the first chunk after the ring-filling rounds."""
        return self.warmup_rounds * self.n_live_nodes

    @property
    def steady_rows(self) -> int:
        """Node-rows submitted from steady state on."""
        return (len(self.chunks) - self.steady_seq) * CHUNK_ROWS


def _seed(seed: int, stream: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([int(seed), stream])


def _sim_seed(seed: int, stream: int) -> int:
    return int(_seed(seed, stream).generate_state(1)[0])


def _relabel(frame: TelemetryFrame, job_offset: int) -> TelemetryFrame:
    return TelemetryFrame(
        frame.job_id + job_offset, frame.component_id, frame.timestamp,
        frame.values, frame.metric_names,
    )


def _sampler_blocks(daemon, raw: NodeSeries) -> list[tuple[str, TelemetryFrame]]:
    return [
        (s.sampler, TelemetryFrame.from_node_series([s.series]))
        for s in daemon.sample(raw)
    ]


def _training(scenario):
    run = simulate_scenario(
        scenario, jobs=TRAIN_JOBS, anomalous_jobs=TRAIN_ANOMALOUS,
        nodes=NODES_PER_JOB, duration_s=TRAIN_DURATION_S, seed=_sim_seed(TRAIN_SEED, 1),
    )
    series = load_scenario_series(run.frame, scenario, trim_seconds=TRIM_S)
    labels = np.array([run.labels[f"{s.job_id}:{s.component_id}"] for s in series])
    healthy = [s for s, y in zip(series, labels) if y == 0]
    picks = np.random.default_rng(_seed(TRAIN_SEED, 2)).choice(
        len(healthy), CALIBRATION_SERIES, replace=False
    )
    return series, labels, [healthy[int(i)] for i in sorted(picks)]


def _live_nodes(scenario, catalog, jobs: tuple[int, int], rounds: int, seed: int):
    """Per-node (preprocessed, raw) series of a live fleet, plus labels."""
    duration = (rounds + 1) * CHUNK_ROWS
    run = simulate_scenario(
        scenario, jobs=jobs[0], anomalous_jobs=jobs[1], nodes=NODES_PER_JOB,
        duration_s=duration, seed=_sim_seed(seed, 3),
    )
    frame = _relabel(run.frame, LIVE_JOB_OFFSET)
    nodes = []
    for raw in frame.iter_node_series():
        clean = standard_preprocess(raw, catalog.counter_names, trim_seconds=0.0)
        nodes.append((clean, raw))
    labels = {
        (int(k.split(":")[0]) + LIVE_JOB_OFFSET, int(k.split(":")[1])): int(v)
        for k, v in run.labels.items()
    }
    return nodes, labels


def _chunk_stream(daemon, nodes, rounds: int, due_of) -> list[Chunk]:
    """Round-robin interleaved chunks, one per node per round."""
    chunks: list[Chunk] = []
    for r in range(rounds):
        lo, hi = r * CHUNK_ROWS, (r + 1) * CHUNK_ROWS
        for i, (clean, raw) in enumerate(nodes):
            part = NodeSeries(
                clean.job_id, clean.component_id, clean.timestamps[lo:hi],
                clean.values[lo:hi], clean.metric_names,
            )
            raw_part = NodeSeries(
                raw.job_id, raw.component_id, raw.timestamps[lo:hi],
                raw.values[lo:hi], raw.metric_names,
            )
            chunks.append(
                Chunk(len(chunks), due_of(r, i), part, _sampler_blocks(daemon, raw_part))
            )
    return chunks


def _bursty_times(rng: np.random.Generator, n: int, horizon: float) -> list[float]:
    """*n* arrivals of a two-state (quiet/burst) Poisson process on [0, horizon).

    The burst state arrives three times faster and holds a fifth of the
    time; the arrival count is fixed and the instants are scaled onto the
    horizon, so the schedule's length is a count, not a duration.
    """
    burst_factor, burst_fraction, mean_burst = 3.0, 0.2, 5.0
    quiet = (1.0 - burst_fraction * burst_factor) / (1.0 - burst_fraction)
    mean_quiet = mean_burst * (1.0 - burst_fraction) / burst_fraction
    bursting = bool(rng.random() < burst_fraction)
    switch = float(rng.exponential(mean_burst if bursting else mean_quiet))
    t, out = 0.0, []
    while len(out) <= n:
        nxt = t + float(rng.exponential(1.0 / (burst_factor if bursting else quiet)))
        if nxt >= switch:
            t, bursting = switch, not bursting
            switch = t + float(rng.exponential(mean_burst if bursting else mean_quiet))
            continue
        t = nxt
        out.append(t)
    scale = horizon / out[-1]
    return [x * scale for x in out[:n]]


def _sweep_times(rng: np.random.Generator, n: int, horizon: float) -> list[float]:
    """*n* evenly spaced instants on [0, horizon), each jittered by up to 40%."""
    gap = horizon / n
    return [(i + 0.5 + float(rng.uniform(-0.4, 0.4))) * gap for i in range(n)]


def _drilldown(rng, jobs, finished, metric_names, due: float) -> DashboardRequest:
    job = jobs[int(rng.integers(len(jobs)))]
    comps = finished[job]
    metrics = sorted(
        metric_names[int(i)] for i in rng.choice(len(metric_names), 3, replace=False)
    )
    return DashboardRequest(
        0, due, "batch", "node_analysis", job,
        {"component_id": comps[int(rng.integers(len(comps)))], "metrics": metrics},
    )


def _requests(seed: int, n_interactive: int, n_batch: int, warm: float, horizon: float,
              finished, catalog) -> list[DashboardRequest]:
    """Seeded interactive + batch dashboard schedule over finished jobs.

    The interactive tenant's first look at each watched job falls in the
    warm-up, while the rings fill.  The timed requests share the rest of
    the horizon: interactive users arrive in bursts, the batch tenant's
    drill-downs come as a jittered sweep.
    """
    rng = np.random.default_rng(_seed(seed, 5))
    jobs = sorted(finished)
    out = []
    if n_interactive:
        watched = [int(j) for j in rng.choice(jobs, OPS_WATCHED_JOBS, replace=False)]
        out = [
            DashboardRequest(0, warm * (i + 1) / (len(watched) + 2), "interactive",
                             "anomaly_detection", job)
            for i, job in enumerate(watched)
        ]
        for t in _bursty_times(rng, n_interactive, horizon - warm):
            job = watched[int(rng.integers(len(watched)))]
            out.append(DashboardRequest(0, warm + t, "interactive", "anomaly_detection", job))
    metric_names = list(catalog.metric_names)
    out.extend(
        _drilldown(rng, jobs, finished, metric_names, warm + t)
        for t in _sweep_times(rng, n_batch, horizon - warm)
    )
    out.sort(key=lambda r: (r.due, r.tenant))
    for i, r in enumerate(out):
        r.seq = i
    return out


def _finished_jobs(scenario, daemon, seed: int):
    """Finished jobs for the store: per-job components and the prefill blocks."""
    run = simulate_scenario(
        scenario, jobs=FINISHED_JOBS[0], anomalous_jobs=FINISHED_JOBS[1],
        nodes=NODES_PER_JOB, duration_s=FINISHED_DURATION_S, seed=_sim_seed(seed, 4),
    )
    nodes = list(run.frame.iter_node_series())
    finished: dict[int, list[int]] = {}
    for s in nodes:
        finished.setdefault(int(s.job_id), []).append(int(s.component_id))
    # Prefill in arrival order: the finished jobs streamed in 16-row chunks.
    prefill: list[tuple[str, TelemetryFrame]] = []
    for lo in range(0, FINISHED_DURATION_S, CHUNK_ROWS):
        for s in nodes:
            part = NodeSeries(s.job_id, s.component_id, s.timestamps[lo:lo + CHUNK_ROWS],
                              s.values[lo:lo + CHUNK_ROWS], s.metric_names)
            if part.n_timestamps:
                prefill.extend(_sampler_blocks(daemon, part))
    return finished, prefill


def generate(workload: str, seed: int, seconds: int) -> Inputs:
    if workload not in ("wide-ingest", "ops-mixed"):
        raise ValueError(f"unknown workload {workload!r}")
    scenario = get_scenario(SCENARIO)
    catalog = scenario.classes[0].catalog
    daemon = SamplerDaemon(catalog)
    train, labels, calibration = _training(scenario)
    warmup = int(np.ceil(WINDOW_S / CHUNK_ROWS))
    wide = workload == "wide-ingest"
    live_jobs = WIDE_LIVE_JOBS if wide else OPS_LIVE_JOBS
    n_nodes = sum(live_jobs) * NODES_PER_JOB
    per_s = WIDE_CHUNKS_PER_S if wide else OPS_CHUNKS_PER_S
    rounds = max(warmup + 4, int(np.ceil(per_s * seconds / n_nodes)))
    nodes, live_labels = _live_nodes(scenario, catalog, live_jobs, rounds, seed)
    finished, prefill = _finished_jobs(scenario, daemon, seed)
    if wide:
        # Closed loop: the schedule is an order, not a clock.
        chunks = _chunk_stream(daemon, nodes, rounds, lambda r, i: 0.0)
        n_batch = len(chunks) // WIDE_DRILLDOWN_EVERY
        requests = _requests(seed, 0, n_batch, 0.0, 1.0, finished, catalog)
        return Inputs(workload, seed, catalog, train, labels, calibration,
                      live_labels, chunks, warmup, n_nodes, prefill, requests)
    horizon = OPS_VIRTUAL_PER_S * seconds
    period = horizon / rounds
    # Fixed offered rate: every node reports once per period, staggered.
    chunks = _chunk_stream(daemon, nodes, rounds, lambda r, i: (r + i / n_nodes) * period)
    warm = chunks[warmup * n_nodes].due
    n_requests = OPS_REQUESTS_PER_S * seconds
    n_interactive = int(round(n_requests * OPS_INTERACTIVE_SHARE))
    requests = _requests(seed, n_interactive, n_requests - n_interactive, warm, horizon,
                         finished, catalog)
    return Inputs(workload, seed, catalog, train, labels, calibration,
                  live_labels, chunks, warmup, n_nodes, prefill, requests, warm)
