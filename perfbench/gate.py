"""Correctness gate: a run that fails any check records no metrics."""

from __future__ import annotations

import numpy as np

from repro.monitoring import StreamingDetector
from repro.pipeline import AnomalyDetectorService, DataPipeline
from repro.pipeline.datagenerator import DataGenerator

from deploy import STREAM_KWARGS
from inputs import EVALUATE_EVERY, TRIM_S, WINDOW_S, Inputs

#: Score tolerance of the rolling-vs-batch parity contract.
PARITY_BOUND = 1e-9
#: Chunks per sampled node replayed through the batch-mode oracle.
PARITY_CHUNKS = 24
#: Served anomaly_detection jobs recomputed off the clock.
DASHBOARD_SAMPLES = 2


def expected_windows(inputs: Inputs) -> dict[tuple[int, int], list[float]]:
    """Window ends due per node, derived from the chunk schedule alone.

    Mirrors the streaming contract: a node's window is due once
    ``evaluate_every`` new rows arrived, the ring (trimmed to the window
    span) holds at least 8 rows, and it spans at least half the window.
    """
    rings: dict[tuple[int, int], list[float]] = {}
    fresh: dict[tuple[int, int], int] = {}
    due: dict[tuple[int, int], list[float]] = {}
    for chunk in inputs.chunks:
        key, ts = chunk.key, chunk.series.timestamps
        ring = rings.setdefault(key, [])
        cutoff = float(ts[-1]) - WINDOW_S
        ring.extend(float(t) for t in ts)
        ring[:] = [t for t in ring if t >= cutoff]
        fresh[key] = fresh.get(key, 0) + len(ts)
        if fresh[key] >= EVALUATE_EVERY and len(ring) >= 8 and (
            ring[-1] - ring[0] >= 0.5 * WINDOW_S
        ):
            fresh[key] = 0
            due.setdefault(key, []).append(float(ts[-1]))
    return due


def _by_node(verdicts) -> dict[tuple[int, int], list]:
    out: dict[tuple[int, int], list] = {}
    for v in verdicts:
        out.setdefault((v.job_id, v.component_id), []).append(v)
    return out


def check_fleet(dep, inputs: Inputs, loop) -> list[str]:
    failures = []
    totals = dep.fleet.status()["totals"]
    scored = sum(w["drained_chunks"] for w in dep.fleet.status()["workers"])
    if totals["submitted"] != loop.submitted:
        failures.append(f"fleet counted {totals['submitted']} submissions, loop made {loop.submitted}")
    if scored + totals["shed_chunks"] != loop.submitted:
        failures.append(
            f"scored {scored} + shed {totals['shed_chunks']} != submitted {loop.submitted}"
        )
    expected = expected_windows(inputs)
    got = {k: [v.window_end for v in vs] for k, vs in _by_node(loop.verdicts).items()}
    if got != expected:
        n_exp = sum(map(len, expected.values()))
        failures.append(f"{len(loop.verdicts)} verdicts, schedule makes {n_exp} windows due")
    return failures


def check_parity(dep, inputs: Inputs, loop) -> list[str]:
    """Replay a seeded node sample off the clock through batch-mode streaming."""
    rng = np.random.default_rng([inputs.seed, 7])
    nodes = sorted(inputs.live_labels)
    positive = [k for k in nodes if inputs.live_labels[k]]
    negative = [k for k in nodes if not inputs.live_labels[k]]
    sample = {positive[int(rng.integers(len(positive)))],
              negative[int(rng.integers(len(negative)))]}
    oracle = StreamingDetector(
        dep.pipeline, dep.detector, **{**STREAM_KWARGS, "streaming_mode": "batch"}
    )
    oracle.threshold_ = dep.fleet.threshold_
    replay, seen = [], dict.fromkeys(sample, 0)
    for chunk in inputs.chunks:
        if chunk.key in seen and seen[chunk.key] < PARITY_CHUNKS:
            seen[chunk.key] += 1
            replay.append(chunk.series)
    want = _by_node(oracle.ingest_many(replay))
    got = _by_node(loop.verdicts)
    failures = []
    for key in sorted(sample):
        ref = want.get(key, [])
        run = got.get(key, [])[: len(ref)]
        if not ref:
            failures.append(f"parity replay of node {key} emitted no verdicts")
        for a, b in zip(ref, run):
            if (a.window_end, a.alert, a.streak) != (b.window_end, b.alert, b.streak) or (
                abs(a.anomaly_score - b.anomaly_score) > PARITY_BOUND
            ):
                failures.append(f"node {key} window {a.window_end}: batch {a} vs run {b}")
                break
        if len(run) < len(ref):
            failures.append(f"node {key}: run has {len(run)} of {len(ref)} replayed verdicts")
    return failures


def check_dashboards(dep, inputs: Inputs, loop) -> list[str]:
    failures = [
        f"request {req.seq} answered with error "
        f"{resp['error'].get('code')}: {resp['error'].get('message')}"
        for req, resp in loop.responses if "error" in resp
    ][:5]
    responses = {
        req.job_id: resp for req, resp in loop.responses
        if req.dashboard == "anomaly_detection" and "error" not in resp
    }
    served = sorted(responses)
    if not served:
        return failures
    rng = np.random.default_rng([inputs.seed, 8])
    jobs = rng.choice(served, min(DASHBOARD_SAMPLES, len(served)), replace=False)
    # A pipeline rebuilt from the deployment's state has its own feature
    # cache, so the recomputation cannot be served from the run's cache.
    pipeline = DataPipeline.from_state(*dep.pipeline.state())
    service = AnomalyDetectorService(
        DataGenerator(dep.store, inputs.catalog, trim_seconds=TRIM_S), pipeline, dep.detector
    )
    for job in (int(j) for j in jobs):
        ref = service.predict_job(job)
        nodes = responses[job]["nodes"]
        same = len(ref) == len(nodes) and all(
            p.component_id == n["component_id"]
            and ("anomalous" if p.prediction else "healthy") == n["prediction"]
            and abs(p.anomaly_score - n["anomaly_score"]) <= PARITY_BOUND
            for p, n in zip(ref, nodes)
        )
        if not same:
            failures.append(f"job {job} dashboard differs from predict_job recomputed off the clock")
    return failures


def run_gate(dep, inputs: Inputs, loop) -> list[str]:
    return (
        check_fleet(dep, inputs, loop)
        + check_parity(dep, inputs, loop)
        + check_dashboards(dep, inputs, loop)
    )
