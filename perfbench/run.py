"""End-to-end deployment-loop benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wide-ingest --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from ``--seed`` (sized by ``--seconds``),
sets the deployment up several times, runs the measured loop, checks its
outputs, and prints one JSON object as the last line of standard output:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  A failed correctness check prints the failures to
standard error, reports ``"correct": false`` with no metrics, and exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Deployments built per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: wide-ingest nodes whose chunks the traced run replays inline to split
#: the worker's time between streaming and scoring.
REPLAY_NODES = 12
CLOSURE_FLAG = 0.9
WORKLOADS = ("wide-ingest", "ops-mixed")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _on_sigterm(signum, frame):
    # Unwind through ``main``'s clean-up so a terminated run still stops
    # its worker and helper processes.
    raise SystemExit(128 + signum)


def _stop_processes() -> None:
    """Stop every process the run started and wait until each has ended.

    Closing a deployment joins its fleet worker; a worker left by a run that
    failed part-way is terminated here.  Creating a shared-memory segment
    also starts multiprocessing's resource tracker, a helper process that
    would otherwise outlive the run until it notices its parent is gone, so
    it is stopped and reaped too, once every segment was unlinked.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _alert_f1(inputs, verdicts) -> float:
    alerted = {(v.job_id, v.component_id) for v in verdicts if v.alert}
    tp = sum(1 for k in alerted if inputs.live_labels.get(k))
    fp = len(alerted) - tp
    fn = sum(inputs.live_labels.values()) - tp
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def _accounting(dep, loop, n_requests: int) -> tuple[int, int, dict]:
    """Attempted and failed operations; rejections and error envelopes both
    arrive as responses carrying ``error``, deadline sheds never arrive."""
    status = dep.fleet.status()
    shed = status["totals"]["shed_chunks"]
    scored = sum(w["drained_chunks"] for w in status["workers"])
    errors = sum(1 for _, r in loop.responses if "error" in r)
    shed_deadline = sum(
        t["shed_deadline"] for t in dep.gateway.slo_status()["tenants"].values()
    )
    ratios = {
        "chunk_scored_ratio": scored / loop.submitted,
        "request_ok_ratio": (n_requests - errors - shed_deadline) / n_requests,
    }
    return loop.submitted + n_requests, shed + errors + shed_deadline, ratios


def end_to_end(inputs, dep, loop, setup_times, n_requests) -> tuple[dict, int, int]:
    from spans import pct

    attempted, failed, ratios = _accounting(dep, loop, n_requests)
    ms = [x * 1e3 for x in loop.verdict_latency_s]
    dash = [x * 1e3 for x in loop.dashboard_latency_s]
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "ingest_rows_per_s": _metric(inputs.steady_rows / loop.steady_s, "rows/s"),
        "verdict_p50_ms": _metric(pct(ms, 50), "ms"),
        "verdict_p99_ms": _metric(pct(ms, 99), "ms"),
        "dashboard_p50_ms": _metric(pct(dash, 50), "ms"),
        "dashboard_p95_ms": _metric(pct(dash, 95), "ms"),
        "chunk_scored_ratio": _metric(ratios["chunk_scored_ratio"], "ratio"),
        "request_ok_ratio": _metric(ratios["request_ok_ratio"], "ratio"),
        "alert_f1": _metric(_alert_f1(inputs, loop.verdicts), "ratio"),
    }
    return metrics, attempted, failed


def _replay_worker_split(dep, inputs) -> dict:
    """Inline replay of wide-ingest chunks: the worker's stream/score split."""
    from repro.monitoring import StreamingDetector
    from repro.runtime.instrumentation import get_instrumentation

    from deploy import STREAM_KWARGS
    from spans import TracedDetector, Tracer, counter_delta

    tracer = Tracer(True)
    stream = StreamingDetector(
        dep.pipeline, TracedDetector(dep.detector, tracer, "score.stream"), **STREAM_KWARGS
    )
    stream.threshold_ = dep.fleet.threshold_
    keys = set(sorted(inputs.live_labels)[:REPLAY_NODES])
    chunks = [c.series for c in inputs.chunks if c.key in keys]
    before = get_instrumentation().snapshot()
    for chunk in chunks:
        with tracer.span("stream"):
            stream.ingest(chunk)
    after = get_instrumentation().snapshot()
    windows = tracer.calls("score.stream")
    return {
        "rows": sum(c.n_timestamps for c in chunks),
        "stream_self_s": tracer.self_seconds("stream"),
        "score_s": tracer.total("score.stream"),
        "windows": windows,
        "fallback": counter_delta(before, after, "rolling_fallback_calcs"),
        "evictions": counter_delta(before, after, "ring_evictions"),
    }


def per_layer(inputs, dep, loop, tracer, snap0, snap1, cache0, untraced_wall, fit):
    """Per-layer metrics of the traced run (see BENCHMARK.json for units)."""
    from spans import counter_delta, pct, stage_seconds

    t = tracer
    wide = inputs.workload == "wide-ingest"
    status = dep.fleet.status()
    workers = status["workers"]
    served = [r["gateway"] for _, r in loop.responses if "error" not in r]
    n_dash = max(len(loop.responses), 1)
    shard_s = sum(stage_seconds(snap0, snap1, f"shard:{w['worker_id']}") for w in workers)
    if wide:
        split = _replay_worker_split(dep, inputs)
        stream_rows, stream_s = split["rows"], split["stream_self_s"]
        score_s, windows = split["score_s"], split["windows"]
        fallback, evictions = split["fallback"], split["evictions"]
    else:
        stream_rows = loop.submitted * inputs.chunks[0].series.n_timestamps
        score_s, windows = t.total("score.stream"), t.calls("score.stream")
        stream_s = shard_s - score_s
        fallback = counter_delta(snap0, snap1, "rolling_fallback_calcs")
        evictions = counter_delta(snap0, snap1, "ring_evictions")
    push_s = stage_seconds(snap0, snap1, "ipc:push")
    collect_s = stage_seconds(snap0, snap1, "ipc:collect")
    pushed = counter_delta(snap0, snap1, "fleet_ring_pushed")
    cache = dep.pipeline.engine.cache.stats()
    lookups = (cache["hits"] - cache0["hits"]) + (cache["misses"] - cache0["misses"])
    slo = dep.gateway.slo_status()
    layers = ("hist.ingest", "hist.query", "fleet.submit", "fleet.pump",
              "fleet.backpressure", "gateway.pump", "pipeline.job_series",
              "features.extract", "score.stream", "score.batch")
    closure = t.self_seconds(*layers) / loop.wall_s
    us, ms = 1e6, 1e3
    values = {
        "stream.per_row_us": (stream_s / max(stream_rows, 1) * us, "us"),
        "stream.fallback_calcs_per_window": (fallback / max(windows, 1), "ratio"),
        "stream.windows": (len(loop.verdicts), "count"),
        "stream.ring_evictions": (evictions, "count"),
        "score.per_window_us": (score_s / max(windows, 1) * us, "us"),
        "fleet.submit_us": (t.self_seconds("fleet.submit") / max(t.calls("fleet.submit"), 1) * us, "us"),
        "fleet.pump_p50_ms": (pct(t.durations["fleet.pump"], 50) * ms, "ms"),
        "fleet.rollup_ms": (stage_seconds(snap0, snap1, "rollup") * ms, "ms"),
        "fleet.backpressure_wait_share": (loop.backpressure_wait_s / loop.wall_s, "share"),
        "ipc.push_per_chunk_us": (push_s / max(pushed, 1) * us, "us"),
        "ipc.collect_per_verdict_us": (collect_s / max(len(loop.verdicts), 1) * us, "us"),
        "ipc.ring_full_events": (status.get("ipc", {}).get("ring_full_events", 0), "count"),
        "ipc.batch_chunks_mean": (
            sum(w["drained_chunks"] for w in workers) / max(sum(w["batches"] for w in workers), 1),
            "count",
        ),
        "ipc.coordinator_cpu_share": (loop.cpu_s / loop.wall_s, "share"),
        "hist.ingest_per_row_us": (t.total("hist.ingest") / max(t.counts["hist.rows"], 1) * us, "us"),
        "hist.flush_s": (stage_seconds(snap0, snap1, "hist_flush"), "s"),
        "hist.query_p50_ms": (pct(t.durations["hist.query"], 50) * ms, "ms"),
        "hist.query_p95_ms": (pct(t.durations["hist.query"], 95) * ms, "ms"),
        "hist.queries_per_dashboard": (t.counts["hist.container_queries"] / n_dash, "count"),
        "hist.memtable_rows_at_query": (pct(t.samples["hist.memtable_rows_at_query"], 50), "count"),
        "pipeline.job_series_p50_ms": (pct(t.self_durations["pipeline.job_series"], 50) * ms, "ms"),
        "features.extract_per_series_ms": (
            t.total("features.extract") / max(t.counts["features.series"], 1) * ms, "ms"),
        "features.fit_per_series_ms": (fit / len(inputs.train_series) * ms, "ms"),
        "runtime.feature_cache_hit_ratio": (
            (cache["hits"] - cache0["hits"]) / lookups if lookups else 0.0, "ratio"),
        "gateway.queue_wait_p50_ms": (pct([g["queue_wait_s"] for g in served], 50) * ms, "ms"),
        "gateway.queue_wait_p95_ms": (pct([g["queue_wait_s"] for g in served], 95) * ms, "ms"),
        "gateway.service_p50_ms": (pct([g["service_s"] for g in served], 50) * ms, "ms"),
        "gateway.service_p95_ms": (pct([g["service_s"] for g in served], 95) * ms, "ms"),
        "gateway.cache_hit_ratio": (slo["cache"]["hit_rate"], "ratio"),
        "gateway.rejected": (
            sum(s["rejected_quota"] + s["rejected_queue_full"] + s["shed_deadline"]
                for s in slo["tenants"].values()),
            "count",
        ),
        "load.busy_share": (
            (loop.busy_s - loop.backpressure_wait_s) / loop.span_s, "share"),
        "load.lateness_p99_ms": (pct(loop.lateness_s, 99) * ms, "ms"),
        "trace.closure_ratio": (closure, "ratio"),
        "trace.closure_flagged": (int(closure < CLOSURE_FLAG), "count"),
        "trace.overhead_ratio": (loop.wall_s / untraced_wall, "ratio"),
    }
    values.update({f"{name}.self_s": (t.self_seconds(name), "s") for name in layers})
    if closure < CLOSURE_FLAG:
        print(f"FLAG: trace closure {closure:.3f} below {CLOSURE_FLAG}", file=sys.stderr)
    return {name: _metric(v, unit) for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("perfbench: --seconds must be >= 1 and --seed >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _on_sigterm)

    from repro.runtime.instrumentation import get_instrumentation

    from deploy import build
    from gate import run_gate
    from inputs import generate
    from loops import LOOPS
    from spans import Tracer

    inputs = generate(args.workload, args.seed, args.seconds)
    # The inputs stand in for telemetry and requests arriving over the wire:
    # move them out of the collector's reach so its full collections do not
    # rescan the benchmark's own data inside the measured loop.
    gc.collect()
    gc.freeze()
    n_requests = len(inputs.requests)
    loop_fn = LOOPS[args.workload]
    work = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    untraced = Tracer(False)
    tracer = Tracer(bool(args.trace))
    setup_times: list[float] = []
    untraced_wall = fit_s = 0.0
    deployments = []
    try:
        for i in range(SETUP_REPEATS):
            last = i == SETUP_REPEATS - 1
            if args.trace and 0 < i < SETUP_REPEATS - 1:
                continue  # a traced run reports no setup_s
            dep, seconds = build(inputs, work / f"dep-{i}", tracer if last else untraced)
            deployments.append(dep)
            setup_times.append(seconds)
            if args.trace and i == 0:
                # Untraced baseline of the same loop, for the tracing overhead.
                untraced_wall = loop_fn(dep, inputs, untraced).wall_s
            if not last:
                dep.close()
        fit_s = tracer.total("features.fit")
        tracer.reset()
        inst = get_instrumentation()
        cache0 = dict(dep.pipeline.engine.cache.stats())
        snap0 = inst.snapshot()
        loop = loop_fn(dep, inputs, tracer)
        snap1 = inst.snapshot()
        failures = run_gate(dep, inputs, loop)
        if args.trace:
            metrics = per_layer(inputs, dep, loop, tracer, snap0, snap1, cache0,
                                untraced_wall, fit_s)
            _, attempted, failed = end_to_end(inputs, dep, loop, setup_times, n_requests)
        else:
            metrics, attempted, failed = end_to_end(inputs, dep, loop, setup_times, n_requests)
        dep.close()
        if not args.trace:
            metrics["peak_rss_mb"] = _metric(_peak_rss_mb(), "MB")
    finally:
        for d in deployments:
            d.close()
        _stop_processes()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if failures:
        for f in failures:
            print(f"correctness: {f}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
