"""Non-gating perf smoke: writes ``BENCH_runtime.json``, ``BENCH_features.json``,
``BENCH_lifecycle.json``, ``BENCH_fleet.json``, ``BENCH_training.json``,
``BENCH_scenarios.json``, ``BENCH_dsos.json``, ``BENCH_serving.json`` and
``BENCH_streaming.json`` (one :data:`BENCHES` row each).

Runtime check: the default extraction workload (32 runs x 96 metrics x
360 s, resample 128) through three engine configurations — serial/no-cache,
threaded cold, warm cache — recording samples/sec, speedups, the cache hit
rate, and the stage-timing snapshot.

Feature check: the shared-context/vectorised calculator engine against the
frozen pre-vectorisation kernels (``tests/oracles/features.py``) on the
full calculator set — full-set and expensive-tier-only wall-clock with
parity verification (bit-identical cheap tier, <= 1e-9 elsewhere), the
threaded engine (2 workers) against the serial one on the runtime workload
with bit parity asserted, and the micro-batch win over per-series
extraction.  Timings are interleaved best-of-3 so the ratios survive a
noisy bench host.

After writing fresh reports, each is diffed on its row's tracked metrics
against the previously committed baseline via
:mod:`benchmarks.compare_bench` (non-gating here; ``compare_bench.py`` run
standalone exits 1 on a >1.2x regression).

Lifecycle check: registry save/load latency, plus the drift-monitor tax on
the streaming hot path — the same synthetic stream replayed through a bare
:class:`StreamingDetector` and one with a :class:`LifecycleManager`
attached (drift monitoring only, caches off so extraction is honest work).
The per-evaluated-window overhead ratio is asserted ``<= 1.10`` (the
acceptance budget); a breach is recorded as a failed check, it still does
not gate.

Training check: the fused VAE fast path (preallocated kernels, packed
parameters, in-place Adam, shared minibatch iterator) against the frozen
pre-fast-path trainer (``ReferenceVAETrainer``, ``tests/oracles/nn.py``),
asserting bit-identical trained weights and ``TrainingHistory`` for the
same seed with a >= 1.5x wall-clock floor; plus the batched + memoised
CoMTE search against per-candidate evaluation on a fitted deployment,
asserting identical counterfactual metric sets with a >= 3x floor on the
median ratio of alternating back-to-back pairs.

Fleet check: the sharded scoring service under both transports — a serial
:class:`StreamingDetector` oracle replay of a fixed interleaved chunk
stream, then the process transport (one OS process per worker fed over
shared-memory rings) timed at 1, 2, and 4 workers with parallel
efficiency computed against the 1-worker run, same-width transport
parity tracked exactly (inline vs process at 1 worker, max score delta)
and cross-width parity asserted at the documented <= 1e-9 micro-batch
extraction tolerance — including a kill-mid-run
salvage probe, a 10k-node wide-shard run that hammers the rings with one
chunk per node on a deliberately light deployment, and the inline
overload probe (tiny queues, no pumping) asserting load shedding is
counted, bounded, and never silent.  On cpu-starved or fork-less hosts
the scaling gate records an explicit ``skipped_reason`` instead of
asserting (and :mod:`benchmarks.compare_bench` skips those wall-clock
diffs for the same reason).

Serving check: the multi-tenant gateway end to end — response-cache cold
render vs cached hit (>= 10x floor), then a 4-virtual-second two-tenant
open-loop replay where batch arrivals outrun their quota ~4x while the
interactive tenant must hold its 250 ms p99 SLO, with a real
``ModelRegistry`` promotion fired mid-replay: zero priority inversions,
zero responses tagged with the demoted model version, both versions
observed, and the injected anomalous job alerted (lead time recorded).

DSOS check: the columnar historical store against the legacy in-process
DSOS oracle (``tests/oracles/dsos.py``) on a >= 2M-row synthetic history —
ingest throughput for both substrates, the legacy first (consolidating)
query vs a zone-map-pruned mmap query on a cold-opened store (asserted
>= 5x faster), p50/p99 latency over 200 random (job, window) queries,
compaction throughput into the 1min/10min retention tiers, and
bit-identical parity on sampled queries.

Scenario check: the heterogeneous-fleet path end to end — simulate the
``gpu-cluster`` scenario (mixed CPU + GPU node classes), schema-partition
load, mixed-schema pipeline fit, and masked scoring — with two parity
assertions: homogeneous synthesis is bit-identical to the frozen
pre-schema-refactor synthesizer (``tests/oracles/workloads.py``), and the
engine's schema-partitioned ``extract`` is bit-identical to the dense
``extract_matrix`` on a homogeneous fleet.

The frozen oracles live under ``tests/oracles/``, outside the installed
package; importing this module puts ``tests/`` on ``sys.path`` so they
resolve as :mod:`oracles`.

Always exits 0: this script produces perf records for the PR.

Usage::

    PYTHONPATH=src python benchmarks/check_perf.py [runtime.json [features.json [lifecycle.json ...]]]
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "tests") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tests"))

#: Acceptance budget: lifecycle-attached streaming may cost at most 10%
#: more per evaluated window than the bare detector.
DRIFT_OVERHEAD_BUDGET = 1.10
#: Bare/lifecycle replay pairs behind the drift-overhead ratio.
DRIFT_PAIRS = 15

N_RUNS = 32
N_METRICS = 96
DURATION_S = 360
RESAMPLE_POINTS = 128


#: The full-calculator-set workload uses fewer metrics: the frozen
#: reference kernels it is measured against are ~an order of magnitude
#: slower, and 12 slabs are plenty to time both engines reliably.
N_METRICS_FULL = 12


def _workload(n_metrics: int = N_METRICS, n_runs: int = N_RUNS):
    from repro.telemetry import NodeSeries

    rng = np.random.default_rng(0)
    names = tuple(f"m{i}" for i in range(n_metrics))
    return [
        NodeSeries(1, c, np.arange(float(DURATION_S)), rng.random((DURATION_S, n_metrics)), names)
        for c in range(n_runs)
    ]


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def run_check() -> dict:
    from repro.features import FeatureExtractor
    from repro.runtime import ExecutionConfig, Instrumentation, ParallelExtractor

    runs = _workload()
    result: dict = {
        "workload": {
            "n_runs": N_RUNS,
            "n_metrics": N_METRICS,
            "duration_s": DURATION_S,
            "resample_points": RESAMPLE_POINTS,
        },
        "cpu_count": os.cpu_count(),
    }

    serial = ParallelExtractor(
        FeatureExtractor(resample_points=RESAMPLE_POINTS),
        config=ExecutionConfig(n_workers=1, cache_size=0),
    )
    (reference, _), serial_s = _timed(serial.extract_matrix, runs)
    result["serial"] = {"seconds": serial_s, "samples_per_sec": N_RUNS / serial_s}

    n_workers = max(2, os.cpu_count() or 1)
    inst = Instrumentation()
    engine = ParallelExtractor(
        FeatureExtractor(resample_points=RESAMPLE_POINTS),
        config=ExecutionConfig(n_workers=n_workers, cache_size=256),
        instrumentation=inst,
    )
    (cold, _), cold_s = _timed(engine.extract_matrix, runs)
    result["parallel_cold"] = {
        "n_workers": n_workers,
        "seconds": cold_s,
        "samples_per_sec": N_RUNS / cold_s,
        "speedup_vs_serial": serial_s / cold_s,
        "parity": bool(np.array_equal(cold, reference)),
    }

    (warm, _), warm_s = _timed(engine.extract_matrix, runs)
    result["warm_cache"] = {
        "seconds": warm_s,
        "samples_per_sec": N_RUNS / warm_s,
        "speedup_vs_serial": serial_s / warm_s,
        "cache_hit_rate": engine.cache.stats()["hit_rate"],
        "parity": bool(np.array_equal(warm, reference)),
    }
    result["stages"] = inst.snapshot()
    return result


def _interleaved_best(fns: list, reps: int = 3) -> list[float]:
    """Best-of-*reps* wall clock per callable, measured round-robin.

    Interleaving decorrelates the competitors from slow drift in host load,
    so their *ratio* is robust even when absolute times are noisy.
    """
    best = [float("inf")] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            _, t = _timed(fn)
            best[i] = min(best[i], t)
    return best


def _alternating_pairs(first, second, pairs: int) -> tuple[list[float], list[float]]:
    """Wall clock of *first* and *second* over *pairs* back-to-back pairs.

    The order alternates from pair to pair, so a drift in host speed
    lands on both sides; report the median of the per-pair ratios.
    """
    first_s: list[float] = []
    second_s: list[float] = []
    for i in range(pairs):
        order = ((first, first_s), (second, second_s))
        for fn, times in order if i % 2 == 0 else order[::-1]:
            times.append(_timed(fn)[1])
    return first_s, second_s


def run_feature_check() -> dict:
    from oracles.features import reference_full_calculators
    from repro.features import FeatureExtractor
    from repro.features.calculators import full_calculators
    from repro.runtime import ExecutionConfig, Instrumentation, ParallelExtractor

    runs = _workload(n_metrics=N_METRICS_FULL)
    result: dict = {
        "workload": {
            "n_runs": N_RUNS,
            "n_metrics": N_METRICS_FULL,
            "duration_s": DURATION_S,
            "resample_points": RESAMPLE_POINTS,
            "calculator_set": "full",
        },
        "cpu_count": os.cpu_count(),
    }

    new_fx = FeatureExtractor(full_calculators(), resample_points=RESAMPLE_POINTS)
    ref_fx = FeatureExtractor(reference_full_calculators(), resample_points=RESAMPLE_POINTS)

    # -- parity: bit-identical cheap tier, <= 1e-9 expensive tier ----------
    new_mat, new_names = new_fx.extract_matrix(runs)
    ref_mat, ref_names = ref_fx.extract_matrix(runs)
    assert new_names == ref_names, "feature layouts diverged"
    f_per = new_fx.n_features_per_metric
    cheap_cols, loose_cols = [], []
    col = 0
    for calc in new_fx.calculators:
        cols = range(col, col + len(calc.output_names))
        (cheap_cols if calc.cost == "cheap" else loose_cols).extend(cols)
        col += len(calc.output_names)
    cheap_idx = [m * f_per + c for m in range(N_METRICS_FULL) for c in cheap_cols]
    loose_idx = [m * f_per + c for m in range(N_METRICS_FULL) for c in loose_cols]
    result["parity"] = {
        "cheap_tier_bit_identical": bool(
            np.array_equal(new_mat[:, cheap_idx], ref_mat[:, cheap_idx])
        ),
        "expensive_tier_max_abs_diff": float(
            np.max(np.abs(new_mat[:, loose_idx] - ref_mat[:, loose_idx]))
        ),
        "expensive_tier_within_1e9": bool(
            np.allclose(new_mat[:, loose_idx], ref_mat[:, loose_idx], atol=1e-9, rtol=0)
        ),
    }

    # -- full-set wall clock: reference kernels vs shared-context engine ---
    ref_s, new_s = _interleaved_best(
        [lambda: ref_fx.extract_matrix(runs), lambda: new_fx.extract_matrix(runs)],
        reps=5,
    )
    result["full_set"] = {
        "reference_seconds": ref_s,
        "new_seconds": new_s,
        "speedup_vs_reference": ref_s / new_s,
    }

    # -- expensive tier only ------------------------------------------------
    exp_new = FeatureExtractor(
        [c for c in full_calculators() if c.cost == "expensive"],
        resample_points=RESAMPLE_POINTS,
    )
    exp_ref = FeatureExtractor(
        [c for c in reference_full_calculators() if c.cost == "expensive"],
        resample_points=RESAMPLE_POINTS,
    )
    ref_s, new_s = _interleaved_best(
        [lambda: exp_ref.extract_matrix(runs), lambda: exp_new.extract_matrix(runs)],
        reps=5,
    )
    result["expensive_tier"] = {
        "reference_seconds": ref_s,
        "new_seconds": new_s,
        "speedup_vs_reference": ref_s / new_s,
    }

    # -- threaded vs serial: the same engine at n_workers 2 and 1 --------
    # On the runtime workload (32 runs x 96 metrics, default set), whose
    # slabs stack into several groups; the 12-metric block above is one.
    wide_runs = _workload()
    serial_engine, threaded_engine = (
        ParallelExtractor(
            FeatureExtractor(resample_points=RESAMPLE_POINTS),
            config=ExecutionConfig(n_workers=workers, cache_size=0),
            instrumentation=Instrumentation(enabled=False),
        )
        for workers in (1, 2)
    )
    serial_mat, _ = serial_engine.extract_matrix(wide_runs)
    threaded_mat, _ = threaded_engine.extract_matrix(wide_runs)
    serial_s, threaded_s = _interleaved_best(
        [lambda: serial_engine.extract_matrix(wide_runs),
         lambda: threaded_engine.extract_matrix(wide_runs)]
    )
    plan = threaded_engine.stats()["scheduler"]
    result["threaded"] = {
        "n_metrics": N_METRICS,
        "calculator_set": "default",
        "mode": plan["mode"],
        "workers": plan["workers"],
        "groups": plan["groups"],
        "serial_seconds": serial_s,
        "threaded_seconds": threaded_s,
        "speedup_vs_serial": serial_s / threaded_s,
        "bit_identical": bool(np.array_equal(threaded_mat, serial_mat)),
    }

    # -- micro-batch: one block vs per-series extraction -------------------
    batch_engine = ParallelExtractor(
        FeatureExtractor(full_calculators(), resample_points=RESAMPLE_POINTS),
        config=ExecutionConfig(n_workers=1, cache_size=0),
        instrumentation=Instrumentation(enabled=False),
    )
    singles_s, batch_s = _interleaved_best(
        [lambda: [batch_engine.extract_matrix([s]) for s in runs],
         lambda: batch_engine.extract_matrix(runs)]
    )
    result["microbatch"] = {
        "n_windows": len(runs),
        "per_series_seconds": singles_s,
        "batched_seconds": batch_s,
        "speedup": singles_s / batch_s,
    }
    assert result["threaded"]["bit_identical"], "threaded extraction diverged from serial"
    return result


def _fit_deployment(
    train, *, seed: int = 0, threshold_percentile: float = 99.0,
    resample_points: int = 64,
):
    """Fit a small (pipeline, detector) over *train* on a cache-less engine."""
    from repro.core import ProdigyDetector
    from repro.features import FeatureExtractor
    from repro.pipeline import DataPipeline
    from repro.runtime import ExecutionConfig, Instrumentation, ParallelExtractor

    engine = ParallelExtractor(
        FeatureExtractor(resample_points=resample_points),
        config=ExecutionConfig(n_workers=1, cache_size=0),
        instrumentation=Instrumentation(enabled=False),
    )
    pipeline = DataPipeline(engine, n_features=48)
    pipeline.fit_from_series(train)
    scaled = pipeline.transform_series(train)
    detector = ProdigyDetector(
        hidden_dims=(16, 8), latent_dim=4, epochs=20, batch_size=16,
        learning_rate=1e-3, threshold_percentile=threshold_percentile, seed=seed,
    ).fit(scaled)
    return pipeline, detector, scaled


def _lifecycle_deployment(seed: int = 0):
    """A small fitted (pipeline, detector) over a cache-less engine."""
    from repro.telemetry import NodeSeries

    rng = np.random.default_rng(seed)
    n_metrics, n_train = 16, 24
    names = tuple(f"m{i}" for i in range(n_metrics))
    train = [
        NodeSeries(1, c, np.arange(240.0), rng.random((240, n_metrics)), names)
        for c in range(n_train)
    ]
    return _fit_deployment(train, seed=seed)


def _stream_chunks(n_chunks: int, n_metrics: int = 16, seed: int = 1):
    from repro.telemetry import NodeSeries

    rng = np.random.default_rng(seed)
    names = tuple(f"m{i}" for i in range(n_metrics))
    chunk = 16
    return [
        NodeSeries(
            9, 0,
            np.arange(float(i * chunk), float((i + 1) * chunk)),
            rng.random((chunk, n_metrics)),
            names,
        )
        for i in range(n_chunks)
    ]


def _replay(stream, chunks) -> tuple[float, int]:
    """(seconds, evaluated windows) for one full stream replay."""
    evaluated = 0
    start = time.perf_counter()
    for chunk in chunks:
        if stream.ingest(chunk) is not None:
            evaluated += 1
    return time.perf_counter() - start, evaluated


def run_lifecycle_check() -> dict:
    import tempfile

    from repro.lifecycle import (
        DriftMonitor,
        LifecycleManager,
        ModelRegistry,
        ReferenceProfile,
    )
    from repro.monitoring import StreamingDetector

    result: dict = {}

    # -- registry save/load latency ---------------------------------------
    pipeline, detector, scaled = _lifecycle_deployment()
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(Path(tmp) / "registry")
        save_times, load_times = [], []
        for _ in range(5):
            _, t = _timed(registry.register, pipeline, detector)
            save_times.append(t)
        registry.activate("v0001")
        for _ in range(5):
            _, t = _timed(registry.load)
            load_times.append(t)
        result["registry"] = {
            "reps": 5,
            "save_ms_mean": float(np.mean(save_times)) * 1e3,
            "load_ms_mean": float(np.mean(load_times)) * 1e3,
        }

        # -- drift-monitor overhead on the streaming hot path --------------
        scores = detector.anomaly_score(scaled)
        profile = ReferenceProfile(scores, scaled, pipeline.selected_names_)
        chunks = _stream_chunks(240)

        def bare_stream():
            return StreamingDetector(
                pipeline, detector, window_seconds=64, evaluate_every=16,
            )

        def lifecycle_stream():
            manager = LifecycleManager(
                registry, pipeline,
                monitor=DriftMonitor(profile, window_size=16),
            )
            stream = bare_stream()
            stream.attach_lifecycle(manager)
            return stream

        # A replay lasts a fraction of a second and the host's speed drifts
        # over seconds, so each ratio compares one bare and one lifecycle
        # replay taken back to back, in alternating order; the overhead is
        # the median pair ratio.  Only the replay is timed, not the
        # stream's construction.
        bare_s, lc_s, windows = [], [], set()
        for i in range(DRIFT_PAIRS):
            if i % 2 == 0:
                bare = _replay(bare_stream(), chunks)
                lc = _replay(lifecycle_stream(), chunks)
            else:
                lc = _replay(lifecycle_stream(), chunks)
                bare = _replay(bare_stream(), chunks)
            bare_s.append(bare[0])
            lc_s.append(lc[0])
            windows |= {bare[1], lc[1]}

    assert len(windows) == 1 and windows != {0}, "replays must evaluate identical windows"
    n_windows = windows.pop()
    bare_ms = float(np.median(bare_s)) / n_windows * 1e3
    lc_ms = float(np.median(lc_s)) / n_windows * 1e3
    ratio = float(np.median(np.array(lc_s) / np.array(bare_s)))
    result["drift_overhead"] = {
        "evaluated_windows": n_windows,
        "pairs": DRIFT_PAIRS,
        "bare_ms_per_window": bare_ms,
        "lifecycle_ms_per_window": lc_ms,
        "overhead_ratio": ratio,
        "budget": DRIFT_OVERHEAD_BUDGET,
        "within_budget": bool(ratio <= DRIFT_OVERHEAD_BUDGET),
    }
    assert ratio <= DRIFT_OVERHEAD_BUDGET, (
        f"drift monitoring costs {ratio:.3f}x per window, "
        f"budget {DRIFT_OVERHEAD_BUDGET:.2f}x"
    )
    return result


def _fleet_stream(n_nodes: int, chunks_per_node: int, n_metrics: int = 16, seed: int = 2):
    """Interleaved per-node chunk streams, as concurrent reporters arrive."""
    from repro.telemetry import NodeSeries

    names = tuple(f"m{i}" for i in range(n_metrics))
    chunk = 16
    per_node = []
    for comp in range(n_nodes):
        rng = np.random.default_rng(seed + comp)
        per_node.append([
            NodeSeries(
                9, comp,
                np.arange(float(i * chunk), float((i + 1) * chunk)),
                rng.random((chunk, n_metrics)),
                names,
            )
            for i in range(chunks_per_node)
        ])
    return [
        per_node[n][i]
        for i in range(chunks_per_node)
        for n in range(n_nodes)
    ]


#: Scaling acceptance bar: 4-worker process-transport throughput must reach
#: at least 0.7 * (4 * 1-worker throughput) on a host with >= 4 CPUs.
FLEET_EFFICIENCY_FLOOR = 0.7


def _wide_shard_stream(n_nodes: int, n_metrics: int = 4, seed: int = 11):
    """One 16-sample chunk per node: a wide fleet reporting one interval."""
    from repro.telemetry import NodeSeries

    names = tuple(f"m{i}" for i in range(n_metrics))
    rng = np.random.default_rng(seed)
    values = rng.random((n_nodes, 16, n_metrics))
    ts = np.arange(16.0)
    return [
        NodeSeries(7, comp, ts, values[comp], names) for comp in range(n_nodes)
    ]


def _wide_deployment(n_metrics: int = 4, seed: int = 3):
    """A deliberately light deployment so the wide-shard run measures the
    transport (ring pushes, verdict drains), not feature extraction."""
    from repro.telemetry import NodeSeries

    rng = np.random.default_rng(seed)
    names = tuple(f"m{i}" for i in range(n_metrics))
    train = [
        NodeSeries(1, c, np.arange(96.0), rng.random((96, n_metrics)), names)
        for c in range(12)
    ]
    pipeline, detector, _ = _fit_deployment(train, seed=seed, resample_points=16)
    return pipeline, detector


def run_fleet_check() -> dict:
    from repro.fleet import FleetCoordinator, RingSpec, process_transport_available
    from repro.monitoring import (
        FleetFaultSchedule,
        StreamingDetector,
        WorkerFailure,
    )

    n_nodes, chunks_per_node = 32, 12
    stream_kwargs = dict(window_seconds=64, evaluate_every=16, consecutive_alerts=2)
    pipeline, detector, _ = _lifecycle_deployment()
    chunks = _fleet_stream(n_nodes, chunks_per_node)
    cpu_count = os.cpu_count() or 1
    transport = "process" if process_transport_available() else "inline"
    result: dict = {
        "workload": {
            "n_nodes": n_nodes,
            "chunks_per_node": chunks_per_node,
            "chunk_samples": 16,
            "n_metrics": 16,
        },
        "cpu_count": cpu_count,
        "transport": transport,
    }

    def vmap(verdicts):
        return {
            (v.job_id, v.component_id, v.window_end):
                (v.anomaly_score, v.alert, v.streak)
            for v in verdicts
        }

    def r9(vm):
        # Micro-batch composition varies with worker count and perturbs
        # extraction at ULP scale (the feature check documents batched
        # extraction parity at <= 1e-9), so cross-width comparisons use
        # that tolerance.  Same-width transport parity is tracked exactly
        # (``max_abs_delta_vs_inline`` below).
        return {k: (round(s, 9), alert, streak)
                for k, (s, alert, streak) in vm.items()}

    def replay(n_workers: int, use_transport: str, faults=None):
        # queue_capacity must cover the whole stream: the process pump is
        # non-blocking, so an undersized queue sheds under backlog and the
        # parity comparison would be measuring load shedding instead.
        fleet = FleetCoordinator(
            pipeline, detector, n_workers=n_workers,
            stream_kwargs=stream_kwargs, transport=use_transport,
            queue_capacity=len(chunks),
        )
        with fleet:
            verdicts, seconds = _timed(
                lambda: fleet.run_stream(iter(chunks), pump_every=8, faults=faults)
            )
            status = fleet.status()
        return status, verdicts, seconds

    # -- serial oracle: the reference every fleet width must match -------
    oracle = StreamingDetector(pipeline, detector, **stream_kwargs)

    def serial_replay():
        return [v for c in chunks if (v := oracle.ingest(c)) is not None]

    oracle_verdicts, oracle_s = _timed(serial_replay)
    oracle_map = vmap(oracle_verdicts)
    result["oracle"] = {
        "seconds": oracle_s, "verdicts": len(oracle_verdicts),
    }

    # -- scaling sweep over the benched transport ------------------------
    verdict_maps = {}
    for n_workers in (1, 2, 4):
        # Faster-of-two replays irons out scheduler noise.
        best = None
        for _ in range(2):
            status, verdicts, seconds = replay(n_workers, transport)
            if best is None or seconds < best[2]:
                best = (status, verdicts, seconds)
        status, verdicts, seconds = best
        totals = status["totals"]
        entry = {
            "transport": transport,
            "seconds": seconds,
            "chunks_per_sec": len(chunks) / seconds,
            "nodes_per_sec": n_nodes / seconds,
            "verdicts": len(verdicts),
            "shed_chunks": totals["shed_chunks"],
            "tracked_nodes": totals["tracked_nodes"],
        }
        ipc = status.get("ipc")
        if ipc:
            entry["ipc"] = {
                "pushed_chunks": ipc["pushed_chunks"],
                "ring_full_events": ipc["ring_full_events"],
                "ctl_messages": ipc["ctl_messages"],
            }
        result[f"workers_{n_workers}"] = entry
        verdict_maps[n_workers] = vmap(verdicts)
    base_nps = result["workers_1"]["nodes_per_sec"]
    for n_workers in (2, 4):
        entry = result[f"workers_{n_workers}"]
        entry["parallel_efficiency"] = (
            entry["nodes_per_sec"] / (n_workers * base_nps)
        )

    # -- inline parity oracle + transport overhead ------------------------
    _, inline_verdicts, inline_s = replay(1, "inline")
    inline_map = vmap(inline_verdicts)
    shared = set(inline_map) & set(verdict_maps[1])
    result["inline_1"] = {
        "seconds": inline_s,
        "nodes_per_sec": n_nodes / inline_s,
        # < 1 means the process path wins even at width 1: the worker
        # drains whole ring backlogs into one micro-batch extraction,
        # while the inline path is bounded by the per-pump batch.
        "process_over_inline_ratio":
            result["workers_1"]["seconds"] / inline_s,
        # Same-width transport parity, exact: the rings move bytes, so
        # swapping inline -> process at equal batching changes nothing.
        "max_abs_delta_vs_inline": max(
            (abs(inline_map[k][0] - verdict_maps[1][k][0]) for k in shared),
            default=0.0,
        ) if len(shared) == len(inline_map) == len(verdict_maps[1]) else None,
    }
    result["parity_across_widths"] = bool(
        r9(oracle_map) == r9(inline_map)
        == r9(verdict_maps[1]) == r9(verdict_maps[2]) == r9(verdict_maps[4])
    )

    # -- scaling gate: assert on capable hosts, skip loudly elsewhere ----
    scaling: dict = {
        "efficiency_floor": FLEET_EFFICIENCY_FLOOR,
        "monotonic_1_2_4": bool(
            result["workers_1"]["nodes_per_sec"]
            <= result["workers_2"]["nodes_per_sec"]
            <= result["workers_4"]["nodes_per_sec"]
        ),
        "efficiency_at_4": result["workers_4"]["parallel_efficiency"],
    }
    if transport != "process":
        scaling["skipped_reason"] = (
            "process transport unavailable (no fork start method)"
        )
    elif cpu_count < 4:
        scaling["skipped_reason"] = (
            f"cpu_count {cpu_count} < 4 workers: CPU scaling is not "
            "measurable on this host"
        )
    result["scaling"] = scaling

    # -- kill-mid-run: SIGKILL one scoring process, salvage, re-verify ---
    # Chunks the dead process had already consumed die with it (for any
    # transport: a worker's buffered window state is not recoverable),
    # so verdicts whose window overlaps the kill point may diverge.
    # Windows age out after ``window_seconds``, so everything past one
    # window span from the kill must be bit-correct again; the transient
    # is recorded, the steady state is asserted.
    if transport == "process":
        kill_after = 10
        faults = FleetFaultSchedule(
            [WorkerFailure("w1", after_chunks=kill_after)]
        )
        status, kill_verdicts, kill_s = replay(3, "process", faults=faults)
        kill_map = r9(vmap(kill_verdicts))
        oracle_r9 = r9(oracle_map)
        realign_after = float(
            chunks[kill_after - 1].timestamps[-1]
        ) + stream_kwargs["window_seconds"]
        steady = {k for k in oracle_r9 if k[2] > realign_after}
        steady_ok = all(
            k in kill_map and kill_map[k] == oracle_r9[k] for k in steady
        )
        transient_diffs = sum(
            1 for k in oracle_r9 if k[2] <= realign_after
            and kill_map.get(k) != oracle_r9[k]
        )
        result["kill_mid_run"] = {
            "workers": 3,
            "killed": "w1",
            "killed_after_chunks": kill_after,
            "seconds": kill_s,
            "dead": status["dead"],
            "rebalances": status["totals"]["rebalances"],
            "redelivered": status["totals"]["redelivered"],
            "verdicts": len(kill_verdicts),
            "tracked_nodes": status["totals"]["tracked_nodes"],
            "realign_after_window_end": realign_after,
            "steady_state_windows": len(steady),
            "steady_state_parity": bool(steady_ok),
            "transient_window_diffs": transient_diffs,
        }
    else:
        result["kill_mid_run"] = {
            "skipped_reason": "process transport unavailable",
        }

    # -- wide shard: 10k nodes, one interval each, rings under load ------
    wide_nodes = 10_000
    wide_pipeline, wide_detector = _wide_deployment()
    wide_chunks = _wide_shard_stream(wide_nodes)
    spec = RingSpec(
        chunk_slots=128, slot_samples=32, slot_metrics=8,
        verdict_slots=8192,
    )
    wide = FleetCoordinator(
        wide_pipeline, wide_detector, n_workers=4, queue_capacity=4096,
        stream_kwargs=dict(
            window_seconds=16, evaluate_every=16, consecutive_alerts=2,
        ),
        transport=transport, ring_spec=spec,
    )
    with wide:
        wide_verdicts, wide_s = _timed(
            lambda: wide.run_stream(iter(wide_chunks), pump_every=64)
        )
        wide_status = wide.status()
    wide_totals = wide_status["totals"]
    result["wide_shard"] = {
        "n_nodes": wide_nodes,
        "workers": 4,
        "transport": transport,
        "seconds": wide_s,
        "chunks_per_sec": len(wide_chunks) / wide_s,
        "nodes_per_sec": wide_nodes / wide_s,
        "verdicts": len(wide_verdicts),
        "shed_chunks": wide_totals["shed_chunks"],
        "ring_full_events":
            (wide_status.get("ipc") or {}).get("ring_full_events", 0),
    }

    # -- drop rate under overload: tiny queues, no pumping ---------------
    overload = FleetCoordinator(
        pipeline, detector, n_workers=2, queue_capacity=4,
        stream_kwargs=stream_kwargs, transport="inline",
    )
    for chunk in chunks:
        overload.submit(chunk)
    totals = overload.status()["totals"]
    queued = sum(w.queue_depth for w in overload.workers.values())
    result["overload"] = {
        "queue_capacity": 4,
        "submitted": totals["submitted"],
        "shed_chunks": totals["shed_chunks"],
        "drop_rate": totals["shed_chunks"] / totals["submitted"],
        "backpressure_events": totals["backpressure_events"],
        "conserved": bool(
            queued + totals["shed_chunks"] == totals["submitted"]
        ),
    }

    assert result["parity_across_widths"], "fleet verdicts diverged across widths"
    if "skipped_reason" not in result["kill_mid_run"]:
        assert result["kill_mid_run"]["tracked_nodes"] == n_nodes, (
            "kill-mid-run lost tracked nodes"
        )
        assert result["kill_mid_run"]["steady_state_parity"], (
            "verdicts did not realign with the oracle one window span "
            "after the kill"
        )
    assert result["wide_shard"]["verdicts"] == wide_nodes, (
        "wide shard dropped verdicts"
    )
    assert result["wide_shard"]["shed_chunks"] == 0, (
        "wide shard shed despite adequate queues"
    )
    if "skipped_reason" not in scaling:
        assert scaling["monotonic_1_2_4"], (
            "fleet nodes/sec not monotonic over 1 -> 2 -> 4 workers"
        )
        assert scaling["efficiency_at_4"] >= FLEET_EFFICIENCY_FLOOR, (
            f"parallel efficiency {scaling['efficiency_at_4']:.2f} at 4 "
            f"workers, floor {FLEET_EFFICIENCY_FLOOR:.2f}"
        )
    assert result["overload"]["shed_chunks"] > 0, "overload probe never shed"
    assert result["overload"]["conserved"], "shed accounting leaked chunks"
    return result


#: VAE training bench shape: small enough to finish in seconds, large
#: enough that kernel time (not Python dispatch noise) dominates the ratio.
VAE_BENCH = {
    "n_samples": 256,
    "input_dim": 64,
    "hidden_dims": (64, 32),
    "latent_dim": 8,
    "batch_size": 32,
    "epochs": 8,
    "seed": 7,
}

#: Acceptance bars for the training/explanation fast path.
TRAIN_SPEEDUP_FLOOR = 1.5
EXPLAIN_SPEEDUP_FLOOR = 3.0
#: Per-candidate/batched CoMTE search pairs behind the explain speedup.
EXPLAIN_PAIRS = 15


def _explain_workload():
    """Fitted deployment + flagged samples + healthy distractors for CoMTE.

    The anomalous samples carry a sawtooth on a handful of metrics — far
    outside the uniform-noise training distribution — and the threshold
    sits at the 75th training percentile so both samples flag robustly and
    the searches do real multi-round work.
    """
    from repro.telemetry import NodeSeries

    rng = np.random.default_rng(0)
    n_metrics, n_train, n_ts = 16, 24, 240
    names = tuple(f"m{i}" for i in range(n_metrics))
    healthy = [
        NodeSeries(1, c, np.arange(float(n_ts)), rng.random((n_ts, n_metrics)), names)
        for c in range(n_train)
    ]
    arng = np.random.default_rng(100)
    anomalous = []
    for c, cols in enumerate(([2, 5, 7, 11, 13], [1, 6, 9, 14, 3])):
        values = arng.random((n_ts, n_metrics))
        values[:, cols] = np.abs(np.sin(np.arange(n_ts) * (0.5 + 0.1 * c)))[:, None] * 6.0
        anomalous.append(NodeSeries(8, c, np.arange(float(n_ts)), values, names))
    pipeline, detector, _ = _fit_deployment(healthy, threshold_percentile=75.0)
    return pipeline, detector, healthy, anomalous


def run_training_check() -> dict:
    from oracles.nn import ReferenceVAETrainer
    from repro.core.vae import VAE
    from repro.explain.comte import OptimizedSearch
    from repro.explain.evaluators import series_classifier

    cfg = VAE_BENCH
    result: dict = {"cpu_count": os.cpu_count()}

    # -- VAE training: fused fast path vs frozen reference trainer ---------
    rng = np.random.default_rng(3)
    x = rng.random((cfg["n_samples"], cfg["input_dim"]))
    model_kw = dict(
        hidden_dims=cfg["hidden_dims"], latent_dim=cfg["latent_dim"], seed=cfg["seed"]
    )
    fit_kw = dict(
        epochs=cfg["epochs"], batch_size=cfg["batch_size"], learning_rate=1e-3
    )

    fast = VAE(cfg["input_dim"], **model_kw)
    ref = ReferenceVAETrainer(cfg["input_dim"], **model_kw)
    h_fast = fast.fit(x, **fit_kw)
    h_ref = ref.fit(x, **fit_kw)
    fp, rp = fast.named_params(), ref.named_params()
    weights_identical = set(fp) == set(rp) and all(
        np.array_equal(fp[k], rp[k]) for k in fp
    )
    history_identical = (
        h_fast.loss == h_ref.loss
        and h_fast.reconstruction == h_ref.reconstruction
        and h_fast.kl == h_ref.kl
    )
    ref_s, fast_s = _interleaved_best(
        [
            lambda: ReferenceVAETrainer(cfg["input_dim"], **model_kw).fit(x, **fit_kw),
            lambda: VAE(cfg["input_dim"], **model_kw).fit(x, **fit_kw),
        ],
        reps=3,
    )
    result["training"] = {
        "workload": dict(cfg, hidden_dims=list(cfg["hidden_dims"])),
        "reference_seconds": ref_s,
        "fast_seconds": fast_s,
        "reference_epoch_ms": ref_s / cfg["epochs"] * 1e3,
        "fast_epoch_ms": fast_s / cfg["epochs"] * 1e3,
        "speedup_vs_reference": ref_s / fast_s,
        "weights_bit_identical": bool(weights_identical),
        "history_identical": bool(history_identical),
        "floor": TRAIN_SPEEDUP_FLOOR,
    }

    # -- CoMTE: batched + memoised search vs per-candidate evaluation ------
    pipeline, detector, healthy, anomalous = _explain_workload()
    distractors = healthy[:8]
    classifier = series_classifier(pipeline, detector)

    def run_serial():
        search = OptimizedSearch(
            classifier, distractors, max_metrics=5,
            memoize=False, batched=False,
        )
        return [search.explain(s) for s in anomalous]

    def run_batched_series():
        search = OptimizedSearch(classifier, distractors, max_metrics=5)
        return [search.explain(s) for s in anomalous]

    cfs_serial = run_serial()
    cfs_series = run_batched_series()
    identical = all(
        set(a.metrics) == set(b.metrics) for a, b in zip(cfs_serial, cfs_series)
    )
    # A search lasts tens of milliseconds and the host's speed drifts over
    # seconds, so the speedup is the median ratio of back-to-back pairs
    # taken in alternating order, as in the drift-overhead check.
    serial_s, series_s = _alternating_pairs(run_serial, run_batched_series, EXPLAIN_PAIRS)
    result["explain"] = {
        "workload": {
            "n_anomalous": len(anomalous),
            "n_distractors": len(distractors),
            "n_metrics": 16,
            "max_metrics": 5,
        },
        "pairs": EXPLAIN_PAIRS,
        "per_candidate_seconds": float(np.median(serial_s)),
        "batched_series_seconds": float(np.median(series_s)),
        "speedup_batched_series": float(np.median(np.array(serial_s) / np.array(series_s))),
        "identical_metric_sets": bool(identical),
        "serial_evaluations": sum(c.n_evaluations for c in cfs_serial),
        "batched_true_evaluations": sum(c.n_evaluations for c in cfs_series),
        "batched_cached_evaluations": sum(
            c.n_cached_evaluations for c in cfs_series
        ),
        "flipped": [bool(c.flipped) for c in cfs_serial],
        "floor": EXPLAIN_SPEEDUP_FLOOR,
    }

    t = result["training"]
    e = result["explain"]
    assert t["weights_bit_identical"], "fast-path weights diverged from reference"
    assert t["history_identical"], "fast-path history diverged from reference"
    assert e["identical_metric_sets"], "batched search changed counterfactual metric sets"
    assert t["speedup_vs_reference"] >= TRAIN_SPEEDUP_FLOOR, (
        f"VAE fast path {t['speedup_vs_reference']:.2f}x, "
        f"floor {TRAIN_SPEEDUP_FLOOR:.1f}x"
    )
    assert e["speedup_batched_series"] >= EXPLAIN_SPEEDUP_FLOOR, (
        f"batched CoMTE {e['speedup_batched_series']:.2f}x, "
        f"floor {EXPLAIN_SPEEDUP_FLOOR:.1f}x"
    )
    return result


#: gpu-cluster bench campaign: small enough for CI, mixed enough that the
#: schema-partitioned path (two digests, union alignment, masked fit) is
#: what gets timed.
SCENARIO_BENCH = {
    "scenario": "gpu-cluster",
    "jobs": 6,
    "anomalous_jobs": 2,
    "nodes": 2,
    "duration_s": 180,
    "trim_s": 15.0,
    "n_features": 128,
    "epochs": 20,
    "seed": 5,
}


def run_scenario_check() -> dict:
    from oracles.workloads import PreRefactorSynthesizer
    from repro.core import Prodigy
    from repro.features.extraction import FeatureExtractor
    from repro.runtime import ExecutionConfig, Instrumentation, ParallelExtractor
    from repro.scenarios import get_scenario, load_scenario_series, simulate_scenario
    from repro.util.rng import ensure_rng
    from repro.workloads import default_catalog, zero_drivers
    from repro.workloads.metrics import MetricSynthesizer

    cfg = SCENARIO_BENCH
    result: dict = {"workload": dict(cfg), "cpu_count": os.cpu_count()}

    # -- parity: refactored synthesizer vs frozen pre-refactor oracle ------
    catalog = default_catalog()
    new_synth = MetricSynthesizer(catalog, 128 * 1024.0)
    old_synth = PreRefactorSynthesizer(catalog, 128 * 1024.0)
    drivers = zero_drivers(120)
    rng = np.random.default_rng(11)
    drivers["compute"] = rng.random(120)
    drivers["memory_mb"] = 1000.0 + 500.0 * rng.random(120)
    synth_identical = True
    for seed in (0, 1, 2):
        a = new_synth.synthesize(drivers, job_id=1, component_id=0, seed=seed)
        b = old_synth.synthesize(drivers, job_id=1, component_id=0, seed=seed)
        synth_identical &= bool(
            np.array_equal(a.values, b.values)
            and a.metric_names == b.metric_names
        )
    result["parity"] = {"synthesis_bit_identical": synth_identical}

    # -- mixed campaign: simulate -> load -> fit -> score ------------------
    scenario = get_scenario(cfg["scenario"])
    run, simulate_s = _timed(
        lambda: simulate_scenario(
            scenario, jobs=cfg["jobs"], anomalous_jobs=cfg["anomalous_jobs"],
            nodes=cfg["nodes"], duration_s=cfg["duration_s"], seed=cfg["seed"],
        )
    )
    result["simulate"] = {
        "seconds": simulate_s,
        "node_runs": len(run.labels),
        "union_columns": len(run.frame.metric_names),
    }
    series, load_s = _timed(
        lambda: load_scenario_series(run.frame, scenario, trim_seconds=cfg["trim_s"])
    )
    digests = {s.schema_digest for s in series}
    result["load"] = {
        "seconds": load_s,
        "node_runs": len(series),
        "schema_digests": len(digests),
    }
    labels = np.array(
        [run.labels[f"{s.job_id}:{s.component_id}"] for s in series], dtype=np.int64
    )
    prodigy = Prodigy(
        n_features=cfg["n_features"], hidden_dims=(32, 16), latent_dim=8,
        epochs=cfg["epochs"], batch_size=16, seed=ensure_rng(cfg["seed"]),
    )
    _, fit_s = _timed(lambda: prodigy.fit(series, labels))
    result["fit"] = {"seconds": fit_s, "n_features": cfg["n_features"]}
    scores, score_s = _timed(lambda: prodigy.anomaly_score(series))
    result["score"] = {
        "seconds": score_s,
        "node_runs_per_sec": len(series) / score_s,
    }
    result["detection"] = {
        "threshold": float(prodigy.detector.threshold_),
        "mean_healthy_score": float(scores[labels == 0].mean()),
        "mean_anomalous_score": float(scores[labels == 1].mean()),
    }

    # -- grouping parity: dense path unchanged on homogeneous fleets -------
    homogeneous = [s for s in series if s.schema_digest == next(iter(digests))]
    fx = FeatureExtractor()
    engine = ParallelExtractor(
        fx,
        config=ExecutionConfig(cache_size=0),
        instrumentation=Instrumentation(enabled=False),
    )
    grouped = engine.extract(homogeneous)
    dense, dense_names = fx.extract_matrix(homogeneous)
    result["parity"]["grouping_bit_identical"] = bool(
        grouped.is_dense
        and grouped.feature_names == dense_names
        and np.array_equal(grouped.features, dense)
    )
    assert result["parity"]["synthesis_bit_identical"], (
        "refactored synthesizer diverged from the pre-refactor oracle"
    )
    assert result["parity"]["grouping_bit_identical"], (
        "schema-partitioned extraction diverged from the dense path"
    )
    assert len(digests) == 2, "gpu-cluster load should produce two schemas"
    return result


#: Columnar-history bench shape: >= 2M rows so segment pruning, mmap
#: reads, and the legacy consolidation cost are all measured at scale.
DSOS_BENCH = {
    "n_jobs": 50,
    "nodes_per_job": 4,
    "duration_s": 10_000,
    "n_metrics": 6,
    "segment_span": 1000.0,
    "n_queries": 200,
    "query_window_s": 1000.0,
    "seed": 17,
}

#: Acceptance bar: a zone-map-pruned mmap query against the sealed store
#: must beat the legacy store's first (consolidating) query by this much.
DSOS_FIRST_QUERY_FLOOR = 5.0


def _dsos_history(cfg: dict):
    """Per-job telemetry frames: typed counters + gauges on a 1 Hz grid."""
    from repro.telemetry import TelemetryFrame

    rng = np.random.default_rng(cfg["seed"])
    n, nodes = cfg["duration_s"], cfg["nodes_per_job"]
    names = ("ctr0", "inc1", "g2", "g3", "g4", "g5")
    frames = []
    for job in range(1, cfg["n_jobs"] + 1):
        start = 97.0 * job  # staggered starts: windows overlap across jobs
        ts = np.tile(start + np.arange(n, dtype=float), nodes)
        job_id = np.full(n * nodes, job, dtype=np.int64)
        comp = np.repeat(np.arange(nodes, dtype=np.int64) + 100, n)
        vals = np.empty((n * nodes, len(names)))
        vals[:, 0] = np.concatenate(
            [np.cumsum(rng.integers(0, 40, size=n)) for _ in range(nodes)]
        )
        vals[:, 1] = rng.integers(0, 30, size=n * nodes)
        vals[:, 2:] = rng.random((n * nodes, 4))
        frames.append(TelemetryFrame(job_id, comp, ts, vals, names))
    return frames


def run_dsos_check() -> dict:
    import tempfile

    from oracles.dsos import DsosStore
    from repro.hist import CUMULATIVE, DELTA, HistStore

    cfg = DSOS_BENCH
    frames = _dsos_history(cfg)
    n_rows = sum(f.n_rows for f in frames)
    result: dict = {
        "workload": dict(cfg, n_rows=n_rows),
        "cpu_count": os.cpu_count(),
    }
    rng = np.random.default_rng(cfg["seed"] + 1)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "hist"
        meters = {"bench": {"ctr0": CUMULATIVE, "inc1": DELTA}}

        legacy = DsosStore()
        _, legacy_ingest_s = _timed(
            lambda: [legacy.ingest("bench", f) for f in frames]
        )
        hist = HistStore(root, segment_span=cfg["segment_span"], meters=meters)

        def hist_ingest():
            for f in frames:
                hist.ingest("bench", f)
            hist.flush()

        _, hist_ingest_s = _timed(hist_ingest)
        raw = hist.container("bench").stats()["tiers"]["raw"]
        result["ingest"] = {
            "rows": n_rows,
            "legacy_seconds": legacy_ingest_s,
            "legacy_rows_per_sec": n_rows / legacy_ingest_s,
            "hist_seconds": hist_ingest_s,
            "hist_rows_per_sec": n_rows / hist_ingest_s,
            "raw_segments": raw["segments"],
            "disk_bytes": raw["bytes"],
            "bytes_per_row": raw["bytes"] / n_rows,
            "codecs": raw["codecs"],
        }

        # -- first-query latency: consolidation vs pruned mmap scan --------
        probe_job = cfg["n_jobs"] // 2
        legacy_first, legacy_first_s = _timed(
            lambda: legacy.query("bench", job_id=probe_job)
        )
        cold = HistStore(root, segment_span=cfg["segment_span"], meters=meters)
        hist_first, hist_first_s = _timed(
            lambda: cold.query("bench", job_id=probe_job)
        )
        assert np.array_equal(hist_first.values, legacy_first.values), (
            "first-query parity violated"
        )
        result["first_query"] = {
            "job_rows": legacy_first.n_rows,
            "legacy_seconds": legacy_first_s,
            "hist_seconds": hist_first_s,
            "speedup": legacy_first_s / hist_first_s,
            "floor": DSOS_FIRST_QUERY_FLOOR,
        }

        # -- steady-state latency: random (job, window) queries -------------
        latencies = []
        hit_rows = 0
        for _ in range(cfg["n_queries"]):
            job = int(rng.integers(1, cfg["n_jobs"] + 1))
            t0 = 97.0 * job + float(
                rng.integers(0, cfg["duration_s"] - int(cfg["query_window_s"]))
            )
            out, t = _timed(
                lambda: hist.query(
                    "bench", job_id=job, t0=t0, t1=t0 + cfg["query_window_s"]
                )
            )
            latencies.append(t * 1e3)
            hit_rows += out.n_rows
        lat = np.array(latencies)
        result["query"] = {
            "n_queries": cfg["n_queries"],
            "p50_ms": float(np.percentile(lat, 50)),
            "p99_ms": float(np.percentile(lat, 99)),
            "mean_rows": hit_rows / cfg["n_queries"],
        }

        # -- compaction throughput ------------------------------------------
        tiers, compact_s = _timed(hist.compact)
        result["compaction"] = {
            "seconds": compact_s,
            "rows_per_sec": n_rows / compact_s,
            "tier_rows": tiers["bench"],
        }

        # -- parity: sampled queries + job inventory must be bit-identical --
        filters = [{}, {"component_id": 101}, {"t0": 5_000.0, "t1": 5_000.0}]
        for _ in range(9):
            job = int(rng.integers(1, cfg["n_jobs"] + 1))
            t0 = 97.0 * job + float(rng.integers(0, cfg["duration_s"]))
            filters.append({"job_id": job, "t0": t0, "t1": t0 + 512.0})
        parity = bool(np.array_equal(hist.jobs(), legacy.jobs()))
        for f in filters:
            a, b = hist.query("bench", **f), legacy.query("bench", **f)
            parity &= bool(
                np.array_equal(a.values, b.values)
                and np.array_equal(a.job_id, b.job_id)
                and np.array_equal(a.component_id, b.component_id)
                and np.array_equal(a.timestamp, b.timestamp)
            )
        result["parity"] = {
            "sampled_queries": len(filters),
            "bit_identical": parity,
        }

    assert result["parity"]["bit_identical"], (
        "hist store diverged from the legacy DSOS oracle"
    )
    q = result["first_query"]
    assert q["speedup"] >= DSOS_FIRST_QUERY_FLOOR, (
        f"pruned mmap first query only {q['speedup']:.1f}x faster than legacy "
        f"consolidation, floor {DSOS_FIRST_QUERY_FLOOR:.1f}x"
    )
    return result


#: Serving-gateway bench shape: the batch tenant's arrivals outrun its
#: quota by ~4x so admission control is doing real work, while the
#: interactive tenant must keep its p99 inside the SLO throughout.
SERVING_BENCH = {
    "horizon_s": 4.0,
    "interactive_rate_hz": 40.0,
    "batch_rate_hz": 120.0,
    "promote_at_s": 2.0,
    "seed": 9,
}

#: Acceptance bar: a response-cache hit must beat the cold render by this.
SERVING_CACHE_SPEEDUP_FLOOR = 10.0


def run_serving_check() -> dict:
    import tempfile

    from repro.lifecycle import ModelRegistry
    from repro.serving import TenantSpec, demo_gateway
    from repro.serving.loadgen import ReplayHarness, TrafficProfile

    cfg = SERVING_BENCH
    result: dict = {"workload": dict(cfg), "cpu_count": os.cpu_count()}

    # -- response cache: cold dashboard render vs cached hit ---------------
    gateway, _, job_ids, _ = demo_gateway(seed=cfg["seed"])
    cold_times, warm_times = [], []
    for job in job_ids:
        resp, t = _timed(
            lambda j=job: gateway.request("dashboard", "anomaly_detection", j)
        )
        assert not resp["gateway"]["cached"], "first read must miss the cache"
        cold_times.append(t)
    for _ in range(3):
        for job in job_ids:
            resp, t = _timed(
                lambda j=job: gateway.request("dashboard", "anomaly_detection", j)
            )
            assert resp["gateway"]["cached"], "repeat read must hit the cache"
            warm_times.append(t)
    cold_mean = float(np.mean(cold_times))
    warm_mean = float(np.mean(warm_times))
    result["cache"] = {
        "jobs": len(job_ids),
        "cold_seconds": float(np.sum(cold_times)),
        "cold_ms_mean": cold_mean * 1e3,
        "warm_us_mean": warm_mean * 1e6,
        "speedup": cold_mean / warm_mean,
        "floor": SERVING_CACHE_SPEEDUP_FLOOR,
    }

    # -- saturation replay with a mid-replay registry promotion ------------
    tenants = (
        TenantSpec("dashboard", priority="interactive", rate=200.0, burst=50.0,
                   queue_capacity=128, p99_slo_ms=250.0),
        # Quota sized at ~1/4 of the offered batch rate: the batch tenant
        # must saturate (counted quota rejections), not merely queue.
        TenantSpec("analytics", priority="batch", rate=30.0, burst=10.0,
                   queue_capacity=32, deadline_s=1.0, p99_slo_ms=5000.0),
    )
    with tempfile.TemporaryDirectory() as tmp:
        registry = ModelRegistry(Path(tmp) / "registry")
        gateway, service, job_ids, anomalous_job = demo_gateway(
            seed=cfg["seed"], tenants=tenants,
            version_source=lambda: registry.active_version or "unregistered",
        )
        ds = service.detector_service
        registry.register(ds.pipeline, ds.detector)
        registry.register(ds.pipeline, ds.detector)
        registry.activate("v0001")
        profiles = [
            TrafficProfile(tenant="dashboard", rate_hz=cfg["interactive_rate_hz"]),
            TrafficProfile(
                tenant="analytics", rate_hz=cfg["batch_rate_hz"],
                mix=(("anomaly_detection", 0.7), ("node_analysis", 0.3)),
            ),
        ]
        harness = ReplayHarness(
            gateway, profiles, job_ids, seed=cfg["seed"],
            actions=[(cfg["promote_at_s"],
                      lambda: registry.activate("v0002"))],
            onsets=((anomalous_job, 0, cfg["horizon_s"]),),
        )
        report = harness.run(horizon_s=cfg["horizon_s"], mode="open")
    slo = report.slo
    interactive = slo["tenants"]["dashboard"]
    batch = slo["tenants"]["analytics"]
    result["replay"] = {
        "mode": report.mode,
        "virtual_seconds": report.virtual_seconds,
        "wall_seconds": report.wall_seconds,
        "issued": dict(report.issued),
        "completed": report.completed,
        "stale_responses": report.stale_responses,
        "versions_served": list(report.versions_served),
        "priority_inversions": report.priority_inversions,
        "interactive_p99_ms": interactive["p99_ms"],
        "interactive_slo_ms": interactive["p99_slo_ms"],
        "interactive_slo_met": interactive["slo_met"],
        "batch_rejected_quota": batch["rejected_quota"],
        "batch_rejected_queue_full": batch["rejected_queue_full"],
        "batch_shed_deadline": batch["shed_deadline"],
        "cache_hit_rate": slo["cache"]["hit_rate"],
        "cache_invalidations": slo["cache"]["invalidations"],
        "lead_time": slo["lead_time"],
    }

    c = result["cache"]
    r = result["replay"]
    assert c["speedup"] >= SERVING_CACHE_SPEEDUP_FLOOR, (
        f"cache hit only {c['speedup']:.1f}x faster than cold render, "
        f"floor {SERVING_CACHE_SPEEDUP_FLOOR:.0f}x"
    )
    assert r["priority_inversions"] == 0, "batch served ahead of interactive"
    assert r["stale_responses"] == 0, (
        "a response carried a demoted model version after the promotion"
    )
    assert set(r["versions_served"]) == {"v0001", "v0002"}, (
        f"expected both versions across the promotion, got {r['versions_served']}"
    )
    assert r["interactive_slo_met"], (
        f"interactive p99 {r['interactive_p99_ms']:.2f} ms over the "
        f"{r['interactive_slo_ms']:.0f} ms SLO under batch saturation"
    )
    batch_saturated = (
        r["batch_rejected_quota"] + r["batch_rejected_queue_full"]
        + r["batch_shed_deadline"]
    )
    assert batch_saturated > 0, (
        "batch tenant never saturated: quota/queue sizing lost its point"
    )
    assert r["lead_time"]["alerted"] >= 1, (
        "the injected anomalous job was never alerted during the replay"
    )
    return result


# -- streaming: rolling mode vs the batch oracle -------------------------------

#: Required rolling-vs-batch ingest speedup at every fleet width (target ~10x).
STREAMING_SPEEDUP_FLOOR = 5.0
#: Max per-verdict |score_rolling - score_batch| across the parity replay:
#: both modes run the same kernels on the same rows, so scores are equal.
STREAMING_PARITY_BOUND = 0.0


def _streaming_deployment(n_metrics: int = 16, seed: int = 0):
    """A resample-free fitted deployment — the rolling engine's precondition."""
    from repro.telemetry import NodeSeries

    rng = np.random.default_rng(seed)
    names = tuple(f"m{i}" for i in range(n_metrics))
    train = [
        NodeSeries(1, c, np.arange(240.0), rng.random((240, n_metrics)), names)
        for c in range(24)
    ]
    return _fit_deployment(train, seed=seed, resample_points=None)


def _streaming_fleet_stream(
    n_nodes: int, chunks_per_node: int, n_metrics: int = 16, seed: int = 2
):
    """Round-robin interleaved per-node chunk streams (1 Hz, 16-row chunks)."""
    from repro.telemetry import NodeSeries

    rng = np.random.default_rng(seed)
    names = tuple(f"m{i}" for i in range(n_metrics))
    chunk = 16
    per_node = []
    for node in range(n_nodes):
        vals = rng.random((chunks_per_node * chunk, n_metrics))
        per_node.append([
            NodeSeries(
                7, node,
                np.arange(float(i * chunk), float((i + 1) * chunk)),
                vals[i * chunk : (i + 1) * chunk], names,
            )
            for i in range(chunks_per_node)
        ])
    return [
        per_node[node][i]
        for i in range(chunks_per_node)
        for node in range(n_nodes)
    ]


def run_streaming_check() -> dict:
    """Sustained streaming ingest: rolling mode vs batch recompute.

    Replays identical interleaved chunk streams through both
    ``streaming_mode`` paths of one fitted deployment at fleet widths
    1/8/64 and reports wall-clock, throughput, and the rolling speedup.
    An untimed parity replay then checks that the two modes emit the same
    verdicts — same (window_end, alert, streak) and scores within
    ``STREAMING_PARITY_BOUND``.  A second untimed replay feeds the
    64-node fleet micro-batched, one ``ingest_many`` per round across
    every node (how a fleet worker drains its queue), in both modes, with
    the same parity bound on its verdicts.
    """
    from repro.monitoring import StreamingDetector

    pipeline, detector, _ = _streaming_deployment()
    window_seconds, evaluate_every = 128.0, 32

    def stream_of(mode):
        return StreamingDetector(
            pipeline, detector,
            window_seconds=window_seconds, evaluate_every=evaluate_every,
            streaming_mode=mode,
        )

    def replay(mode, chunks):
        stream = stream_of(mode)
        return [v for c in chunks if (v := stream.ingest(c)) is not None]

    def replay_rounds(mode, rounds):
        stream = stream_of(mode)
        return [v for chunks in rounds for v in stream.ingest_many(chunks)]

    result: dict = {
        "workload": {
            "n_metrics": 16,
            "chunk_rows": 16,
            "window_seconds": window_seconds,
            "evaluate_every": evaluate_every,
            "selected_features": len(pipeline.selected_names_),
        },
        "cpu_count": os.cpu_count(),
        "speedup_floor": STREAMING_SPEEDUP_FLOOR,
        "parity_bound": STREAMING_PARITY_BOUND,
    }

    # Wider fleets replay fewer chunks per node: the batch oracle's cost per
    # window is flat, so the ratio is unaffected and the check stays fast.
    for n_nodes, chunks_per_node in ((1, 40), (8, 24), (64, 10)):
        chunks = _streaming_fleet_stream(n_nodes, chunks_per_node)
        rows = sum(c.n_timestamps for c in chunks)
        batch_s, rolling_s = _interleaved_best(
            [lambda: replay("batch", chunks), lambda: replay("rolling", chunks)],
            reps=2,
        )
        result[f"nodes_{n_nodes}"] = {
            "chunks": len(chunks),
            "rows": rows,
            "batch_seconds": batch_s,
            "rolling_seconds": rolling_s,
            "batch_rows_per_sec": rows / batch_s,
            "rolling_rows_per_sec": rows / rolling_s,
            "speedup": batch_s / rolling_s,
        }

    def parity(batch_v, rolling_v) -> dict:
        key = lambda v: (v.job_id, v.component_id, v.window_end, v.alert, v.streak)
        deltas = [
            abs(b.anomaly_score - r.anomaly_score)
            for b, r in zip(batch_v, rolling_v)
        ]
        return {
            "verdicts": len(batch_v),
            "max_abs_delta": max(deltas) if deltas else None,
            "verdicts_identical": (
                len(batch_v) == len(rolling_v)
                and [key(v) for v in batch_v] == [key(v) for v in rolling_v]
            ),
        }

    # Untimed parity replays (instrumented path): chunk by chunk at mid
    # fleet width, then one ingest_many per round across 64 nodes.
    chunks = _streaming_fleet_stream(8, 24)
    result["parity"] = parity(replay("batch", chunks), replay("rolling", chunks))
    chunks = _streaming_fleet_stream(64, 10)
    rounds = [chunks[i : i + 64] for i in range(0, len(chunks), 64)]
    result["microbatch_parity"] = parity(
        replay_rounds("batch", rounds), replay_rounds("rolling", rounds)
    )

    for name, p in (("parity", result["parity"]),
                    ("micro-batched parity", result["microbatch_parity"])):
        assert p["verdicts"] > 0, f"{name} replay emitted no verdicts"
        assert p["verdicts_identical"], (
            f"{name}: rolling and batch modes disagreed on (window_end, alert, streak)"
        )
        assert p["max_abs_delta"] <= STREAMING_PARITY_BOUND, (
            f"{name}: rolling scores drifted {p['max_abs_delta']:.2e} from "
            f"batch, bound {STREAMING_PARITY_BOUND:.0e}"
        )
    for n_nodes in (1, 8, 64):
        sp = result[f"nodes_{n_nodes}"]["speedup"]
        assert sp >= STREAMING_SPEEDUP_FLOOR, (
            f"rolling only {sp:.1f}x faster than batch at {n_nodes} nodes, "
            f"floor {STREAMING_SPEEDUP_FLOOR:.0f}x"
        )
    return result


def summarise_runtime(r: dict) -> str:
    return (
        f"serial {r['serial']['samples_per_sec']:.1f} samples/s, "
        f"warm cache {r['warm_cache']['samples_per_sec']:.1f} samples/s "
        f"({r['warm_cache']['speedup_vs_serial']:.1f}x, "
        f"hit rate {r['warm_cache']['cache_hit_rate']:.2f})"
    )


def summarise_features(r: dict) -> str:
    return (
        f"full set {r['full_set']['speedup_vs_reference']:.1f}x vs reference "
        f"(expensive tier {r['expensive_tier']['speedup_vs_reference']:.1f}x), "
        f"threaded {r['threaded']['speedup_vs_serial']:.2f}x vs serial "
        f"({r['threaded']['workers']} workers, {r['threaded']['groups']} groups), "
        f"microbatch {r['microbatch']['speedup']:.2f}x, "
        f"cheap-tier bit parity {r['parity']['cheap_tier_bit_identical']}"
    )


def summarise_lifecycle(r: dict) -> str:
    return (
        f"registry save {r['registry']['save_ms_mean']:.1f} ms / "
        f"load {r['registry']['load_ms_mean']:.1f} ms; drift overhead "
        f"{r['drift_overhead']['overhead_ratio']:.3f}x per window "
        f"(budget {r['drift_overhead']['budget']:.2f}x)"
    )


def summarise_training(r: dict) -> str:
    return (
        f"VAE fit {r['training']['speedup_vs_reference']:.2f}x vs reference "
        f"(bit-identical weights {r['training']['weights_bit_identical']}); "
        f"CoMTE {r['explain']['speedup_batched_series']:.1f}x series-batched "
        f"vs per-candidate (identical metric sets "
        f"{r['explain']['identical_metric_sets']})"
    )


def summarise_scenarios(r: dict) -> str:
    return (
        f"gpu-cluster simulate {r['simulate']['seconds']:.2f}s "
        f"({r['simulate']['node_runs']} node-runs, "
        f"{r['simulate']['union_columns']} union columns), "
        f"load {r['load']['seconds']:.2f}s, fit {r['fit']['seconds']:.2f}s, "
        f"score {r['score']['node_runs_per_sec']:.1f} runs/s; "
        f"synthesis parity {r['parity']['synthesis_bit_identical']}, "
        f"grouping parity {r['parity']['grouping_bit_identical']}"
    )


def summarise_dsos(r: dict) -> str:
    return (
        f"dsos {r['ingest']['rows'] / 1e6:.1f}M rows: ingest "
        f"{r['ingest']['hist_rows_per_sec'] / 1e6:.2f}M rows/s "
        f"({r['ingest']['raw_segments']} segments, "
        f"{r['ingest']['bytes_per_row']:.1f} B/row); first query "
        f"{r['first_query']['speedup']:.1f}x vs legacy consolidation "
        f"(floor {r['first_query']['floor']:.0f}x); window queries "
        f"p50 {r['query']['p50_ms']:.2f} ms / p99 {r['query']['p99_ms']:.2f} ms; "
        f"compaction {r['compaction']['rows_per_sec'] / 1e6:.2f}M rows/s; "
        f"parity {r['parity']['bit_identical']}"
    )


def summarise_serving(r: dict) -> str:
    return (
        f"serving cache hit {r['cache']['speedup']:.0f}x vs cold "
        f"(floor {r['cache']['floor']:.0f}x); replay "
        f"{r['replay']['completed']} served, interactive p99 "
        f"{r['replay']['interactive_p99_ms']:.2f} ms "
        f"(SLO {r['replay']['interactive_slo_ms']:.0f} ms, met "
        f"{r['replay']['interactive_slo_met']}), batch quota rejections "
        f"{r['replay']['batch_rejected_quota']}, "
        f"{r['replay']['stale_responses']} stale across promotion "
        f"{' -> '.join(r['replay']['versions_served'])}, "
        f"{r['replay']['priority_inversions']} inversions"
    )


def summarise_streaming(r: dict) -> str:
    """One-line streaming report; also used by the CI streaming-smoke job."""
    return (
        f"streaming rolling {r['nodes_1']['speedup']:.1f}x / "
        f"{r['nodes_8']['speedup']:.1f}x / {r['nodes_64']['speedup']:.1f}x "
        f"vs batch at 1/8/64 nodes (floor {r['speedup_floor']:.0f}x), "
        f"rolling {r['nodes_64']['rolling_rows_per_sec']:.0f} rows/s at 64 "
        f"nodes, parity max|delta| {r['parity']['max_abs_delta']:.1e} over "
        f"{r['parity']['verdicts']} verdicts, verdicts identical "
        f"{r['parity']['verdicts_identical']}; micro-batched parity "
        f"max|delta| {r['microbatch_parity']['max_abs_delta']:.1e} over "
        f"{r['microbatch_parity']['verdicts']} verdicts"
    )


def summarise_fleet(r: dict) -> str:
    """One-line fleet report; also used by the CI fleet-scaling-smoke job."""
    return (
        f"fleet [{r['transport']}] {r['workers_1']['nodes_per_sec']:.1f} / "
        f"{r['workers_2']['nodes_per_sec']:.1f} / "
        f"{r['workers_4']['nodes_per_sec']:.1f} nodes/s at 1/2/4 workers, "
        f"eff@4 {r['workers_4'].get('parallel_efficiency', 0.0):.2f}"
        + (f" (scaling skipped: {r['scaling']['skipped_reason']})"
           if "skipped_reason" in r["scaling"] else "")
        + f", oracle parity {r['parity_across_widths']}, wide shard "
        f"{r['wide_shard']['nodes_per_sec']:.0f} nodes/s, "
        f"overload drop rate {r['overload']['drop_rate']:.2f}"
    )


def _write_report(out_path: Path, run, summarise) -> dict:
    try:
        result = run()
        result["ok"] = True
    except Exception:
        result = {"ok": False, "error": traceback.format_exc()}
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out_path}")
    if result.get("ok"):
        print(summarise(result))
    else:
        print("check failed (non-gating):", file=sys.stderr)
        print(result["error"], file=sys.stderr)
    return result


def _diff_vs_baseline(compare_bench, bench: Bench, baseline: dict | None, fresh: dict) -> None:
    """Non-gating regression diff of a fresh report vs the committed baseline."""
    if baseline is None or not baseline.get("ok") or not fresh.get("ok"):
        return
    rows = compare_bench.compare_payloads(
        baseline, fresh, bench.tracked,
        skip_reasons=compare_bench.scaling_skip_reasons(bench, fresh),
    )
    print(compare_bench.format_rows(f"{bench.filename} vs committed baseline", rows))
    if any(row["regressed"] for row in rows):
        print("perf regression vs committed baseline (non-gating here; "
              "run compare_bench.py to gate)", file=sys.stderr)


class Bench(NamedTuple):
    """One bench: the record it writes, how to run it, its summary line,
    and the wall-clock metrics (dotted paths into the record) compared
    against the committed baseline."""

    filename: str
    run: Callable[[], dict]
    summarise: Callable[[dict], str]
    tracked: tuple[str, ...]


#: Every bench, in the order of ``main``'s positional output paths.
#: ``compare_bench.py`` re-runs the same table against its tracked metrics.
BENCHES = (
    Bench("BENCH_runtime.json", run_check, summarise_runtime, (
        "serial.seconds",
        "warm_cache.seconds",
    )),
    Bench("BENCH_features.json", run_feature_check, summarise_features, (
        "full_set.new_seconds",
        "expensive_tier.new_seconds",
        "threaded.threaded_seconds",
        "microbatch.batched_seconds",
    )),
    Bench("BENCH_lifecycle.json", run_lifecycle_check, summarise_lifecycle, (
        "drift_overhead.bare_ms_per_window",
        "drift_overhead.lifecycle_ms_per_window",
    )),
    Bench("BENCH_fleet.json", run_fleet_check, summarise_fleet, (
        "workers_1.seconds",
        "workers_2.seconds",
        "workers_4.seconds",
    )),
    Bench("BENCH_training.json", run_training_check, summarise_training, (
        "training.fast_seconds",
        "explain.batched_series_seconds",
    )),
    Bench("BENCH_scenarios.json", run_scenario_check, summarise_scenarios, (
        "simulate.seconds",
        "load.seconds",
        "score.seconds",
    )),
    Bench("BENCH_dsos.json", run_dsos_check, summarise_dsos, (
        "ingest.hist_seconds",
        "query.p99_ms",
        "compaction.seconds",
    )),
    Bench("BENCH_serving.json", run_serving_check, summarise_serving, (
        "cache.cold_seconds",
        "replay.wall_seconds",
    )),
    Bench("BENCH_streaming.json", run_streaming_check, summarise_streaming, (
        "nodes_1.rolling_seconds",
        "nodes_8.rolling_seconds",
        "nodes_64.rolling_seconds",
    )),
)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import compare_bench

    for i, bench in enumerate(BENCHES):
        out_path = Path(argv[i]) if i < len(argv) else REPO_ROOT / bench.filename
        baseline = json.loads(out_path.read_text()) if out_path.exists() else None
        fresh = _write_report(out_path, bench.run, bench.summarise)
        _diff_vs_baseline(compare_bench, bench, baseline, fresh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
