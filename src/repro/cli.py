"""Command-line interface.

Mirrors how operators would drive a deployment from the monitoring server:

* ``repro-prodigy generate``  — synthesise a labeled campaign to CSV + labels
* ``repro-prodigy simulate``  — synthesise a named *scenario* campaign
  (``--scenario gpu-cluster`` renders a mixed CPU+GPU fleet to one
  union-column CSV; absent metrics are NaN in a node's rows)
* ``repro-prodigy detect``    — score every node-run in a telemetry file
  with a per-node-class breakdown (schema-aware when ``--scenario`` names
  the fleet the telemetry came from)
* ``repro-prodigy train``     — fit a deployment from CSV telemetry + labels
* ``repro-prodigy predict``   — per-node verdicts for a job id
* ``repro-prodigy explain``   — CoMTE counterfactual for one flagged node-run
* ``repro-prodigy evaluate``  — macro-F1 of a saved deployment on labeled data
* ``repro-prodigy runtime``   — runtime-layer utilities (``stats`` self-bench)
* ``repro-prodigy lifecycle`` — model-operations: ``register`` an artifact
  dir as an immutable version, ``activate``/``rollback`` the serving
  version, ``status`` (versions + drift + audit tail), ``drift`` (offline
  drift check of telemetry against the active version's training
  profile), ``gc`` old versions
* ``repro-prodigy fleet``     — sharded multi-worker scoring: ``run`` a
  synthetic stream through a worker fleet (optionally killing a worker
  mid-run to exercise rebalancing), ``status`` to render a saved fleet
  status JSON
* ``repro-prodigy dsos``      — columnar historical store: ``ingest`` CSV
  telemetry into time-partitioned segments (columns are grouped into
  containers by their ``<metric>::<sampler>`` suffix), ``compact`` raw
  history into the 1min/10min retention tiers, ``query`` a window back
  out (optionally to CSV), ``stats`` for the segment/tier layout and a
  windowed rollup

The train/predict/evaluate/runtime commands accept ``--workers`` /
``--cache-size`` (or the ``PRODIGY_WORKERS`` / ``PRODIGY_CACHE_SIZE``
environment variables) to configure the shared extraction runtime.

The CSV format is the LDMS-extract layout of :mod:`repro.telemetry.io`
(index columns ``job_id, component_id, timestamp``, then metric columns);
labels are JSON mapping ``"job_id:component_id"`` to 0/1.

Run ``python -m repro.cli --help`` for details.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from repro.anomalies import TABLE2_INJECTORS
from repro.core import Prodigy
from repro.eval import classification_report
from repro.runtime import ExecutionConfig, get_instrumentation, set_execution_config
from repro.telemetry.frame import TelemetryFrame
from repro.telemetry.io import read_csv, write_csv
from repro.telemetry.preprocessing import standard_preprocess
from repro.util.rng import derive_seed, ensure_rng
from repro.workloads import ECLIPSE, ECLIPSE_APPS, JobRunner, JobSpec, default_catalog

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-prodigy",
        description="Prodigy HPC anomaly detection (SC'23 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runtime_opts = argparse.ArgumentParser(add_help=False)
    runtime_opts.add_argument(
        "--workers", type=int, default=None,
        help="feature-extraction threads (default: PRODIGY_WORKERS or the usable CPUs)",
    )
    runtime_opts.add_argument(
        "--cache-size", type=int, default=None,
        help="feature-cache entries, 0 disables (default: PRODIGY_CACHE_SIZE or 512)",
    )

    scenario_opts = argparse.ArgumentParser(add_help=False)
    scenario_opts.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="named fleet scenario for schema-aware telemetry loading "
             "(e.g. gpu-cluster); omit for plain homogeneous CSV",
    )

    gen = sub.add_parser("generate", help="synthesise a labeled telemetry campaign")
    gen.add_argument("--output", type=Path, required=True, help="CSV output path")
    gen.add_argument("--labels", type=Path, required=True, help="labels JSON output path")
    gen.add_argument("--jobs", type=int, default=12, help="healthy jobs to run")
    gen.add_argument("--anomalous-jobs", type=int, default=4, help="anomalous jobs to run")
    gen.add_argument("--nodes", type=int, default=4, help="nodes per job")
    gen.add_argument("--duration", type=int, default=300, help="seconds per job")
    gen.add_argument("--seed", type=int, default=0)

    sim = sub.add_parser(
        "simulate", parents=[scenario_opts],
        help="synthesise a labeled campaign for a named fleet scenario",
    )
    sim.set_defaults(scenario="gpu-cluster")
    sim.add_argument("--output", type=Path, required=True, help="CSV output path")
    sim.add_argument("--labels", type=Path, required=True, help="labels JSON output path")
    sim.add_argument(
        "--manifest", type=Path, default=None,
        help="also write a JSON manifest (job classes + injected anomaly names)",
    )
    sim.add_argument("--jobs", type=int, default=12, help="healthy jobs to run")
    sim.add_argument("--anomalous-jobs", type=int, default=4, help="anomalous jobs to run")
    sim.add_argument("--nodes", type=int, default=4, help="nodes per job")
    sim.add_argument("--duration", type=int, default=300, help="seconds per job")
    sim.add_argument("--seed", type=int, default=0)

    train = sub.add_parser(
        "train", parents=[runtime_opts, scenario_opts],
        help="train a deployment from CSV telemetry",
    )
    train.add_argument("--telemetry", type=Path, required=True, help="CSV telemetry")
    train.add_argument("--labels", type=Path, help="labels JSON (omit for healthy-only)")
    train.add_argument("--artifacts", type=Path, required=True, help="output directory")
    train.add_argument("--features", type=int, default=1024, help="selected feature count")
    train.add_argument("--epochs", type=int, default=300)
    train.add_argument("--batch-size", type=int, default=64, help="training minibatch size")
    train.add_argument(
        "--patience", type=int, default=40,
        help="early-stopping patience in epochs on the validation "
             "reconstruction error (-1 disables early stopping)",
    )
    train.add_argument("--trim", type=float, default=30.0, help="edge trim seconds")
    train.add_argument("--seed", type=int, default=0)

    pred = sub.add_parser(
        "predict", parents=[runtime_opts, scenario_opts],
        help="score the nodes of one job",
    )
    pred.add_argument("--telemetry", type=Path, required=True, help="CSV telemetry")
    pred.add_argument("--artifacts", type=Path, required=True, help="deployment directory")
    pred.add_argument("--job", type=int, required=True, help="job id to score")
    pred.add_argument("--trim", type=float, default=30.0)
    pred.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    det = sub.add_parser(
        "detect", parents=[runtime_opts, scenario_opts],
        help="score every node-run with a per-node-class breakdown",
    )
    det.add_argument("--telemetry", type=Path, required=True, help="CSV telemetry")
    det.add_argument("--artifacts", type=Path, required=True, help="deployment directory")
    det.add_argument("--labels", type=Path, default=None,
                     help="labels JSON for detection quality metrics")
    det.add_argument("--job", type=int, default=None, help="restrict to one job id")
    det.add_argument("--trim", type=float, default=30.0)
    det.add_argument("--json", action="store_true", help="emit JSON instead of tables")

    ex = sub.add_parser(
        "explain", parents=[runtime_opts, scenario_opts],
        help="CoMTE counterfactual for one flagged node-run",
    )
    ex.add_argument("--telemetry", type=Path, required=True, help="CSV telemetry")
    ex.add_argument("--artifacts", type=Path, required=True, help="deployment directory")
    ex.add_argument("--job", type=int, required=True, help="job id of the run to explain")
    ex.add_argument(
        "--node", type=int, default=None,
        help="component id (default: the job's highest-scoring node)",
    )
    ex.add_argument(
        "--max-metrics", type=int, default=5,
        help="substitution budget for the greedy search",
    )
    ex.add_argument(
        "--distractors", type=int, default=10,
        help="healthy runs from the telemetry retained as distractors",
    )
    ex.add_argument("--trim", type=float, default=30.0)
    ex.add_argument("--json", action="store_true", help="emit JSON instead of text")

    ev = sub.add_parser(
        "evaluate", parents=[runtime_opts, scenario_opts],
        help="macro-F1 of a deployment on labeled telemetry",
    )
    ev.add_argument("--telemetry", type=Path, required=True)
    ev.add_argument("--labels", type=Path, required=True)
    ev.add_argument("--artifacts", type=Path, required=True)
    ev.add_argument("--trim", type=float, default=30.0)

    rt = sub.add_parser(
        "runtime", parents=[runtime_opts], help="extraction/inference runtime utilities"
    )
    rt.add_argument(
        "action", choices=["stats"],
        help="stats: run a small self-benchmark and print per-stage timings",
    )
    rt.add_argument("--samples", type=int, default=24, help="node-runs in the self-bench")
    rt.add_argument("--metrics", type=int, default=8, help="metrics per node-run")
    rt.add_argument("--json", action="store_true", help="emit JSON instead of tables")

    lc = sub.add_parser(
        "lifecycle", parents=[runtime_opts],
        help="model registry / drift / deployment operations",
    )
    lc.add_argument(
        "action",
        choices=["register", "activate", "rollback", "status", "drift", "gc"],
        help="lifecycle operation",
    )
    lc.add_argument("--registry", type=Path, required=True, help="registry directory")
    lc.add_argument("--artifacts", type=Path, help="artifact dir to register")
    lc.add_argument("--version", help="version id (e.g. v0001) for activate")
    lc.add_argument("--activate", action="store_true",
                    help="activate immediately after register")
    lc.add_argument("--note", default="", help="free-form note for the audit log")
    lc.add_argument("--telemetry", type=Path, help="CSV telemetry for drift checks")
    lc.add_argument("--trim", type=float, default=30.0)
    lc.add_argument("--window", type=int, default=32,
                    help="drift window size in scored node-runs")
    lc.add_argument("--keep", type=int, default=3, help="versions to keep on gc")
    lc.add_argument("--json", action="store_true", help="emit JSON instead of tables")

    fl = sub.add_parser(
        "fleet", parents=[runtime_opts],
        help="sharded multi-worker streaming scorer (run a demo stream, render status)",
    )
    fl.add_argument(
        "action", choices=["run", "status"],
        help="run: stream synthetic telemetry through a worker fleet; "
             "status: render a saved fleet status JSON",
    )
    fl.add_argument("--fleet-workers", type=int, default=2,
                    help="scoring workers on the ring (run)")
    fl.add_argument("--transport", choices=["inline", "process"], default="inline",
                    help="worker transport: inline (cooperative, one thread; "
                         "default) or process (one OS process per worker over "
                         "shared-memory rings)")
    fl.add_argument("--nodes", type=int, default=8, help="streaming nodes (run)")
    fl.add_argument("--metrics", type=int, default=6, help="metrics per node (run)")
    fl.add_argument("--samples", type=int, default=120,
                    help="telemetry samples per node (run)")
    fl.add_argument("--chunk", type=int, default=20,
                    help="samples per submitted chunk (run)")
    fl.add_argument("--queue-capacity", type=int, default=256,
                    help="per-worker ingest queue bound (run)")
    fl.add_argument("--kill-worker", default=None, metavar="ID",
                    help="kill this worker mid-run (e.g. w0) to exercise rebalancing")
    fl.add_argument("--kill-after", type=int, default=0,
                    help="submitted chunks before the kill fires")
    fl.add_argument("--status-out", type=Path, default=None,
                    help="also write the final status JSON here (run)")
    fl.add_argument("--status-file", type=Path, default=None,
                    help="saved status JSON to render (status)")
    fl.add_argument("--seed", type=int, default=0)
    fl.add_argument("--json", action="store_true", help="emit JSON instead of tables")

    ds = sub.add_parser(
        "dsos", help="columnar historical store (segments, tiers, mmap queries)",
    )
    ds.add_argument(
        "action", choices=["ingest", "compact", "query", "stats"],
        help="ingest: CSV telemetry into the store; compact: build the "
             "1min/10min tiers; query: read a window back out; stats: "
             "segment/tier layout + windowed rollup",
    )
    ds.add_argument("--store", type=Path, required=True, help="store root directory")
    ds.add_argument("--telemetry", type=Path, help="CSV telemetry to ingest")
    ds.add_argument(
        "--segment-span", type=float, default=3600.0,
        help="seconds of history per segment window (ingest)",
    )
    ds.add_argument("--sampler", default=None,
                    help="container to query (default: the store's only one)")
    ds.add_argument("--job", type=int, default=None, help="job id filter (query)")
    ds.add_argument("--component", type=int, default=None,
                    help="component id filter (query)")
    ds.add_argument("--t0", type=float, default=None, help="window start (inclusive)")
    ds.add_argument("--t1", type=float, default=None, help="window end (inclusive)")
    ds.add_argument("--tier", default=None,
                    help="retention tier (query: default raw; stats rollup: "
                         "default 1min)")
    ds.add_argument("--output", type=Path, default=None,
                    help="write the query result to this CSV instead of a preview")
    ds.add_argument("--limit", type=int, default=10,
                    help="preview rows printed for query (without --output)")
    ds.add_argument("--json", action="store_true", help="emit JSON instead of tables")

    sv = sub.add_parser(
        "serve", parents=[runtime_opts, scenario_opts],
        help="one dashboard request through the multi-tenant serving gateway",
    )
    sv.add_argument("--telemetry", type=Path, required=True, help="CSV telemetry")
    sv.add_argument("--artifacts", type=Path, required=True, help="deployment directory")
    sv.add_argument(
        "--dashboard", default="anomaly_detection",
        help="dashboard to render (anomaly_detection, node_analysis, slo, ...)",
    )
    sv.add_argument("--job", type=int, default=0, help="job id the dashboard reads")
    sv.add_argument("--node", type=int, default=None,
                    help="component id filter (node_analysis)")
    sv.add_argument("--metric", action="append", default=None, metavar="NAME",
                    help="metric name filter for node_analysis (repeatable)")
    sv.add_argument("--tenant", default="operator",
                    help="tenant name used for SLO accounting")
    sv.add_argument("--trim", type=float, default=30.0)
    sv.add_argument("--json", action="store_true", help="emit JSON instead of tables")

    lg = sub.add_parser(
        "loadgen", parents=[runtime_opts],
        help="deterministic multi-tenant traffic replay against a demo gateway",
    )
    lg.add_argument("--mode", choices=["open", "closed"], default="open",
                    help="open: submit on the arrival schedule; closed: N users "
                         "with think time")
    lg.add_argument("--horizon", type=float, default=5.0,
                    help="virtual seconds of traffic to replay")
    lg.add_argument("--interactive-rate", type=float, default=30.0,
                    help="mean arrival rate of the interactive tenant (Hz)")
    lg.add_argument("--batch-rate", type=float, default=60.0,
                    help="mean arrival rate of the batch tenant (Hz)")
    lg.add_argument("--jobs", type=int, default=3,
                    help="healthy jobs in the synthetic deployment")
    lg.add_argument("--promote-at", type=float, default=None, metavar="T",
                    help="hot-swap the model version at virtual time T "
                         "(exercises cache invalidation mid-replay)")
    lg.add_argument("--check", action="store_true",
                    help="exit 1 on priority inversions, stale responses, or a "
                         "missed interactive SLO")
    lg.add_argument("--out", type=Path, default=None,
                    help="write the replay report JSON here")
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--json", action="store_true", help="emit JSON instead of tables")
    return parser


def _print_sections(sections) -> None:
    """Render (title, headers, rows) sections as aligned tables.

    The one table formatter for operator-facing subcommands (``runtime
    stats``, ``lifecycle status``, ``lifecycle drift``).
    """
    from repro.serving.dashboard import render_table

    for i, (title, headers, rows) in enumerate(sections):
        if i:
            print()
        print(f"{title}:")
        print(render_table(headers, rows))


def _resolve_scenario(name: str):
    """Scenario by name, or None after the standard one-line rc-2 error."""
    from repro.scenarios import available_scenarios, get_scenario

    try:
        return get_scenario(name)
    except KeyError:
        print(
            f"repro-prodigy: error: unknown scenario {name!r} "
            f"(available: {', '.join(available_scenarios())})",
            file=sys.stderr,
        )
        return None


_SCENARIO_ERROR = object()


def _scenario_from(args: argparse.Namespace):
    """None (no --scenario given), a Scenario, or _SCENARIO_ERROR."""
    name = getattr(args, "scenario", None)
    if name is None:
        return None
    scenario = _resolve_scenario(name)
    return scenario if scenario is not None else _SCENARIO_ERROR


def _load_series(telemetry: Path, trim: float, scenario=None):
    frame = read_csv(telemetry)
    if scenario is not None:
        from repro.scenarios import load_scenario_series

        return load_scenario_series(frame, scenario, trim_seconds=trim)
    catalog = default_catalog()
    series = [
        standard_preprocess(s, [m for m in catalog.counter_names if m in frame.metric_names], trim_seconds=trim)
        for s in frame.iter_node_series()
    ]
    return series


def _load_labels(path: Path) -> dict[tuple[int, int], int]:
    raw = json.loads(path.read_text())
    out = {}
    for key, value in raw.items():
        job, comp = key.split(":")
        out[(int(job), int(comp))] = int(value)
    return out


def _labels_for(series, labels_map):
    return np.array(
        [labels_map.get((s.job_id, s.component_id), 0) for s in series], dtype=np.int64
    )


def cmd_generate(args: argparse.Namespace) -> int:
    rng = ensure_rng(args.seed)
    catalog = default_catalog()
    runner = JobRunner(ECLIPSE, catalog=catalog, seed=derive_seed(rng))
    injectors = TABLE2_INJECTORS()
    apps = list(ECLIPSE_APPS.values())
    frames, labels = [], {}
    job_id = 0
    for i in range(args.jobs + args.anomalous_jobs):
        job_id += 1
        app = apps[i % len(apps)]
        anomalies = {}
        if i >= args.jobs:
            inj = injectors[int(rng.integers(len(injectors)))]
            anomalies = {0: inj}
        result = runner.run(
            JobSpec(job_id=job_id, app=app, n_nodes=args.nodes,
                    duration_s=args.duration, anomalies=anomalies)
        )
        frames.append(result.frame)
        for comp in result.component_ids:
            labels[f"{job_id}:{comp}"] = result.node_label(comp)
    write_csv(TelemetryFrame.concat(frames), args.output)
    args.labels.parent.mkdir(parents=True, exist_ok=True)
    args.labels.write_text(json.dumps(labels, indent=2, sort_keys=True))
    n_anom = sum(labels.values())
    print(f"wrote {args.output} ({job_id} jobs) and {args.labels} "
          f"({n_anom}/{len(labels)} anomalous node-runs)")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Render a named scenario campaign to union-column CSV + labels."""
    from repro.scenarios import simulate_scenario

    scenario = _resolve_scenario(args.scenario)
    if scenario is None:
        return 2
    run = simulate_scenario(
        scenario, jobs=args.jobs, anomalous_jobs=args.anomalous_jobs,
        nodes=args.nodes, duration_s=args.duration, seed=args.seed,
    )
    write_csv(run.frame, args.output)
    args.labels.parent.mkdir(parents=True, exist_ok=True)
    args.labels.write_text(json.dumps(run.labels, indent=2, sort_keys=True))
    if args.manifest is not None:
        args.manifest.parent.mkdir(parents=True, exist_ok=True)
        args.manifest.write_text(json.dumps({
            "scenario": run.scenario,
            "job_classes": {str(j): c for j, c in run.job_classes.items()},
            "anomaly_names": run.anomaly_names,
        }, indent=2, sort_keys=True))
    n_anom = sum(run.labels.values())
    print(f"wrote {args.output} ({run.n_jobs} jobs, "
          f"{len(scenario.classes)} node classes) and {args.labels} "
          f"({n_anom}/{len(run.labels)} anomalous node-runs)")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    scenario = _scenario_from(args)
    if scenario is _SCENARIO_ERROR:
        return 2
    series = _load_series(args.telemetry, args.trim, scenario)
    labels = None
    if args.labels is not None:
        labels = _labels_for(series, _load_labels(args.labels))
    prodigy = Prodigy(
        n_features=args.features, epochs=args.epochs,
        batch_size=args.batch_size,
        patience=None if args.patience < 0 else args.patience,
        seed=args.seed,
    )
    prodigy.fit(series, labels)
    prodigy.save(args.artifacts)
    print(f"trained on {len(series)} node-runs "
          f"({'healthy-only' if labels is None else f'{int(labels.sum())} anomalous dropped'}); "
          f"threshold={prodigy.detector.threshold_:.4f}; artifacts in {args.artifacts}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    scenario = _scenario_from(args)
    if scenario is _SCENARIO_ERROR:
        return 2
    prodigy = Prodigy.load(args.artifacts)
    series = [
        s for s in _load_series(args.telemetry, args.trim, scenario)
        if s.job_id == args.job
    ]
    if not series:
        print(f"error: job {args.job} not found in {args.telemetry}", file=sys.stderr)
        return 2
    scores = prodigy.anomaly_score(series)
    preds = (scores > prodigy.detector.threshold_).astype(np.int64)
    if args.json:
        print(json.dumps(
            [
                {"component_id": s.component_id, "prediction": int(p), "score": float(sc)}
                for s, p, sc in zip(series, preds, scores)
            ],
            indent=2,
        ))
    else:
        print(f"job {args.job} (threshold {prodigy.detector.threshold_:.4f}):")
        for s, p, sc in zip(series, preds, scores):
            verdict = "ANOMALOUS" if p else "healthy"
            print(f"  node {s.component_id:>6}: {verdict:<9} score={sc:.4f}")
    return 0


def _series_class_name(s, scenario) -> str:
    """Node-class label for the detect table (scenario class or schema name)."""
    if scenario is not None:
        cls = scenario.class_of_metric_names(s.metric_names)
        if cls is not None:
            return cls.name
    return s.schema.name if s.schema is not None else "unknown"


def cmd_detect(args: argparse.Namespace) -> int:
    """Score every node-run in the telemetry with a per-class breakdown."""
    scenario = _scenario_from(args)
    if scenario is _SCENARIO_ERROR:
        return 2
    prodigy = Prodigy.load(args.artifacts)
    series = _load_series(args.telemetry, args.trim, scenario)
    if args.job is not None:
        series = [s for s in series if s.job_id == args.job]
        if not series:
            print(f"error: job {args.job} not found in {args.telemetry}",
                  file=sys.stderr)
            return 2
    scores = prodigy.anomaly_score(series)
    preds = (scores > prodigy.detector.threshold_).astype(np.int64)
    classes = [_series_class_name(s, scenario) for s in series]
    per_class: dict[str, dict[str, int]] = {}
    for name, p in zip(classes, preds):
        stats = per_class.setdefault(name, {"node_runs": 0, "alerts": 0})
        stats["node_runs"] += 1
        stats["alerts"] += int(p)
    payload = {
        "threshold": float(prodigy.detector.threshold_),
        "n_node_runs": len(series),
        "n_anomalous": int(preds.sum()),
        "classes": per_class,
        "nodes": [
            {"job_id": s.job_id, "component_id": s.component_id,
             "node_class": c, "prediction": int(p), "score": float(sc)}
            for s, c, p, sc in zip(series, classes, preds, scores)
        ],
    }
    if args.labels is not None:
        y = _labels_for(series, _load_labels(args.labels))
        report = classification_report(y, preds)
        payload["report"] = {
            "f1_macro": report.f1_macro,
            "accuracy": report.accuracy,
            "precision_anomalous": report.precision_anomalous,
            "recall_anomalous": report.recall_anomalous,
        }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    sections = [
        (
            f"verdicts (threshold {payload['threshold']:.4f}, "
            f"{payload['n_anomalous']}/{payload['n_node_runs']} anomalous)",
            ["job", "node", "class", "verdict", "score"],
            [[n["job_id"], n["component_id"], n["node_class"],
              "ANOMALOUS" if n["prediction"] else "healthy", n["score"]]
             for n in payload["nodes"]],
        ),
        (
            "node classes",
            ["class", "node-runs", "alerts"],
            [[name, c["node_runs"], c["alerts"]]
             for name, c in sorted(per_class.items())],
        ),
    ]
    _print_sections(sections)
    if "report" in payload:
        r = payload["report"]
        print(f"\nmacro-F1 {r['f1_macro']:.3f}  accuracy {r['accuracy']:.3f}  "
              f"anomalous P/R {r['precision_anomalous']:.3f}/{r['recall_anomalous']:.3f}")
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """CoMTE counterfactual for one node-run of a job."""
    from repro.explain.comte import OptimizedSearch
    from repro.explain.evaluators import series_classifier

    scenario = _scenario_from(args)
    if scenario is _SCENARIO_ERROR:
        return 2
    prodigy = Prodigy.load(args.artifacts)
    series = _load_series(args.telemetry, args.trim, scenario)
    job = [s for s in series if s.job_id == args.job]
    if not job:
        print(f"error: job {args.job} not found in {args.telemetry}", file=sys.stderr)
        return 2
    if args.node is not None:
        picked = [s for s in job if s.component_id == args.node]
        if not picked:
            print(f"error: node {args.node} not found in job {args.job}",
                  file=sys.stderr)
            return 2
        sample = picked[0]
    else:
        sample = job[int(np.argmax(prodigy.anomaly_score(job)))]
    # Distractors: predicted-healthy runs from the same telemetry file (the
    # loaded deployment carries no training references).  CoMTE substitutes
    # whole metric columns, so distractors must share the flagged run's
    # column layout — on a mixed fleet only same-class nodes qualify.
    healthy = [
        s for s, p in zip(series, prodigy.predict(series))
        if p == 0 and s is not sample and s.metric_names == sample.metric_names
    ][: args.distractors]
    if not healthy:
        print("error: no predicted-healthy runs in the telemetry to use as "
              "distractors", file=sys.stderr)
        return 2
    search = OptimizedSearch(
        series_classifier(prodigy.pipeline, prodigy.detector), healthy,
        max_metrics=args.max_metrics,
    )
    cf = search.explain(sample)
    if args.json:
        print(json.dumps({
            "job_id": sample.job_id,
            "component_id": sample.component_id,
            "metrics": list(cf.metrics),
            "flipped": cf.flipped,
            "p_anomalous_before": cf.p_anomalous_before,
            "p_anomalous_after": cf.p_anomalous_after,
            "distractor_job_id": cf.distractor_job_id,
            "distractor_component_id": cf.distractor_component_id,
            "n_evaluations": cf.n_evaluations,
            "n_cached_evaluations": cf.n_cached_evaluations,
        }, indent=2))
    else:
        print(f"job {args.job}, node {sample.component_id}:")
        print(f"  {cf.summary()}")
        print(f"  {cf.evaluation_summary()}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    scenario = _scenario_from(args)
    if scenario is _SCENARIO_ERROR:
        return 2
    prodigy = Prodigy.load(args.artifacts)
    series = _load_series(args.telemetry, args.trim, scenario)
    y = _labels_for(series, _load_labels(args.labels))
    report = classification_report(y, prodigy.predict(series))
    print(f"macro-F1 {report.f1_macro:.3f}  accuracy {report.accuracy:.3f}  "
          f"anomalous P/R {report.precision_anomalous:.3f}/{report.recall_anomalous:.3f}")
    return 0


def cmd_runtime(args: argparse.Namespace) -> int:
    """Self-benchmark the runtime layer and report per-stage timings."""
    from repro.core import ProdigyDetector
    from repro.features import FeatureExtractor
    from repro.pipeline import DataPipeline
    from repro.telemetry import NodeSeries

    inst = get_instrumentation()
    inst.reset()

    rng = np.random.default_rng(0)
    names = tuple(f"m{i}" for i in range(args.metrics))
    series = [
        NodeSeries(1, c, np.arange(180.0), rng.random((180, args.metrics)), names)
        for c in range(args.samples)
    ]
    # An unlabeled (variance-ranked) fit on a cold extraction + a tiny
    # detector, so extract/select/scale/score all show up.
    pipeline = DataPipeline(FeatureExtractor(resample_points=64), n_features=64)
    pipeline.fit_from_series(series)
    engine = pipeline.engine
    engine.extract_matrix(series)  # warm: served from the feature cache
    scaled = pipeline.transform_series(series)
    detector = ProdigyDetector(
        hidden_dims=(16, 8), latent_dim=4, epochs=20, batch_size=16,
        learning_rate=1e-3, seed=0,
    ).fit(scaled)
    inst.reset()  # keep only the steady-state pass in the report
    detector.anomaly_score(pipeline.transform_series(series))

    stats = engine.stats()
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    cfg = stats["config"]
    sections = [(
        "runtime config",
        ["n_workers", "cache_size"],
        [[cfg["n_workers"], cfg["cache_size"]]],
    )]
    plan = stats.get("scheduler")
    if plan is not None:
        sections.append((
            "extraction threads",
            ["mode", "workers", "groups"],
            [[plan["mode"], plan["workers"], plan["groups"]]],
        ))
    cache = stats["cache"]
    if cache is not None:
        sections.append((
            "feature cache",
            ["entries", "hits", "misses", "hit rate"],
            [[cache["entries"], cache["hits"], cache["misses"], f"{cache['hit_rate']:.2f}"]],
        ))
    _print_sections(sections)
    warmth = "warm cache" if cache is not None else "cache disabled"
    print(f"\nstage timings ({args.samples} runs x {args.metrics} metrics, {warmth}):")
    print(inst.report())
    return 0


def cmd_lifecycle(args: argparse.Namespace) -> int:
    """Model lifecycle operations against a registry directory."""
    from repro.lifecycle import DriftMonitor, ModelRegistry
    from repro.serving.dashboard import lifecycle_sections

    registry = ModelRegistry(args.registry)

    if args.action == "register":
        if args.artifacts is None:
            print("repro-prodigy: error: register requires --artifacts", file=sys.stderr)
            return 2
        record = registry.register_artifacts(args.artifacts, note=args.note)
        if args.activate:
            registry.activate(record.version, reason="register --activate")
        print(f"registered {args.artifacts} as {record.version}"
              f"{' (active)' if args.activate else ''}")
        return 0

    if args.action == "activate":
        if not args.version:
            print("repro-prodigy: error: activate requires --version", file=sys.stderr)
            return 2
        registry.activate(args.version, reason=args.note or "cli activate")
        print(f"active version is now {args.version}")
        return 0

    if args.action == "rollback":
        record = registry.rollback(reason=args.note or "cli rollback")
        print(f"rolled back; active version is now {record.version}")
        return 0

    if args.action == "gc":
        removed = registry.gc(keep=args.keep)
        print(f"collected {len(removed)} version(s): {', '.join(removed) or '-'}")
        return 0

    if args.action == "status":
        status = registry.status()
        if args.json:
            print(json.dumps(status, indent=2))
        else:
            _print_sections(lifecycle_sections(status))
        return 0

    # action == "drift": offline check of telemetry against the active profile
    if args.telemetry is None:
        print("repro-prodigy: error: drift requires --telemetry", file=sys.stderr)
        return 2
    if registry.active_version is None:
        print(f"repro-prodigy: error: registry {registry.root} has no active version",
              file=sys.stderr)
        return 2
    profile = registry.load_profile()
    if profile is None:
        print("repro-prodigy: error: active version has no reference profile "
              "(train via the `train` command to persist one)", file=sys.stderr)
        return 2
    pipeline, detector = registry.load()
    series = _load_series(args.telemetry, args.trim)
    features = pipeline.transform_series(series)
    scores = detector.anomaly_score(features)
    monitor = DriftMonitor(
        profile, window_size=min(args.window, max(4, len(series))),
        warmup_windows=0, debounce=1,
    )
    events = []
    for row, score in zip(features, scores):
        events.extend(monitor.observe(float(score), row))
    payload = {
        "version": registry.active_version,
        "n_samples": len(series),
        "monitor": monitor.summary(),
        "events": [
            {"source": e.source, "statistic": e.statistic,
             "value": e.value, "threshold": e.threshold,
             "window_index": e.window_index}
            for e in events
        ],
    }
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    _print_sections([
        (
            f"drift check of {args.telemetry} vs {payload['version']} "
            f"({len(series)} node-runs, window {monitor.window_size})",
            ["source", "statistic", "value", "threshold", "window"],
            [[e["source"], e["statistic"], e["value"], e["threshold"], e["window_index"]]
             for e in payload["events"]] or [["-", "no drift", "-", "-", "-"]],
        ),
    ])
    return 0


def _fleet_deployment(n_nodes: int, n_metrics: int, n_samples: int, seed: int):
    """Unlabeled fit of a tiny deployment plus per-node synthetic streams.

    The same fast-deployment pattern as ``runtime stats``: variance-ranked
    feature selection (no labels) and a tiny detector, fitted on the
    synthetic fleet telemetry itself.  Returns ``(pipeline, detector, series)``.
    """
    from repro.core import ProdigyDetector
    from repro.features import FeatureExtractor
    from repro.pipeline import DataPipeline
    from repro.telemetry import NodeSeries

    rng = np.random.default_rng(seed)
    names = tuple(f"m{i}" for i in range(n_metrics))
    series = [
        NodeSeries(1, c, np.arange(float(n_samples)),
                   rng.random((n_samples, n_metrics)), names)
        for c in range(n_nodes)
    ]
    pipeline = DataPipeline(FeatureExtractor(resample_points=32), n_features=48)
    pipeline.fit_from_series(series)
    detector = ProdigyDetector(
        hidden_dims=(16, 8), latent_dim=4, epochs=20, batch_size=16,
        learning_rate=1e-3, seed=seed,
    ).fit(pipeline.transform_series(series))
    return pipeline, detector, series


def cmd_fleet(args: argparse.Namespace) -> int:
    """Sharded multi-worker scoring: demo run and status rendering."""
    from repro.serving.dashboard import fleet_sections

    if args.action == "status":
        if args.status_file is None:
            print("repro-prodigy: error: status requires --status-file", file=sys.stderr)
            return 2
        status = json.loads(args.status_file.read_text())
        if args.json:
            print(json.dumps(status, indent=2))
        else:
            _print_sections(fleet_sections(status))
        return 0

    # action == "run": stream synthetic telemetry through a worker fleet.
    from repro.fleet import FleetCoordinator, RingSpec
    from repro.monitoring import FleetFaultSchedule, WorkerFailure
    from repro.telemetry import NodeSeries

    if args.fleet_workers < 1:
        print("repro-prodigy: error: --fleet-workers must be >= 1", file=sys.stderr)
        return 2
    pipeline, detector, series = _fleet_deployment(
        args.nodes, args.metrics, args.samples, args.seed
    )
    fleet = FleetCoordinator(
        pipeline, detector,
        n_workers=args.fleet_workers,
        transport=args.transport,
        queue_capacity=args.queue_capacity,
        ring_spec=RingSpec(
            slot_samples=max(64, args.chunk), slot_metrics=max(16, args.metrics)
        ),
        stream_kwargs=dict(
            window_seconds=max(16.0, 2.0 * args.chunk),
            evaluate_every=args.chunk,
            consecutive_alerts=2,
        ),
    )
    # Interleave the per-node chunk streams, as concurrent reporters would.
    per_node = [
        [
            NodeSeries(s.job_id, s.component_id,
                       s.timestamps[i:i + args.chunk], s.values[i:i + args.chunk],
                       s.metric_names)
            for i in range(0, s.n_timestamps, args.chunk)
        ]
        for s in series
    ]
    chunks = [
        stream[i]
        for i in range(max(len(p) for p in per_node))
        for stream in per_node
        if i < len(stream)
    ]
    faults = None
    if args.kill_worker is not None:
        if args.kill_worker not in fleet.workers:
            print(f"repro-prodigy: error: unknown worker {args.kill_worker!r} "
                  f"(have: {', '.join(sorted(fleet.workers))})", file=sys.stderr)
            fleet.close()
            return 2
        faults = FleetFaultSchedule(
            [WorkerFailure(args.kill_worker, after_chunks=args.kill_after)]
        )
    with fleet:
        verdicts = fleet.run_stream(iter(chunks), faults=faults)
        status = fleet.status()
    if faults is not None:
        status["faults"] = faults.summary()
    if args.status_out is not None:
        args.status_out.parent.mkdir(parents=True, exist_ok=True)
        args.status_out.write_text(json.dumps(status, indent=2, sort_keys=True))
    if args.json:
        print(json.dumps(status, indent=2))
    else:
        _print_sections(fleet_sections(status))
        print(f"\n{len(verdicts)} verdicts from {len(chunks)} chunks "
              f"across {args.nodes} nodes")
        if args.status_out is not None:
            print(f"status written to {args.status_out}")
    return 0


def _dsos_sampler_of(metric: str) -> str:
    """Sampler a CSV metric column belongs to (``<metric>::<sampler>``)."""
    return metric.rsplit("::", 1)[1] if "::" in metric else "telemetry"


def cmd_dsos(args: argparse.Namespace) -> int:
    """Columnar historical store: ingest, compact, query, stats."""
    from repro.hist import TIERS, TIER_RAW, HistStore, dashboard_rollup
    from repro.serving.dashboard import history_sections

    store = HistStore(args.store, segment_span=args.segment_span)

    if args.action == "ingest":
        if args.telemetry is None:
            print("repro-prodigy: error: ingest requires --telemetry", file=sys.stderr)
            return 2
        frame = read_csv(args.telemetry)
        by_sampler: dict[str, list[str]] = {}
        for name in frame.metric_names:
            by_sampler.setdefault(_dsos_sampler_of(name), []).append(name)
        counts = {}
        for sampler, names in by_sampler.items():
            sub = TelemetryFrame(
                frame.job_id, frame.component_id, frame.timestamp,
                np.column_stack([frame.column(n) for n in names]),
                tuple(names),
            )
            counts[sampler] = store.ingest(sampler, sub)
        store.flush()
        if args.json:
            print(json.dumps({"ingested": counts, "store": store.stats()}, indent=2))
        else:
            for sampler in sorted(counts):
                print(f"{sampler}: {counts[sampler]} rows")
            print(f"store {args.store}: {store.n_rows} rows total")
        return 0

    if not store.samplers:
        print(f"repro-prodigy: error: store {args.store} is empty "
              "(run dsos ingest first)", file=sys.stderr)
        return 2

    if args.action == "compact":
        built = store.compact()
        if args.json:
            print(json.dumps({"compacted": built, "store": store.stats()}, indent=2))
        else:
            _print_sections(history_sections({"store": store.stats()}))
        return 0

    if args.action == "query":
        sampler = args.sampler
        if sampler is None:
            if len(store.samplers) > 1:
                print("repro-prodigy: error: store has several containers; "
                      f"pick one with --sampler (have: {', '.join(sorted(store.samplers))})",
                      file=sys.stderr)
                return 2
            sampler = store.samplers[0]
        tier = args.tier or TIER_RAW
        if tier not in TIERS:
            print(f"repro-prodigy: error: unknown tier {tier!r} "
                  f"(available: {', '.join(TIERS)})", file=sys.stderr)
            return 2
        try:
            result = store.query(
                sampler, job_id=args.job, component_id=args.component,
                t0=args.t0, t1=args.t1, tier=tier,
            )
        except KeyError as exc:
            print(f"repro-prodigy: error: {exc.args[0]}", file=sys.stderr)
            return 2
        if args.output is not None:
            write_csv(result, args.output)
            print(f"{result.n_rows} rows -> {args.output}")
            return 0
        if args.json:
            print(json.dumps({
                "sampler": sampler, "tier": tier, "n_rows": result.n_rows,
                "metrics": list(result.metric_names),
            }, indent=2))
            return 0
        print(f"{sampler} ({tier}): {result.n_rows} rows, "
              f"{result.n_metrics} metrics")
        head = min(args.limit, result.n_rows)
        if head:
            from repro.serving.dashboard import render_table

            shown = list(result.metric_names[:4])
            print(render_table(
                ["job", "component", "timestamp", *shown],
                [
                    [int(result.job_id[i]), int(result.component_id[i]),
                     float(result.timestamp[i]),
                     *(float(result.column(n)[i]) for n in shown)]
                    for i in range(head)
                ],
            ))
        return 0

    # action == "stats": layout plus a windowed rollup.
    tier = args.tier or "1min"
    if tier not in TIERS:
        print(f"repro-prodigy: error: unknown tier {tier!r} "
              f"(available: {', '.join(TIERS)})", file=sys.stderr)
        return 2
    payload = {
        "store": store.stats(),
        "rollup": dashboard_rollup(store, tier=tier, t0=args.t0, t1=args.t1),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_sections(history_sections(payload))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """One dashboard request through the gateway over a CSV deployment."""
    from repro.pipeline import AnomalyDetectorService
    from repro.serving import (
        AnalyticsService,
        SeriesBank,
        ServingGateway,
        TenantSpec,
    )
    from repro.serving.dashboard import slo_sections
    from repro.serving.errors import error_message, is_error

    scenario = _scenario_from(args)
    if scenario is _SCENARIO_ERROR:
        return 2
    prodigy = Prodigy.load(args.artifacts)
    bank = SeriesBank(_load_series(args.telemetry, args.trim, scenario))
    service = AnalyticsService(
        AnomalyDetectorService(bank, prodigy.pipeline, prodigy.detector)
    )
    gateway = ServingGateway(
        service, [TenantSpec(args.tenant, priority="interactive")]
    )
    params: dict = {}
    if args.dashboard == "node_analysis":
        if args.node is not None:
            params["component_id"] = args.node
        if args.metric:
            params["metrics"] = list(args.metric)
    response = gateway.request(args.tenant, args.dashboard, args.job, **params)
    if is_error(response):
        print(f"repro-prodigy: error: {error_message(response)}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(response, indent=2, default=str))
        return 0
    if args.dashboard == "slo":
        _print_sections(slo_sections(response))
    elif args.dashboard == "anomaly_detection":
        print(f"job {response['job_id']}: "
              f"{response['n_anomalous']}/{response['n_nodes']} nodes anomalous")
        for node in response["nodes"]:
            print(f"  node {node['component_id']:>6}: {node['prediction']:<9} "
                  f"score={node['anomaly_score']:.4f} "
                  f"threshold={node['threshold']:.4f}")
    else:
        body = {k: v for k, v in response.items() if k != "gateway"}
        print(json.dumps(body, indent=2, default=str))
    meta = response["gateway"]
    print(f"served by model {meta['model_version']} for tenant {meta['tenant']} "
          f"(cached={meta['cached']}, latency {meta['latency_ms']:.2f} ms)")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Replay seeded two-tenant traffic against the synthetic demo gateway."""
    from repro.serving import demo_gateway
    from repro.serving.dashboard import slo_sections
    from repro.serving.loadgen import ReplayHarness, TrafficProfile

    versions = ["v0001"]
    gateway, _, job_ids, anomalous_job = demo_gateway(
        n_jobs=args.jobs, seed=args.seed, version_source=lambda: versions[0]
    )
    profiles = [
        TrafficProfile(tenant="dashboard", rate_hz=args.interactive_rate),
        TrafficProfile(
            tenant="analytics", rate_hz=args.batch_rate,
            mix=(("anomaly_detection", 0.7), ("node_analysis", 0.3)),
        ),
    ]
    actions = []
    if args.promote_at is not None:
        actions.append(
            (args.promote_at, lambda: versions.__setitem__(0, "v0002"))
        )
    harness = ReplayHarness(
        gateway, profiles, job_ids, seed=args.seed, actions=actions,
        onsets=((anomalous_job, 0, args.horizon),),
    )
    report = harness.run(horizon_s=args.horizon, mode=args.mode)
    payload = report.to_dict()
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2))
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        _print_sections(slo_sections(report.slo))
        print(f"\n{report.mode} replay: {report.completed} served over "
              f"{report.virtual_seconds:.2f} virtual s "
              f"({report.wall_seconds:.2f} s wall), "
              f"versions {', '.join(report.versions_served)}")
    if args.check:
        interactive_ok = report.slo["tenants"]["dashboard"]["slo_met"]
        failures = []
        if report.priority_inversions:
            failures.append(f"{report.priority_inversions} priority inversions")
        if report.stale_responses:
            failures.append(f"{report.stale_responses} stale responses")
        if not interactive_ok:
            failures.append("interactive p99 SLO missed")
        if failures:
            print(f"repro-prodigy: check failed: {'; '.join(failures)}",
                  file=sys.stderr)
            return 1
        print("check passed: no inversions, no stale responses, SLO met")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "simulate": cmd_simulate,
    "train": cmd_train,
    "predict": cmd_predict,
    "detect": cmd_detect,
    "explain": cmd_explain,
    "evaluate": cmd_evaluate,
    "runtime": cmd_runtime,
    "lifecycle": cmd_lifecycle,
    "fleet": cmd_fleet,
    "dsos": cmd_dsos,
    "serve": cmd_serve,
    "loadgen": cmd_loadgen,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "workers"):
        try:
            config = ExecutionConfig.resolve(
                n_workers=args.workers, cache_size=args.cache_size
            )
        except ValueError as exc:
            print(f"repro-prodigy: error: {exc}", file=sys.stderr)
            return 2
        set_execution_config(config)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``| head``): stop like a tool killed by
        # SIGPIPE, with stdout on /dev/null so the interpreter's final
        # flush of what is still buffered cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (FileNotFoundError, NotADirectoryError) as exc:
        # Missing artifact/registry/telemetry paths are operator errors, not
        # crashes: one line on stderr, exit 2, no traceback.
        filename = getattr(exc, "filename", None)
        detail = f"no such path: {filename}" if filename else str(exc)
        print(f"repro-prodigy: error: {detail}", file=sys.stderr)
        return 2
    finally:
        if hasattr(args, "workers"):
            set_execution_config(None)


if __name__ == "__main__":
    raise SystemExit(main())
