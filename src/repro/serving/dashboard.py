"""Text rendering of dashboard responses (the Grafana panel stand-in)."""

from __future__ import annotations

from typing import Any, Sequence

__all__ = [
    "render_table",
    "render_anomaly_dashboard",
    "lifecycle_sections",
    "fleet_sections",
    "history_sections",
    "slo_sections",
]


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """Fixed-width ASCII table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def lifecycle_sections(status: dict[str, Any]) -> list[tuple[str, list, list]]:
    """(title, headers, rows) table sections for a lifecycle status payload.

    Shared by the ``lifecycle`` dashboard renderer and the CLI's
    ``lifecycle status`` so both present the same operator view.  Accepts
    either a full :meth:`LifecycleManager.status` payload or a bare
    :meth:`ModelRegistry.status` one.
    """
    registry = status.get("registry", status)
    sections: list[tuple[str, list, list]] = [
        (
            f"registry {registry.get('root', '')} (active: {registry.get('active')})",
            ["version", "status", "source", "lineage rows", "note"],
            [
                [
                    v["version"],
                    v["status"],
                    v.get("source", ""),
                    (v.get("lineage") or {}).get("fingerprint", {}).get("n_rows", "-")
                    if (v.get("lineage") or {}).get("fingerprint") else "-",
                    v.get("note", "")[:40],
                ]
                for v in registry.get("versions", [])
            ],
        )
    ]
    monitor = status.get("monitor")
    if monitor:
        sections.append((
            "drift monitor",
            ["windows", "streak", "events", "watched features"],
            [[monitor["windows_evaluated"], monitor["streak"], monitor["events"],
              len(monitor.get("watched_features", []))]],
        ))
    shadow = status.get("shadow")
    if shadow:
        sections.append((
            f"shadow: {shadow['candidate_version']}",
            ["observed", "eval windows", "active alert rate", "candidate alert rate"],
            [[shadow["windows_observed"], shadow["eval_windows"],
              shadow["active_alert_rate"], shadow["candidate_alert_rate"]]],
        ))
    audit = registry.get("audit_tail", [])
    if audit:
        sections.append((
            "audit tail",
            ["event", "detail"],
            [[e.get("event", "?"),
              ", ".join(f"{k}={v}" for k, v in sorted(e.items())
                        if k not in ("event", "ts"))[:70]]
             for e in audit],
        ))
    return sections


def fleet_sections(status: dict[str, Any]) -> list[tuple[str, list, list]]:
    """(title, headers, rows) table sections for a fleet status payload.

    Shared by the ``fleet`` dashboard renderer and the CLI's
    ``fleet status`` so both present the same operator view: worker
    health, shed/backpressure totals, per-shard drain timings, and the
    cluster rollup (rack/app alert rates, top anomalous nodes).
    """
    totals = status.get("totals", {})
    transport = status.get("transport", "inline")
    sections: list[tuple[str, list, list]] = [
        (
            f"fleet (tick {status.get('tick', 0)}, {transport} transport, "
            f"{len(status.get('alive', []))}/{status.get('n_workers', 0)} workers alive)",
            ["worker", "alive", "queued", "drained", "batches", "busy ms",
             "wakes", "verdicts", "shed", "tracked"],
            [
                [
                    w["worker_id"],
                    "yes" if w.get("alive") else "DEAD",
                    w["queued"],
                    w["drained_chunks"],
                    w["batches"],
                    w.get("busy_us", 0) / 1e3,
                    w.get("doorbell_wakes", 0),
                    w["verdicts"],
                    w["shed_chunks"],
                    w["tracked_nodes"],
                ]
                for w in status.get("workers", [])
            ],
        ),
        (
            "totals",
            ["submitted", "verdicts", "shed chunks", "backpressure",
             "redelivered", "rebalances", "moved keys", "promotions"],
            [[
                totals.get("submitted", 0),
                totals.get("verdicts", 0),
                totals.get("shed_chunks", 0),
                totals.get("backpressure_events", 0),
                totals.get("redelivered", 0),
                totals.get("rebalances", 0),
                totals.get("moved_keys", 0),
                totals.get("promotion_fanouts", 0),
            ]],
        ),
    ]
    timings = status.get("shard_timings", {})
    if timings:
        sections.append((
            "shard drain timings",
            ["shard", "calls", "total s", "mean ms", "chunks"],
            [[name, t["calls"], t["seconds"], t["mean_ms"], t["items"]]
             for name, t in sorted(timings.items())],
        ))
    ipc = status.get("ipc")
    if ipc:
        sections.append((
            "shared-memory transport",
            ["pushed chunks", "ring-full events", "ctl messages"],
            [[ipc.get("pushed_chunks", 0), ipc.get("ring_full_events", 0),
              ipc.get("ctl_messages", 0)]],
        ))
        ipc_timings = ipc.get("timings", {})
        if ipc_timings:
            sections.append((
                "IPC stage timings",
                ["stage", "calls", "total s", "mean ms", "items"],
                [[name, t["calls"], t["seconds"], t["mean_ms"], t["items"]]
                 for name, t in sorted(ipc_timings.items())],
            ))
    rollup = status.get("rollup")
    if rollup:
        sections.append((
            f"cluster rollup ({rollup['nodes_tracked']} nodes, "
            f"alert rate {rollup['alert_rate']:.4f})",
            ["rack", "verdicts", "alerts", "alert rate"],
            [[rack, r["verdicts"], r["alerts"], r["alert_rate"]]
             for rack, r in sorted(rollup.get("racks", {}).items())],
        ))
        classes = rollup.get("node_classes", {})
        if classes:
            sections.append((
                "node classes",
                ["class", "verdicts", "alerts", "alert rate"],
                [[name, c["verdicts"], c["alerts"], c["alert_rate"]]
                 for name, c in sorted(classes.items())],
            ))
        top = rollup.get("top_nodes", [])
        if top:
            sections.append((
                "top anomalous nodes",
                ["job", "node", "peak score", "alerts", "streak"],
                [[n["job_id"], n["component_id"], n["peak_score"],
                  n["alerts"], n["streak"]]
                 for n in top],
            ))
    return sections


def history_sections(payload: dict[str, Any]) -> list[tuple[str, list, list]]:
    """(title, headers, rows) table sections for a historical-store payload.

    Shared by the ``history`` dashboard renderer and the CLI's
    ``dsos stats`` so both present the same operator view: per-sampler
    tier layout (segments, rows, bytes, codec mix) and, when a rollup is
    present, the windowed per-metric summary.
    """
    sections: list[tuple[str, list, list]] = []
    store = payload.get("store", payload)
    layout_rows = []
    for sampler, c in sorted(store.get("samplers", {}).items()):
        if c.get("memtable_rows"):
            layout_rows.append(
                [sampler, "memtable", "-", c["memtable_rows"], "-", "-"]
            )
        for tier, t in c.get("tiers", {}).items():
            codecs = ", ".join(
                f"{codec}:{n}" for codec, n in sorted(t.get("codecs", {}).items())
            )
            layout_rows.append(
                [sampler, tier, t["segments"], t["rows"], t["bytes"], codecs]
            )
    sections.append((
        f"historical store {store.get('root', '')} "
        f"({store.get('n_rows', 0)} rows, segment span {store.get('segment_span')}s)",
        ["sampler", "tier", "segments", "rows", "bytes", "codecs"],
        layout_rows,
    ))
    rollup = payload.get("rollup")
    if rollup:
        t0, t1 = rollup.get("window", [None, None])
        metric_rows = []
        for sampler, entry in sorted(rollup.get("samplers", {}).items()):
            for name, m in entry.get("metrics", {}).items():
                metric_rows.append(
                    [sampler, entry.get("tier", "?"), name, m["kind"],
                     m["mean"], m["min"], m["max"]]
                )
        sections.append((
            f"rollup (tier {rollup.get('tier')}, window "
            f"[{'-inf' if t0 is None else t0}, {'+inf' if t1 is None else t1}])",
            ["sampler", "tier", "metric", "kind", "mean", "min", "max"],
            metric_rows,
        ))
    return sections


def slo_sections(status: dict[str, Any]) -> list[tuple[str, list, list]]:
    """(title, headers, rows) table sections for a gateway SLO payload.

    Shared by the ``slo`` dashboard renderer and the CLI's ``serve`` /
    ``loadgen`` subcommands so both present the same tenant-facing view:
    per-tenant latency percentiles with the queue-wait vs service split,
    admission counters, cache effectiveness, and early-warning lead time.
    """
    tenants = status.get("tenants", {})
    sections: list[tuple[str, list, list]] = [
        (
            f"tenant SLOs (model {status.get('model_version', '?')})",
            ["tenant", "class", "requests", "p50 ms", "p99 ms", "SLO ms",
             "met", "wait ms", "service ms"],
            [
                [name, t.get("priority", "?"), t.get("requests", 0),
                 t.get("p50_ms", 0.0), t.get("p99_ms", 0.0),
                 t.get("p99_slo_ms", "-"),
                 "yes" if t.get("slo_met", True) else "NO",
                 t.get("queue_wait_ms_mean", 0.0),
                 t.get("service_ms_mean", 0.0)]
                for name, t in sorted(tenants.items())
            ],
        ),
        (
            "admission",
            ["tenant", "admitted", "served", "cached", "rejected quota",
             "rejected full", "shed", "errors", "pending"],
            [
                [name, t.get("admitted", 0), t.get("served", 0),
                 t.get("cached", 0), t.get("rejected_quota", 0),
                 t.get("rejected_queue_full", 0), t.get("shed_deadline", 0),
                 t.get("errors", 0), t.get("pending", 0)]
                for name, t in sorted(tenants.items())
            ],
        ),
    ]
    cache = status.get("cache")
    if cache:
        sections.append((
            "response cache",
            ["entries", "capacity", "hits", "misses", "hit rate",
             "evictions", "invalidations"],
            [[cache["entries"], cache["capacity"], cache["hits"], cache["misses"],
              f"{cache['hit_rate']:.2f}", cache["evictions"], cache["invalidations"]]],
        ))
    scheduler = status.get("scheduler", {})
    lead = status.get("lead_time", {})
    sections.append((
        "gateway",
        ["priority inversions", "tracked onsets", "alerted",
         "lead s (mean)", "lead s (min)"],
        [[scheduler.get("priority_inversions", 0),
          lead.get("tracked_onsets", 0), lead.get("alerted", 0),
          "-" if lead.get("lead_s_mean") is None else lead["lead_s_mean"],
          "-" if lead.get("lead_s_min") is None else lead["lead_s_min"]]],
    ))
    return sections


def render_anomaly_dashboard(response: dict[str, Any]) -> str:
    """Render an anomaly-detection dashboard response to text."""
    lines = [
        f"Job {response['job_id']}: "
        f"{response['n_anomalous']}/{response['n_nodes']} nodes anomalous",
        "",
        render_table(
            ["node", "prediction", "score", "threshold"],
            [
                [n["component_id"], n["prediction"], n["anomaly_score"], n["threshold"]]
                for n in response["nodes"]
            ],
        ),
    ]
    for expl in response.get("explanations", []):
        if "error" in expl:
            from repro.serving.errors import error_message

            lines.append(f"\nexplanation unavailable: {error_message(expl)}")
            continue
        lines.append(
            f"\nnode {expl['component_id']}: would be healthy if "
            f"{', '.join(expl['metrics'])} matched a healthy run "
            f"(P(anomalous) {expl['p_anomalous_before']:.3f} -> "
            f"{expl['p_anomalous_after']:.3f})"
        )
    return "\n".join(lines)
