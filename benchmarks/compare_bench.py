"""Diff fresh bench runs against the committed ``BENCH_*.json`` baselines.

The committed baselines are the repo's perf trajectory: every PR lands the
numbers it measured, and this tool re-measures the same workloads and
compares wall-clock against what was promised.  A fresh measurement more
than ``REGRESSION_THRESHOLD`` (1.2x) slower than its committed baseline is
a regression.

Run standalone it **gates** — exit 1 on any regression::

    PYTHONPATH=src python benchmarks/compare_bench.py

``check_perf.py`` also calls :func:`compare_payloads` after writing each
fresh report, diffing against the previously committed baseline
(non-gating there: check_perf's contract is to always produce records).

Only wall-clock metrics are tracked, each bench's listed on its
``check_perf.BENCHES`` row (``Bench.tracked``); ratios (speedups, hit
rates) are covered by the bench scripts' own assertions.  Fleet scaling
metrics (``workers_N.seconds``) are skipped with an explicit reason when
the measuring host has fewer than N CPUs — see :func:`scaling_skip_reasons`.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fresh-vs-baseline wall-clock ratio above which a metric counts as regressed.
REGRESSION_THRESHOLD = 1.2


def extract_metric(payload: dict, dotted: str) -> float | None:
    """Resolve a dotted path into a numeric leaf, or None if absent."""
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def scaling_skip_reasons(bench, fresh: dict) -> dict[str, str]:
    """Tracked paths of a ``check_perf.BENCHES`` row that this host cannot time.

    Fleet scaling wall-clock at N workers is only comparable when the
    measuring host actually has N CPUs: on a cpu-starved runner the
    N-worker process-transport run degenerates to time-slicing one core
    and would read as a phantom regression (or a phantom win against a
    starved baseline).  Those metrics are skipped with an explicit
    recorded reason rather than silently gated either way.
    """
    if bench.filename != "BENCH_fleet.json":
        return {}
    cpus = int(fresh.get("cpu_count") or 1)
    reasons = {}
    for path in bench.tracked:
        match = re.match(r"workers_(\d+)\.", path)
        if match and int(match.group(1)) > cpus:
            reasons[path] = (
                f"cpu_count {cpus} < {match.group(1)} workers: "
                "scaling wall-clock not comparable on this host"
            )
    return reasons


def compare_payloads(
    baseline: dict,
    fresh: dict,
    paths: tuple[str, ...],
    threshold: float = REGRESSION_THRESHOLD,
    *,
    skip_reasons: dict[str, str] | None = None,
) -> list[dict]:
    """Per-metric comparison rows; ``regressed`` is True above *threshold*.

    Metrics missing on either side (renamed keys, failed baseline runs) are
    reported with ``ratio=None`` and never count as regressions — a stale
    baseline should be fixed by committing a fresh one, not by gating.
    Paths named in *skip_reasons* are excluded from gating with their
    reason recorded on the row (``skipped_reason``).
    """
    rows = []
    skip_reasons = skip_reasons or {}
    for path in paths:
        base = extract_metric(baseline, path)
        new = extract_metric(fresh, path)
        if path in skip_reasons:
            rows.append({
                "metric": path, "baseline_s": base, "fresh_s": new,
                "ratio": None, "regressed": False,
                "skipped_reason": skip_reasons[path],
            })
            continue
        if base is None or new is None or base <= 0:
            rows.append({
                "metric": path, "baseline_s": base, "fresh_s": new,
                "ratio": None, "regressed": False,
            })
            continue
        ratio = new / base
        rows.append({
            "metric": path, "baseline_s": base, "fresh_s": new,
            "ratio": ratio, "regressed": bool(ratio > threshold),
        })
    return rows


def format_rows(title: str, rows: list[dict]) -> str:
    lines = [f"{title}:"]
    for row in rows:
        if row.get("skipped_reason"):
            lines.append(f"  {row['metric']}: skipped — {row['skipped_reason']}")
            continue
        if row["ratio"] is None:
            lines.append(f"  {row['metric']}: no comparable baseline (skipped)")
            continue
        flag = "REGRESSED" if row["regressed"] else "ok"
        unit = "ms" if "_ms" in row["metric"] else "s"
        lines.append(
            f"  {row['metric']}: {row['baseline_s']:.3f}{unit} -> "
            f"{row['fresh_s']:.3f}{unit} ({row['ratio']:.2f}x) {flag}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    threshold = float(argv[0]) if argv else REGRESSION_THRESHOLD

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import check_perf

    regressed = False
    failed: list[str] = []
    for bench in check_perf.BENCHES:
        filename = bench.filename
        baseline_path = REPO_ROOT / filename
        if not baseline_path.exists():
            print(f"{filename}: no committed baseline, skipping")
            continue
        baseline = json.loads(baseline_path.read_text())
        if not baseline.get("ok", True):
            print(f"{filename}: committed baseline marked failed, skipping")
            continue
        try:
            fresh = bench.run()
        except AssertionError as exc:
            # The bench's own floor or parity check failed: report it as
            # one row and still compare the benches after it.
            print(f"{filename}: FAILED — {exc or type(exc).__name__}")
            failed.append(filename)
            continue
        rows = compare_payloads(
            baseline, fresh, bench.tracked, threshold,
            skip_reasons=scaling_skip_reasons(bench, fresh),
        )
        print(format_rows(f"{filename} (threshold {threshold:.2f}x)", rows))
        regressed |= any(row["regressed"] for row in rows)
    if failed:
        print(f"\nbench checks failed: {', '.join(failed)}", file=sys.stderr)
    if regressed:
        print("\nperf regression detected", file=sys.stderr)
    if failed or regressed:
        return 1
    print("\nno perf regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
