"""Figure 7: CoMTE explanations for a memleak job.

The paper trains Prodigy, predicts the nodes of a memleak-injected Empire
job, and asks CoMTE why the anomalous nodes were flagged — the top metrics
returned are ``MemFree::meminfo`` and ``pgrotated::vmstat``, i.e. memory
metrics consistent with a leak.  This experiment reproduces the full chain:
deployment pipeline, per-node predictions, counterfactual search, and the
identity of the explanation metrics (expected: dominated by memory/
reclaim metrics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anomalies.suite import MemLeak
from repro.core.prodigy import ProdigyDetector
from repro.experiments.datasets import CampaignSpec, extract_dataset, run_campaign
from repro.experiments.protocol import ProtocolConfig
from repro.explain.comte import BruteForceSearch, OptimizedSearch
from repro.explain.evaluators import series_classifier
from repro.explain.explanation import Counterfactual
from repro.pipeline.datapipeline import DataPipeline
from repro.features.extraction import FeatureExtractor
from repro.telemetry.frame import NodeSeries
from repro.util.rng import derive_seed, ensure_rng
from repro.workloads.catalog import ECLIPSE_APPS
from repro.workloads.cluster import ECLIPSE

__all__ = ["Fig7Result", "run_fig7", "MEMORY_METRIC_HINTS"]

#: metric-name fragments that indicate a memory-related explanation
MEMORY_METRIC_HINTS = (
    "MemFree",
    "MemAvailable",
    "AnonPages",
    "Active",
    "Committed_AS",
    "nr_free_pages",
    "nr_anon_pages",
    "nr_active_anon",
    "nr_inactive_anon",
    "pgrotated",
    "pswp",
    "pgsteal",
    "pgscan",
    "pgfault",
    "pgalloc",
    "pgfree",
    "Mapped",
    "PageTables",
    "pgrefill",
    "slabs_scanned",
    "numa",
    "thp_fault_alloc",
    "pgactivate",
    "pgdeactivate",
    "Bounce",
    "Slab",
    "Shmem",
    "nr_mapped",
    "nr_page_table",
    "Committed",
    "kswapd",
    "pginodesteal",
    "allocstall",
    "pageoutrun",
)


@dataclass(frozen=True)
class Fig7Result:
    """Explanations for the anomalous nodes of the chosen job."""

    explanations: tuple[Counterfactual, ...]
    predictions: dict[int, int]  # component_id -> prediction
    labels: dict[int, int]  # component_id -> ground truth

    @property
    def explanation_metrics(self) -> tuple[str, ...]:
        out: list[str] = []
        for e in self.explanations:
            out.extend(e.metrics)
        return tuple(dict.fromkeys(out))

    def memory_metric_fraction(self) -> float:
        """Fraction of explanation metrics that are memory-related."""
        metrics = self.explanation_metrics
        if not metrics:
            return 0.0
        hits = sum(any(h in m for h in MEMORY_METRIC_HINTS) for m in metrics)
        return hits / len(metrics)


def _fig7_campaign(jobs_per_app: int) -> CampaignSpec:
    return CampaignSpec(
        name="fig7",
        cluster=ECLIPSE,
        apps={"lammps": ECLIPSE_APPS["lammps"], "sw4": ECLIPSE_APPS["sw4"]},
        injector_factories=[lambda: MemLeak(10.0, 1.0)],
        healthy_jobs_per_app=jobs_per_app,
        anomalous_jobs_per_app_config=2,
        nodes_per_job=4,
        duration_s=420,
        # one anomalous node per job, like the paper's Figure 7 job view
        anomalous_node_fraction=0.25,
    )


def run_fig7(
    *,
    jobs_per_app: int = 6,
    search: str = "optimized",
    config: ProtocolConfig | None = None,
    seed: int = 0,
    max_explanations: int = 2,
) -> Fig7Result:
    """Train a deployment and explain the anomalous nodes of a memleak job."""
    config = config if config is not None else ProtocolConfig()
    rng = ensure_rng(seed)
    runs = run_campaign(_fig7_campaign(jobs_per_app), seed=derive_seed(rng))
    samples = extract_dataset(runs)

    pipeline = DataPipeline(FeatureExtractor(), n_features=config.n_features)
    pipeline.fit(samples)
    transformed = pipeline.transform_samples(samples)
    detector = ProdigyDetector(
        hidden_dims=config.prodigy_hidden,
        latent_dim=config.prodigy_latent,
        epochs=config.prodigy_epochs,
        seed=derive_seed(rng),
    )
    detector.fit(transformed.features, transformed.labels)

    classifier = series_classifier(pipeline, detector)
    healthy_refs = [r.series for r in runs if r.label == 0][:20]
    anomalous_runs = [r for r in runs if r.label == 1]
    if not anomalous_runs:
        raise RuntimeError("campaign produced no anomalous runs")

    search_cls = {"optimized": OptimizedSearch, "brute_force": BruteForceSearch}[search]
    searcher = search_cls(classifier, healthy_refs, max_metrics=5)

    explanations = []
    predictions: dict[int, int] = {}
    labels: dict[int, int] = {}
    for run in anomalous_runs[:max_explanations]:
        x = pipeline.transform_single(run.series)
        pred = int(detector.predict(x)[0])
        predictions[run.series.component_id] = pred
        labels[run.series.component_id] = run.label
        if pred == 1:
            explanations.append(searcher.explain(run.series))
    return Fig7Result(
        explanations=tuple(explanations), predictions=predictions, labels=labels
    )
