"""Dataset builders for the paper's experimental campaigns (Sec. 5.2/5.4).

A *campaign* runs applications with and without HPAS-style anomalies and
yields one labeled sample per (job, node).  Builders bypass the DSOS store
for memory efficiency (raw telemetry of thousands of runs would not fit;
per-job generate-preprocess-discard keeps the peak at one job) but apply
the same collection-fault model and preprocessing chain as the deployed
pipeline, so samples are statistically identical to the store path.

Scaled-down sizes: the paper collects 24,566 (Eclipse) / 20,915 (Volta)
samples; the default presets generate ~1/10th with the same **class ratios**
(Eclipse test ~90 % anomalous, Volta ~11 %), node counts, and anomaly
configurations (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.anomalies.base import AnomalyInjector
from repro.anomalies.suite import TABLE2_INJECTORS
from repro.features.extraction import FeatureExtractor
from repro.runtime.parallel import ParallelExtractor
from repro.monitoring.faults import FaultModel
from repro.telemetry.frame import NodeSeries
from repro.telemetry.preprocessing import standard_preprocess
from repro.telemetry.sampleset import SampleSet
from repro.util.rng import derive_seed, ensure_rng
from repro.workloads.base import ApplicationSignature
from repro.workloads.catalog import ECLIPSE_APPS, VOLTA_APPS
from repro.workloads.cluster import Cluster, ECLIPSE, JobRunner, JobSpec, VOLTA
from repro.workloads.metrics import default_catalog

__all__ = [
    "LabeledRun",
    "CampaignSpec",
    "run_campaign",
    "extract_dataset",
    "eclipse_campaign",
    "volta_campaign",
    "build_eclipse_dataset",
    "build_volta_dataset",
]


@dataclass(frozen=True)
class LabeledRun:
    """One node's preprocessed run with ground truth."""

    series: NodeSeries
    label: int
    app: str
    anomaly: str


@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of a data-collection campaign."""

    name: str
    cluster: Cluster
    apps: Mapping[str, ApplicationSignature]
    #: factories so every anomalous job gets a fresh injector instance
    injector_factories: Sequence[Callable[[], AnomalyInjector]]
    healthy_jobs_per_app: int
    anomalous_jobs_per_app_config: int
    nodes_per_job: int = 4
    duration_s: int = 420
    trim_seconds: float = 30.0
    #: fraction of an anomalous job's nodes that get the injector
    anomalous_node_fraction: float = 1.0
    faults: FaultModel = field(default_factory=FaultModel)

    def n_expected_samples(self) -> tuple[int, int]:
        """(healthy, anomalous) sample counts the spec will produce."""
        n_apps = len(self.apps)
        n_anom_jobs = n_apps * len(self.injector_factories) * self.anomalous_jobs_per_app_config
        anom_nodes = max(1, int(round(self.anomalous_node_fraction * self.nodes_per_job)))
        healthy = (
            n_apps * self.healthy_jobs_per_app * self.nodes_per_job
            + n_anom_jobs * (self.nodes_per_job - anom_nodes)
        )
        return healthy, n_anom_jobs * anom_nodes


def run_campaign(spec: CampaignSpec, *, seed: int | np.random.Generator | None = None) -> list[LabeledRun]:
    """Execute a campaign: generate, fault-inject, preprocess, label."""
    rng = ensure_rng(seed)
    catalog = default_catalog()
    runner = JobRunner(spec.cluster, catalog=catalog, seed=derive_seed(rng))
    fault_rng = ensure_rng(derive_seed(rng))
    runs: list[LabeledRun] = []
    job_id = 0
    anom_nodes = max(1, int(round(spec.anomalous_node_fraction * spec.nodes_per_job)))

    def execute(app_name: str, injector: AnomalyInjector | None, duration: int) -> None:
        nonlocal job_id
        job_id += 1
        anomalies = {} if injector is None else {i: injector for i in range(anom_nodes)}
        result = runner.run(
            JobSpec(
                job_id=job_id,
                app=spec.apps[app_name],
                n_nodes=spec.nodes_per_job,
                duration_s=duration,
                anomalies=anomalies,
            )
        )
        for comp in result.component_ids:
            raw = result.frame.node_series(job_id, comp)
            degraded = spec.faults.apply(raw, derive_seed(fault_rng))
            clean = standard_preprocess(degraded, catalog.counter_names, trim_seconds=spec.trim_seconds)
            anomaly = result.node_anomalies[comp]
            runs.append(
                LabeledRun(
                    series=clean,
                    label=result.node_label(comp),
                    app=app_name,
                    anomaly=anomaly,
                )
            )

    for app_name in spec.apps:
        for _ in range(spec.healthy_jobs_per_app):
            execute(app_name, None, spec.duration_s)
        for factory in spec.injector_factories:
            for _ in range(spec.anomalous_jobs_per_app_config):
                execute(app_name, factory(), spec.duration_s)
    return runs


def extract_dataset(
    runs: Sequence[LabeledRun],
    extractor: FeatureExtractor | None = None,
    *,
    engine: ParallelExtractor | None = None,
) -> SampleSet:
    """Feature-extract a campaign into a labeled SampleSet.

    Extraction routes through the runtime layer: pass an *engine* to share
    its feature cache across campaigns (re-runs over shared
    datasets hit the cache), otherwise one is built from the process-wide
    :class:`~repro.runtime.config.ExecutionConfig`.
    """
    if engine is None:
        engine = ParallelExtractor(extractor)
    return engine.extract(
        [r.series for r in runs],
        [r.label for r in runs],
        app_names=[r.app for r in runs],
        anomaly_names=[r.anomaly for r in runs],
    )


def _scaled(count: int, scale: float) -> int:
    return max(1, int(round(count * scale)))


def eclipse_campaign(scale: float = 1.0) -> CampaignSpec:
    """The Eclipse controlled experiment (6 apps, Table 2 anomalies).

    At scale 1.0: 6 apps x 10 healthy jobs x 4 nodes = 240 healthy samples
    and 6 x 10 configs x 3 jobs x 4 nodes = 720 anomalous — 75 % anomalous
    overall, matching the paper's collection ratio (6,325 healthy of
    24,566); the composition-constrained 20-80 split then yields the
    paper's ~90 %-anomalous test set.
    """
    return CampaignSpec(
        name="eclipse",
        cluster=ECLIPSE,
        apps=ECLIPSE_APPS,
        injector_factories=_table2_factories(),
        healthy_jobs_per_app=_scaled(10, scale),
        anomalous_jobs_per_app_config=_scaled(3, scale),
        nodes_per_job=4,
        duration_s=420,
        anomalous_node_fraction=1.0,
    )


def volta_campaign(scale: float = 1.0) -> CampaignSpec:
    """The Volta testbed experiment (11 apps, ~11 % anomalous samples).

    At scale 1.0: 11 apps x 12 healthy jobs x 4 nodes plus 110 anomalous
    jobs with one injected node each — 858 healthy / 110 anomalous
    (~11 % anomalous), matching the paper's Volta collection (18,980
    healthy of 20,915).
    """
    return CampaignSpec(
        name="volta",
        cluster=VOLTA,
        apps=VOLTA_APPS,
        injector_factories=_table2_factories(),
        healthy_jobs_per_app=_scaled(12, scale),
        anomalous_jobs_per_app_config=_scaled(1, scale),
        nodes_per_job=4,
        duration_s=420,
        anomalous_node_fraction=0.25,
    )


def _table2_factories() -> list[Callable[[], AnomalyInjector]]:
    """One factory per Table 2 configuration."""
    prototypes = TABLE2_INJECTORS()

    def make_factory(proto: AnomalyInjector) -> Callable[[], AnomalyInjector]:
        cls = type(proto)
        kwargs = _injector_kwargs(proto)
        return lambda: cls(**kwargs)

    return [make_factory(p) for p in prototypes]


def _injector_kwargs(inj: AnomalyInjector) -> dict:
    """Constructor kwargs to clone a Table 2 injector."""
    from repro.anomalies.suite import CacheCopy, CpuOccupy, MemBandwidth, MemLeak

    if isinstance(inj, MemLeak):
        return {"size_mb": inj.size_mb, "period_s": inj.period_s}
    if isinstance(inj, MemBandwidth):
        return {"stride": inj.stride}
    if isinstance(inj, CpuOccupy):
        return {"utilization": inj.utilization}
    if isinstance(inj, CacheCopy):
        return {"level": inj.level, "multiplier": inj.multiplier}
    raise TypeError(f"unknown injector type {type(inj).__name__}")


def build_eclipse_dataset(
    scale: float = 1.0,
    *,
    seed: int | np.random.Generator | None = 0,
    extractor: FeatureExtractor | None = None,
) -> SampleSet:
    """End-to-end Eclipse dataset (campaign + extraction)."""
    return extract_dataset(run_campaign(eclipse_campaign(scale), seed=seed), extractor)


def build_volta_dataset(
    scale: float = 1.0,
    *,
    seed: int | np.random.Generator | None = 0,
    extractor: FeatureExtractor | None = None,
) -> SampleSet:
    """End-to-end Volta dataset (campaign + extraction)."""
    return extract_dataset(run_campaign(volta_campaign(scale), seed=seed), extractor)
