"""Figure 6: F1 vs number of healthy training samples (Eclipse, memleak).

Paper protocol (Sec. 6.2): LAMMPS, sw4, sw4lite, ExaMiniMD run 5x healthy
and 5x with memleak on 4 nodes (160 samples: 80 healthy / 80 anomalous).
For each healthy-budget in {4, 8, 16, 32, 48, 64}, train Prodigy on that
many healthy samples (selection repeated 10x) and test on all anomalous
plus the remaining healthy samples.  Paper curve: 0.58 F1 at 4 samples,
~0.9 at 16, 0.96 near 60.

The Chi-square selection stage is fitted once on the full collection (the
paper reuses the controlled-experiment feature set when deploying with
little data) and held fixed across repetitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anomalies.suite import MemLeak
from repro.core.prodigy import ProdigyDetector
from repro.eval.metrics import f1_score_macro
from repro.experiments.datasets import CampaignSpec, extract_dataset, run_campaign
from repro.experiments.protocol import ProtocolConfig
from repro.features.scaling import MinMaxScaler
from repro.features.selection import ChiSquareSelector
from repro.serving.dashboard import render_table
from repro.telemetry.sampleset import SampleSet
from repro.util.rng import derive_seed, ensure_rng
from repro.workloads.catalog import ECLIPSE_APPS
from repro.workloads.cluster import ECLIPSE

__all__ = ["Fig6Point", "limited_data_campaign", "run_fig6", "render_fig6"]

#: the four applications of the production experiment
FIG6_APPS = ("lammps", "sw4", "sw4lite", "examinimd")

#: paper's reported curve for comparison
PAPER_CURVE = {4: 0.58, 16: 0.90, 64: 0.96}


@dataclass(frozen=True)
class Fig6Point:
    n_healthy: int
    f1_mean: float
    f1_std: float
    paper_f1: float | None


def limited_data_campaign(*, jobs_per_app: int = 5) -> CampaignSpec:
    """5 healthy + 5 memleak jobs per app on 4 nodes (the paper's 160 samples)."""
    return CampaignSpec(
        name="limited_data",
        cluster=ECLIPSE,
        apps={name: ECLIPSE_APPS[name] for name in FIG6_APPS},
        injector_factories=[lambda: MemLeak(10.0, 1.0)],
        healthy_jobs_per_app=jobs_per_app,
        anomalous_jobs_per_app_config=jobs_per_app,
        nodes_per_job=4,
        duration_s=420,
        anomalous_node_fraction=1.0,
    )


def run_fig6(
    *,
    budgets: tuple[int, ...] = (4, 8, 16, 32, 48, 64),
    repetitions: int = 10,
    config: ProtocolConfig | None = None,
    seed: int = 0,
    samples: SampleSet | None = None,
) -> list[Fig6Point]:
    """Sweep the healthy-training-budget curve."""
    config = config if config is not None else ProtocolConfig()
    rng = ensure_rng(seed)
    if samples is None:
        samples = extract_dataset(run_campaign(limited_data_campaign(), seed=derive_seed(rng)))

    # Feature selection fitted once on the full labeled collection.
    selector = ChiSquareSelector(k=config.n_features).fit(samples)
    selected = selector.transform(samples)
    healthy_idx = np.flatnonzero(selected.labels == 0)
    test_anom_idx = np.flatnonzero(selected.labels == 1)

    points: list[Fig6Point] = []
    for n_healthy in budgets:
        if n_healthy >= healthy_idx.size:
            raise ValueError(
                f"budget {n_healthy} needs more healthy samples than the "
                f"dataset's {healthy_idx.size} (leave some for testing)"
            )
        f1s = []
        for _ in range(repetitions):
            rep_rng = ensure_rng(derive_seed(rng))
            chosen = rep_rng.choice(healthy_idx, size=n_healthy, replace=False)
            rest = np.setdiff1d(healthy_idx, chosen)
            test_idx = np.sort(np.concatenate([rest, test_anom_idx]))

            scaler = MinMaxScaler().fit(selected.features[chosen])
            x_train = scaler.transform(selected.features[chosen])
            x_test = scaler.transform(selected.features[test_idx])
            y_test = selected.labels[test_idx]

            detector = ProdigyDetector(
                hidden_dims=config.prodigy_hidden,
                latent_dim=config.prodigy_latent,
                epochs=config.prodigy_epochs,
                batch_size=min(64, max(2, n_healthy)),
                threshold_percentile=99.0,
                validation_fraction=0.0 if n_healthy < 10 else 0.2,
                seed=derive_seed(rep_rng),
            )
            detector.fit(x_train)
            f1s.append(f1_score_macro(y_test, detector.predict(x_test)))
        points.append(
            Fig6Point(
                n_healthy=n_healthy,
                f1_mean=float(np.mean(f1s)),
                f1_std=float(np.std(f1s)),
                paper_f1=PAPER_CURVE.get(n_healthy),
            )
        )
    return points


def render_fig6(points: list[Fig6Point]) -> str:
    return render_table(
        ["healthy samples", "macro-F1 (mean)", "std", "paper"],
        [
            [p.n_healthy, p.f1_mean, p.f1_std, "-" if p.paper_f1 is None else f"{p.paper_f1:.2f}"]
            for p in points
        ],
    )
