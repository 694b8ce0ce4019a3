"""Production experiment 2 (Sec. 6.2): anomalies "in the wild".

An Empire (plasma physics) user reported runs occasionally degrading: 7
jobs completed in ~60 min (healthy), 2 took 10-30 % longer (anomalous) due
to backend Lustre I/O issues.  The paper trains Prodigy on the 28 healthy
node-samples and detects 7 of the 8 anomalous node-samples (88 % accuracy).

Reproduced here with the Empire signature and the :class:`IoDelay`
injector (which also stretches the run duration by the reported 10-30 %).
Training is fully unsupervised: no anomalous samples exist at fit time, so
Chi-square selection is impossible and the detector keeps the *full*
extracted feature set (the paper reuses its production feature list here;
keeping everything is the label-free equivalent).  Near-constant healthy
features matter in this regime — they are trivially reconstructed during
training, so any anomaly-induced shift in them produces a large error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.anomalies.suite import IoDelay
from repro.core.prodigy import ProdigyDetector
from repro.experiments.protocol import ProtocolConfig
from repro.features.extraction import FeatureExtractor
from repro.runtime.parallel import ParallelExtractor
from repro.features.scaling import MinMaxScaler
from repro.telemetry.preprocessing import standard_preprocess
from repro.util.rng import derive_seed, ensure_rng
from repro.workloads.catalog import EMPIRE
from repro.workloads.cluster import ECLIPSE, JobRunner, JobSpec
from repro.workloads.metrics import default_catalog

__all__ = ["EmpireResult", "run_empire_experiment"]


@dataclass(frozen=True)
class EmpireResult:
    """Outcome of the in-the-wild experiment."""

    n_train_samples: int
    n_test_samples: int
    n_detected: int
    accuracy: float
    scores: np.ndarray
    threshold: float

    #: paper's outcome for comparison: 7 of 8 detected, 88 % accuracy
    PAPER_DETECTED = 7
    PAPER_TOTAL = 8


def run_empire_experiment(
    *,
    n_healthy_jobs: int = 7,
    n_anomalous_jobs: int = 2,
    nodes_per_job: int = 4,
    duration_s: int = 420,
    severity: float = 0.6,
    config: ProtocolConfig | None = None,
    seed: int = 0,
) -> EmpireResult:
    """Train on healthy Empire jobs, test on I/O-degraded ones."""
    config = config if config is not None else ProtocolConfig()
    rng = ensure_rng(seed)
    catalog = default_catalog()
    runner = JobRunner(ECLIPSE, catalog=catalog, seed=derive_seed(rng))
    stretch_rng = ensure_rng(derive_seed(rng))

    train_series, test_series = [], []
    job_id = 0
    for _ in range(n_healthy_jobs):
        job_id += 1
        result = runner.run(
            JobSpec(job_id=job_id, app=EMPIRE, n_nodes=nodes_per_job, duration_s=duration_s)
        )
        for comp in result.component_ids:
            train_series.append(
                standard_preprocess(
                    result.frame.node_series(job_id, comp), catalog.counter_names, trim_seconds=30.0
                )
            )
    for _ in range(n_anomalous_jobs):
        job_id += 1
        # Degraded jobs run 10-30 % longer (the paper's observation).
        stretched = int(duration_s * stretch_rng.uniform(1.1, 1.3))
        injector = IoDelay(severity=severity)
        result = runner.run(
            JobSpec(
                job_id=job_id,
                app=EMPIRE,
                n_nodes=nodes_per_job,
                duration_s=stretched,
                anomalies={i: injector for i in range(nodes_per_job)},
            )
        )
        for comp in result.component_ids:
            test_series.append(
                standard_preprocess(
                    result.frame.node_series(job_id, comp), catalog.counter_names, trim_seconds=30.0
                )
            )

    engine = ParallelExtractor(FeatureExtractor())
    x_train_full, _ = engine.extract_matrix(train_series)
    x_test_full, _ = engine.extract_matrix(test_series)

    # No labels at deployment -> no Chi-square stage; keep all features.
    scaler = MinMaxScaler().fit(x_train_full)
    x_train = scaler.transform(x_train_full)
    x_test = scaler.transform(x_test_full)

    detector = ProdigyDetector(
        hidden_dims=config.prodigy_hidden,
        latent_dim=config.prodigy_latent,
        epochs=max(config.prodigy_epochs, 300),
        batch_size=32,
        learning_rate=1e-3,
        threshold_percentile=99.0,
        seed=derive_seed(rng),
    )
    detector.fit(x_train)
    preds = detector.predict(x_test)
    n_detected = int(preds.sum())
    return EmpireResult(
        n_train_samples=x_train.shape[0],
        n_test_samples=x_test.shape[0],
        n_detected=n_detected,
        accuracy=n_detected / x_test.shape[0],
        scores=detector.anomaly_score(x_test),
        threshold=float(detector.threshold_),
    )
