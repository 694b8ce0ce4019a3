"""Shared fixtures: small, fast synthetic datasets reused across test modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anomalies import MemLeak
from repro.features import FeatureExtractor
from repro.telemetry import NodeSeries, standard_preprocess
from repro.workloads import ECLIPSE, ECLIPSE_APPS, JobRunner, JobSpec, default_catalog


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def small_series(catalog) -> NodeSeries:
    """One healthy preprocessed LAMMPS node run (short, deterministic)."""
    runner = JobRunner(ECLIPSE, catalog=catalog, seed=7)
    result = runner.run(
        JobSpec(job_id=1, app=ECLIPSE_APPS["lammps"], n_nodes=1, duration_s=120)
    )
    raw = result.frame.node_series(1, result.component_ids[0])
    return standard_preprocess(raw, catalog.counter_names, trim_seconds=10)


@pytest.fixture(scope="session")
def labeled_runs(catalog):
    """A tiny labeled campaign: 6 healthy + 2 memleak node-runs, 2 apps."""
    runner = JobRunner(ECLIPSE, catalog=catalog, seed=11)
    runs = []
    job_id = 0
    for app in ("lammps", "sw4"):
        for anomalous in (False, False, False, True):
            job_id += 1
            anomalies = {0: MemLeak(10.0, 1.0)} if anomalous else {}
            result = runner.run(
                JobSpec(
                    job_id=job_id,
                    app=ECLIPSE_APPS[app],
                    n_nodes=1,
                    duration_s=120,
                    anomalies=anomalies,
                )
            )
            comp = result.component_ids[0]
            series = standard_preprocess(
                result.frame.node_series(job_id, comp), catalog.counter_names, trim_seconds=10
            )
            runs.append((series, result.node_label(comp), app))
    return runs


@pytest.fixture(scope="session")
def tiny_extractor():
    """Extractor over a handful of metrics — fast enough for unit tests."""
    return FeatureExtractor(
        resample_points=64,
        metrics=(
            "MemFree::meminfo",
            "AnonPages::meminfo",
            "cpu_user::procstat",
            "cpu_idle::procstat",
            "pgfault::vmstat",
            "nr_dirty::vmstat",
        ),
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
