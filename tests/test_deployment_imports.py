"""The deployment path runs without SciPy.

SciPy serves only the LOF baseline (imported where its tree is built) and
the test oracles.  These tests run in fresh interpreters, so an import this
test process already made cannot hide one: the first blocks SciPy
(``sys.modules["scipy"] = None`` makes every SciPy import raise) and drives
the deployment loop end to end; the second imports the package with SciPy
installed and checks that no ``scipy`` module got loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

DEPLOYMENT_MODULES = (
    "repro",
    "repro.cli",
    "repro.fleet",
    "repro.serving",
    "repro.hist",
    "repro.monitoring",
    "repro.pipeline",
    "repro.scenarios",
    "repro.experiments",
)

IMPORTS = "\n".join(f"import {name}" for name in DEPLOYMENT_MODULES)

DEPLOYMENT_LOOP = f"""
import sys
sys.modules["scipy"] = None

{IMPORTS}

import numpy as np

from repro.core import ProdigyDetector
from repro.features import FeatureExtractor
from repro.fleet import FleetCoordinator
from repro.pipeline import DataPipeline
from repro.scenarios import get_scenario, load_scenario_series, simulate_scenario
from repro.telemetry import NodeSeries

scenario = get_scenario("hpc-node")
run = simulate_scenario(scenario, jobs=3, anomalous_jobs=1, nodes=2,
                        duration_s=90, seed=4)
series = load_scenario_series(run.frame, scenario, trim_seconds=10)
labels = np.array([run.labels[f"{{s.job_id}}:{{s.component_id}}"] for s in series])
pipeline, samples = DataPipeline(
    FeatureExtractor(resample_points=None), n_features=32
).fit_from_series(series, labels)
detector = ProdigyDetector(hidden_dims=(16, 8), latent_dim=4, epochs=3,
                           batch_size=4, patience=None, seed=0)
detector.fit(samples.features[labels == 0])

fleet = FleetCoordinator(
    pipeline, detector, n_workers=2, transport="inline",
    stream_kwargs=dict(window_seconds=30, evaluate_every=10, consecutive_alerts=2),
)
threshold = fleet.calibrate([s for s, y in zip(series, labels) if y == 0])
assert np.isfinite(threshold) and threshold > 0, threshold
chunks = [
    NodeSeries(s.job_id, s.component_id, s.timestamps[i:i + 10],
               s.values[i:i + 10], s.metric_names, schema=s.schema)
    for i in range(0, 60, 10) for s in series
]
verdicts = fleet.run_stream(chunks)
fleet.close()
assert verdicts, "no verdicts"
assert {{(v.job_id, v.component_id) for v in verdicts}} == {{
    (s.job_id, s.component_id) for s in series
}}
assert all(np.isfinite(v.anomaly_score) for v in verdicts)
print("ok", len(verdicts))
"""

IMPORT_ONLY = f"""
import sys

{IMPORTS}

loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
print("ok")
"""


def _run(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_deployment_loop_runs_with_scipy_unimportable():
    proc = _run(DEPLOYMENT_LOOP)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok "), proc.stdout


def test_deployment_imports_load_no_scipy():
    proc = _run(IMPORT_ONLY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
