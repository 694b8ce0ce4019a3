#!/usr/bin/env python
"""CoMTE counterfactual explanations (paper Sec. 4.4 / Fig. 7).

Trains a Prodigy deployment on a memleak campaign, then asks: *why was this
node flagged?*  CoMTE answers with the minimal set of metrics that — if
they had looked like a healthy run's — would have flipped the prediction.

Both search strategies are demonstrated over the deployment's series
classifier, whose transform computes only the selected feature cells of
each substituted series.

Usage::

    python examples/explainability.py
"""

from __future__ import annotations

from repro.anomalies import MemLeak
from repro.core import ProdigyDetector
from repro.experiments.datasets import CampaignSpec, extract_dataset, run_campaign
from repro.explain import BruteForceSearch, OptimizedSearch, series_classifier
from repro.features import FeatureExtractor
from repro.pipeline import DataPipeline
from repro.workloads import ECLIPSE, ECLIPSE_APPS

SEED = 5


def main() -> None:
    print("building a memleak campaign on two applications...")
    spec = CampaignSpec(
        name="explain-demo",
        cluster=ECLIPSE,
        apps={"lammps": ECLIPSE_APPS["lammps"], "hacc": ECLIPSE_APPS["hacc"]},
        injector_factories=[lambda: MemLeak(10.0, 1.0)],
        healthy_jobs_per_app=6,
        anomalous_jobs_per_app_config=2,
        nodes_per_job=4,
        duration_s=420,
        anomalous_node_fraction=0.25,  # one leaking node per anomalous job
    )
    runs = run_campaign(spec, seed=SEED)
    samples = extract_dataset(runs)
    print(f"  {samples.n_samples} samples ({samples.n_anomalous} anomalous)")

    print("training the deployment pipeline...")
    pipeline = DataPipeline(FeatureExtractor(), n_features=512)
    pipeline.fit(samples)
    transformed = pipeline.transform_samples(samples)
    detector = ProdigyDetector(
        hidden_dims=(128, 64), latent_dim=16,
        epochs=250, batch_size=64, learning_rate=1e-3, seed=SEED,
    )
    detector.fit(transformed.features, transformed.labels)

    # CoMTE setup: healthy training series are the distractor pool.
    classifier = series_classifier(pipeline, detector)
    distractors = [r.series for r in runs if r.label == 0][:20]
    anomalous = [r for r in runs if r.label == 1][:2]

    for run in anomalous:
        x = pipeline.transform_single(run.series)
        pred = int(detector.predict(x)[0])
        score = float(detector.anomaly_score(x)[0])
        print(
            f"\nnode {run.series.component_id} (job {run.series.job_id}, "
            f"{run.app}, injected: {run.anomaly}):"
        )
        print(f"  prediction: {'ANOMALOUS' if pred else 'healthy'} "
              f"(score {score:.3f} vs threshold {detector.threshold_:.3f})")
        if not pred:
            continue

        greedy = OptimizedSearch(classifier, distractors, max_metrics=5)
        cf = greedy.explain(run.series)
        print(f"  OptimizedSearch:  {cf.summary()}")
        print(f"                    ({cf.n_evaluations} model evaluations)")

        brute = BruteForceSearch(classifier, distractors, max_metrics=2, shortlist_size=8)
        cf = brute.explain(run.series)
        print(f"  BruteForceSearch: {cf.summary()}")
        print(f"                    ({cf.n_evaluations} model evaluations)")


if __name__ == "__main__":
    main()
