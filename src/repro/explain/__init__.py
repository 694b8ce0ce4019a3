"""CoMTE counterfactual explainability (paper Sec. 4.4)."""

from repro.explain.comte import BruteForceSearch, OptimizedSearch, substitute_metrics
from repro.explain.evaluators import ClassifierEvaluator, series_classifier
from repro.explain.explanation import Counterfactual

__all__ = [
    "BruteForceSearch",
    "ClassifierEvaluator",
    "Counterfactual",
    "OptimizedSearch",
    "series_classifier",
    "substitute_metrics",
]
