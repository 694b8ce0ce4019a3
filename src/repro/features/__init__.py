"""Feature pipeline: TSFRESH-style extraction, Chi-square selection, scaling."""

from repro.features.alignment import align_feature_groups
from repro.features.calculators import (
    KERNEL_VERSION,
    Calculator,
    calculator_names,
    calculator_set_digest,
    default_calculators,
    full_calculators,
)
from repro.features.context import EntropyProfile, MetricBlockContext, as_context
from repro.features.extraction import FeatureExtractor
from repro.features.ringbuffer import NodeRingBuffer
from repro.features.rolling import RollingPlan
from repro.features.scaling import MinMaxScaler
from repro.features.selection import ChiSquareSelector, chi2_scores

__all__ = [
    "Calculator",
    "ChiSquareSelector",
    "EntropyProfile",
    "FeatureExtractor",
    "align_feature_groups",
    "KERNEL_VERSION",
    "MetricBlockContext",
    "MinMaxScaler",
    "NodeRingBuffer",
    "RollingPlan",
    "as_context",
    "calculator_names",
    "calculator_set_digest",
    "chi2_scores",
    "default_calculators",
    "full_calculators",
]
