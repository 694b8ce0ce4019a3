"""Frozen pre-vectorization feature kernels — the parity/perf baseline.

This module is a verbatim snapshot of the calculator implementations as they
stood before the shared-intermediate context engine landed: the expensive
tier loops over rows in Python with O(T^2) broadcasting per row, and every
kernel recomputes moments/diffs/sorts from the raw ``(N, T)`` slab.

It exists for two consumers and must not be "improved":

* parity tests assert the context-backed kernels agree with these references
  (bit-identical for the cheap tier, <= 1e-9 for the vectorized tier);
* ``benchmarks/check_perf.py`` times the full reference set as the pre-PR
  baseline that ``BENCH_features.json`` speedups are measured against.

Reference calculators reuse calculator names, and feature-cache keys digest
names rather than code, so never let them share a ``FeatureCache`` with the
live set; the benches run them through plain ``FeatureExtractor`` objects.
"""

from __future__ import annotations

from math import factorial as _factorial
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import signal as _signal

from repro.features.calculators import Calculator

__all__ = ["reference_default_calculators", "reference_full_calculators"]


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise division that returns 0 where the denominator is ~0."""
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros(np.broadcast(num, den).shape)
    ok = np.abs(den) > 1e-12
    np.divide(num, den, out=out, where=ok)
    return out


# -- descriptive statistics ---------------------------------------------------


def _moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    mu = x.mean(axis=1)
    d = x - mu[:, None]
    m2 = np.mean(d**2, axis=1)
    m3 = np.mean(d**3, axis=1)
    m4 = np.mean(d**4, axis=1)
    return mu, m2, m3, m4


def _skewness(x: np.ndarray) -> np.ndarray:
    _, m2, m3, _ = _moments(x)
    return _safe_div(m3, m2**1.5)


def _kurtosis(x: np.ndarray) -> np.ndarray:
    _, m2, _, m4 = _moments(x)
    return _safe_div(m4, m2**2) - 3.0


def _variation_coefficient(x: np.ndarray) -> np.ndarray:
    return _safe_div(x.std(axis=1), x.mean(axis=1))


def _mean_n_absolute_max(x: np.ndarray, n: int) -> np.ndarray:
    n = min(n, x.shape[1])
    part = np.partition(np.abs(x), x.shape[1] - n, axis=1)
    return part[:, -n:].mean(axis=1)


# -- change statistics --------------------------------------------------------


def _mean_abs_change(x: np.ndarray) -> np.ndarray:
    return np.mean(np.abs(np.diff(x, axis=1)), axis=1)


def _mean_change(x: np.ndarray) -> np.ndarray:
    return _safe_div(x[:, -1] - x[:, 0], float(x.shape[1] - 1))


def _mean_second_derivative_central(x: np.ndarray) -> np.ndarray:
    if x.shape[1] < 3:
        return np.zeros(x.shape[0])
    return np.mean(0.5 * (x[:, 2:] - 2.0 * x[:, 1:-1] + x[:, :-2]), axis=1)


def _absolute_sum_of_changes(x: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(np.diff(x, axis=1)), axis=1)


def _cid_ce(x: np.ndarray, normalize: bool) -> np.ndarray:
    z = x
    if normalize:
        z = _safe_div(x - x.mean(axis=1, keepdims=True), x.std(axis=1, keepdims=True))
    return np.sqrt(np.sum(np.diff(z, axis=1) ** 2, axis=1))


# -- location / run structure ---------------------------------------------------


def _first_location_of_maximum(x: np.ndarray) -> np.ndarray:
    return x.argmax(axis=1) / x.shape[1]


def _last_location_of_maximum(x: np.ndarray) -> np.ndarray:
    return 1.0 - x[:, ::-1].argmax(axis=1) / x.shape[1]


def _first_location_of_minimum(x: np.ndarray) -> np.ndarray:
    return x.argmin(axis=1) / x.shape[1]


def _last_location_of_minimum(x: np.ndarray) -> np.ndarray:
    return 1.0 - x[:, ::-1].argmin(axis=1) / x.shape[1]


def _count_above_mean(x: np.ndarray) -> np.ndarray:
    return np.sum(x > x.mean(axis=1, keepdims=True), axis=1).astype(np.float64)


def _count_below_mean(x: np.ndarray) -> np.ndarray:
    return np.sum(x < x.mean(axis=1, keepdims=True), axis=1).astype(np.float64)


def _longest_run(mask: np.ndarray) -> np.ndarray:
    """Longest run of True per row of a boolean matrix, vectorised."""
    n, t = mask.shape
    counts = np.cumsum(mask, axis=1, dtype=np.int64)
    # At each False position remember the cumulative count; the running max
    # of those is what has been "spent" before the current run started.
    spent = np.where(~mask, counts, 0)
    spent = np.maximum.accumulate(spent, axis=1)
    return np.max(counts - spent, axis=1).astype(np.float64)


def _longest_strike_above_mean(x: np.ndarray) -> np.ndarray:
    return _longest_run(x > x.mean(axis=1, keepdims=True))


def _longest_strike_below_mean(x: np.ndarray) -> np.ndarray:
    return _longest_run(x < x.mean(axis=1, keepdims=True))


def _number_crossings_mean(x: np.ndarray) -> np.ndarray:
    above = x > x.mean(axis=1, keepdims=True)
    return np.sum(above[:, 1:] != above[:, :-1], axis=1).astype(np.float64)


def _number_peaks(x: np.ndarray, n: int) -> np.ndarray:
    """Peaks with support *n*: strictly larger than n neighbours each side."""
    t = x.shape[1]
    if t < 2 * n + 1:
        return np.zeros(x.shape[0])
    center = x[:, n : t - n]
    is_peak = np.ones(center.shape, dtype=bool)
    for k in range(1, n + 1):
        is_peak &= center > x[:, n - k : t - n - k]
        is_peak &= center > x[:, n + k : t - n + k]
    return is_peak.sum(axis=1).astype(np.float64)


def _index_mass_quantile(x: np.ndarray, q: float) -> np.ndarray:
    absx = np.abs(x)
    total = absx.sum(axis=1, keepdims=True)
    cs = np.cumsum(absx, axis=1)
    # For all-zero rows every index qualifies; argmax returns 0 which is fine.
    reached = cs >= q * total
    return (reached.argmax(axis=1) + 1) / x.shape[1]


# -- dispersion ratios -----------------------------------------------------------


def _ratio_beyond_r_sigma(x: np.ndarray, r: float) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1, keepdims=True)
    return np.mean(np.abs(x - mu) > r * sd, axis=1)


def _large_standard_deviation(x: np.ndarray, r: float = 0.25) -> np.ndarray:
    rng = x.max(axis=1) - x.min(axis=1)
    return (x.std(axis=1) > r * rng).astype(np.float64)


def _symmetry_looking(x: np.ndarray, r: float = 0.05) -> np.ndarray:
    rng = x.max(axis=1) - x.min(axis=1)
    return (np.abs(x.mean(axis=1) - np.median(x, axis=1)) < r * rng).astype(np.float64)


def _variance_larger_than_std(x: np.ndarray) -> np.ndarray:
    v = x.var(axis=1)
    return (v > np.sqrt(v)).astype(np.float64)


def _range_count_within_sigma(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1, keepdims=True)
    return np.mean(np.abs(x - mu) <= sd, axis=1)


def _ratio_unique_values(x: np.ndarray) -> np.ndarray:
    s = np.sort(x, axis=1)
    distinct = 1 + np.sum(np.diff(s, axis=1) != 0, axis=1)
    return distinct / x.shape[1]


def _percentage_reoccurring(x: np.ndarray) -> np.ndarray:
    s = np.sort(x, axis=1)
    same_prev = np.diff(s, axis=1) == 0
    # A value participates in a reoccurrence if it equals a neighbour.
    occurs = np.concatenate(
        [same_prev[:, :1], same_prev[:, 1:] | same_prev[:, :-1], same_prev[:, -1:]], axis=1
    )
    return occurs.mean(axis=1)


# -- trend / autocorrelation -------------------------------------------------------


def _linear_trend(x: np.ndarray) -> np.ndarray:
    """Slope, correlation coefficient, and residual std of an OLS line fit."""
    n, t = x.shape
    time = np.arange(t, dtype=np.float64)
    tc = time - time.mean()
    denom = np.sum(tc**2)
    xc = x - x.mean(axis=1, keepdims=True)
    slope = (xc @ tc) / denom
    xstd = x.std(axis=1)
    rvalue = _safe_div(slope * np.sqrt(denom / t), xstd)
    resid = xc - slope[:, None] * tc
    return np.stack([slope, rvalue, resid.std(axis=1)], axis=1)


def _autocorrelation(x: np.ndarray, lag: int) -> np.ndarray:
    t = x.shape[1]
    if lag >= t:
        return np.zeros(x.shape[0])
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1)
    cov = np.mean((x[:, :-lag] - mu) * (x[:, lag:] - mu), axis=1)
    return _safe_div(cov, var)


def _agg_autocorrelation(x: np.ndarray, max_lag: int = 40) -> np.ndarray:
    """Mean and std of the autocorrelation function over lags 1..max_lag."""
    t = x.shape[1]
    lags = range(1, min(max_lag, t - 1) + 1)
    acf = np.stack([_autocorrelation(x, lag) for lag in lags], axis=1)
    return np.stack([acf.mean(axis=1), acf.std(axis=1)], axis=1)


def _c3(x: np.ndarray, lag: int) -> np.ndarray:
    """Schreiber & Schmitz C3 nonlinearity statistic."""
    t = x.shape[1]
    if 2 * lag >= t:
        return np.zeros(x.shape[0])
    return np.mean(x[:, 2 * lag :] * x[:, lag : t - lag] * x[:, : t - 2 * lag], axis=1)


def _time_reversal_asymmetry(x: np.ndarray, lag: int) -> np.ndarray:
    t = x.shape[1]
    if 2 * lag >= t:
        return np.zeros(x.shape[0])
    a = x[:, 2 * lag :]
    b = x[:, lag : t - lag]
    c = x[:, : t - 2 * lag]
    return np.mean(a**2 * b - b * c**2, axis=1)


# -- entropy / distribution ----------------------------------------------------------


def _binned_entropy(x: np.ndarray, bins: int = 10) -> np.ndarray:
    mn = x.min(axis=1, keepdims=True)
    rng = x.max(axis=1, keepdims=True) - mn
    norm = _safe_div(x - mn, rng)
    idx = np.minimum((norm * bins).astype(np.int64), bins - 1)
    t = x.shape[1]
    ent = np.zeros(x.shape[0])
    for k in range(bins):
        p = np.mean(idx == k, axis=1)
        ent -= np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    # Constant rows have range 0 -> all mass in bin 0 -> entropy 0: correct.
    return ent


def _benford_correlation(x: np.ndarray) -> np.ndarray:
    """Correlation of the first-significant-digit histogram with Benford's law."""
    absx = np.abs(x)
    valid = absx > 1e-12
    safe = np.where(valid, absx, 1.0)
    exponent = np.floor(np.log10(safe))
    digit = np.floor(safe / 10.0**exponent).astype(np.int64)
    digit = np.clip(digit, 1, 9)
    benford = np.log10(1.0 + 1.0 / np.arange(1, 10))
    counts = np.stack([np.sum((digit == d) & valid, axis=1) for d in range(1, 10)], axis=1)
    total = counts.sum(axis=1, keepdims=True)
    probs = _safe_div(counts, total)
    pc = probs - probs.mean(axis=1, keepdims=True)
    bc = benford - benford.mean()
    num = pc @ bc
    den = np.sqrt(np.sum(pc**2, axis=1) * np.sum(bc**2))
    return _safe_div(num, den)


def _quantiles(x: np.ndarray, qs: Sequence[float]) -> np.ndarray:
    return np.quantile(x, qs, axis=1).T


def _energy_ratio_by_chunks(x: np.ndarray, n_chunks: int = 10) -> np.ndarray:
    n, t = x.shape
    edges = np.linspace(0, t, n_chunks + 1).astype(int)
    total = np.sum(x**2, axis=1)
    out = np.empty((n, n_chunks))
    for i in range(n_chunks):
        seg = x[:, edges[i] : edges[i + 1]]
        out[:, i] = _safe_div(np.sum(seg**2, axis=1), total)
    return out


# -- spectral -----------------------------------------------------------------------


def _fft_aggregated(x: np.ndarray) -> np.ndarray:
    """Centroid, variance, skew, kurtosis, entropy of the power spectrum."""
    spec = np.abs(np.fft.rfft(x - x.mean(axis=1, keepdims=True), axis=1)) ** 2
    spec = spec[:, 1:]  # DC removed with the mean anyway
    freqs = np.arange(1, spec.shape[1] + 1, dtype=np.float64)
    total = spec.sum(axis=1)
    p = _safe_div(spec, total[:, None])
    centroid = p @ freqs
    dev = freqs[None, :] - centroid[:, None]
    var = np.sum(p * dev**2, axis=1)
    skew = _safe_div(np.sum(p * dev**3, axis=1), var**1.5)
    kurt = _safe_div(np.sum(p * dev**4, axis=1), var**2)
    ent = -np.sum(np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0), axis=1)
    return np.stack([centroid, var, skew, kurt, ent], axis=1)


def _welch_psd(x: np.ndarray) -> np.ndarray:
    """Peak PSD, peak frequency, and total power from Welch's method."""
    t = x.shape[1]
    nperseg = min(64, t)
    freqs, psd = _signal.welch(x, fs=1.0, nperseg=nperseg, axis=-1)
    peak = psd.max(axis=1)
    peak_freq = freqs[psd.argmax(axis=1)]
    power = psd.sum(axis=1)
    return np.stack([peak, peak_freq, power], axis=1)


# -- expensive kernels (full set only) --------------------------------------------


def _approximate_entropy(x: np.ndarray, m: int = 2, r_factor: float = 0.2) -> np.ndarray:
    """Pincus approximate entropy, per sample (O(T^2) per row)."""
    n, t = x.shape
    out = np.empty(n)
    for i in range(n):
        row = x[i]
        r = r_factor * row.std()
        if r < 1e-12 or t <= m + 1:
            out[i] = 0.0
            continue
        out[i] = _phi(row, m, r) - _phi(row, m + 1, r)
    return out


def _phi(row: np.ndarray, m: int, r: float) -> float:
    windows = sliding_window_view(row, m)
    # Chebyshev distances between all window pairs via broadcasting.
    dist = np.max(np.abs(windows[:, None, :] - windows[None, :, :]), axis=2)
    counts = np.mean(dist <= r, axis=1)
    return float(np.mean(np.log(counts)))


def _sample_entropy(x: np.ndarray, m: int = 2, r_factor: float = 0.2) -> np.ndarray:
    n, t = x.shape
    out = np.empty(n)
    for i in range(n):
        row = x[i]
        r = r_factor * row.std()
        if r < 1e-12 or t <= m + 1:
            out[i] = 0.0
            continue
        a = _matches(row, m + 1, r)
        b = _matches(row, m, r)
        out[i] = -np.log(a / b) if a > 0 and b > 0 else 0.0
    return out


def _matches(row: np.ndarray, m: int, r: float) -> float:
    windows = sliding_window_view(row, m)
    dist = np.max(np.abs(windows[:, None, :] - windows[None, :, :]), axis=2)
    k = dist.shape[0]
    # Self-matches excluded.
    return float((np.sum(dist <= r) - k) / 2.0)


def _permutation_entropy(x: np.ndarray, order: int = 3) -> np.ndarray:
    n, t = x.shape
    if t < order:
        return np.zeros(n)
    windows = sliding_window_view(x, order, axis=1)  # (N, T-order+1, order)
    ranks = np.argsort(windows, axis=2, kind="stable")
    weights = (order ** np.arange(order)).astype(np.int64)
    codes = ranks @ weights  # unique int per permutation
    n_patterns = _factorial(order)
    # Entropy over observed pattern frequencies.
    ent = np.zeros(n)
    for code in np.unique(codes):
        p = np.mean(codes == code, axis=1)
        ent -= np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    max_ent = np.log(float(n_patterns))
    return ent / max_ent


def _lempel_ziv_complexity(x: np.ndarray) -> np.ndarray:
    """Normalised LZ76 complexity of the series binarised at its median."""
    med = np.median(x, axis=1, keepdims=True)
    bits = (x > med).astype(np.uint8)
    n, t = bits.shape
    out = np.empty(n)
    for i in range(n):
        s = bits[i].tobytes()
        phrases, start, length = 0, 0, 1
        while start + length <= t:
            if s[start : start + length] in s[: start + length - 1]:
                length += 1
            else:
                phrases += 1
                start += length
                length = 1
        out[i] = (phrases + (1 if length > 1 else 0)) / (t / np.log2(max(t, 2)))
    return out


# -- registry ---------------------------------------------------------------------


def _simple(name: str, func, cost: str = "cheap") -> Calculator:
    return Calculator(name, func, (name,), cost)


def reference_default_calculators() -> list[Calculator]:
    """Frozen copy of the pre-PR efficient calculator set."""
    qs = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)
    calcs: list[Calculator] = [
        _simple("mean", lambda x: x.mean(axis=1)),
        _simple("median", lambda x: np.median(x, axis=1)),
        _simple("std", lambda x: x.std(axis=1)),
        _simple("variance", lambda x: x.var(axis=1)),
        _simple("minimum", lambda x: x.min(axis=1)),
        _simple("maximum", lambda x: x.max(axis=1)),
        _simple("range", lambda x: x.max(axis=1) - x.min(axis=1)),
        _simple("sum_values", lambda x: x.sum(axis=1)),
        _simple("abs_energy", lambda x: np.sum(x**2, axis=1)),
        _simple("root_mean_square", lambda x: np.sqrt(np.mean(x**2, axis=1))),
        _simple("absolute_maximum", lambda x: np.abs(x).max(axis=1)),
        _simple("skewness", _skewness),
        _simple("kurtosis", _kurtosis),
        _simple("variation_coefficient", _variation_coefficient),
        _simple("iqr", lambda x: np.quantile(x, 0.75, axis=1) - np.quantile(x, 0.25, axis=1)),
        _simple(
            "mean_abs_deviation",
            lambda x: np.mean(np.abs(x - x.mean(axis=1, keepdims=True)), axis=1),
        ),
        _simple(
            "median_abs_deviation",
            lambda x: np.median(np.abs(x - np.median(x, axis=1, keepdims=True)), axis=1),
        ),
        Calculator("quantile", lambda x: _quantiles(x, qs), tuple(f"quantile_q{q:g}" for q in qs)),
        _simple("mean_abs_change", _mean_abs_change),
        _simple("mean_change", _mean_change),
        _simple("mean_second_derivative_central", _mean_second_derivative_central),
        _simple("absolute_sum_of_changes", _absolute_sum_of_changes),
        _simple("cid_ce", lambda x: _cid_ce(x, normalize=False)),
        _simple("cid_ce_normalized", lambda x: _cid_ce(x, normalize=True)),
        _simple("mean_n_absolute_max_7", lambda x: _mean_n_absolute_max(x, 7)),
        _simple("first_location_of_maximum", _first_location_of_maximum),
        _simple("last_location_of_maximum", _last_location_of_maximum),
        _simple("first_location_of_minimum", _first_location_of_minimum),
        _simple("last_location_of_minimum", _last_location_of_minimum),
        _simple("count_above_mean", _count_above_mean),
        _simple("count_below_mean", _count_below_mean),
        _simple("longest_strike_above_mean", _longest_strike_above_mean),
        _simple("longest_strike_below_mean", _longest_strike_below_mean),
        _simple("number_crossings_mean", _number_crossings_mean),
        _simple("number_peaks_1", lambda x: _number_peaks(x, 1)),
        _simple("number_peaks_5", lambda x: _number_peaks(x, 5)),
        _simple("index_mass_quantile_q25", lambda x: _index_mass_quantile(x, 0.25)),
        _simple("index_mass_quantile_q50", lambda x: _index_mass_quantile(x, 0.5)),
        _simple("index_mass_quantile_q75", lambda x: _index_mass_quantile(x, 0.75)),
        _simple("ratio_beyond_1_sigma", lambda x: _ratio_beyond_r_sigma(x, 1.0)),
        _simple("ratio_beyond_2_sigma", lambda x: _ratio_beyond_r_sigma(x, 2.0)),
        _simple("ratio_beyond_3_sigma", lambda x: _ratio_beyond_r_sigma(x, 3.0)),
        _simple("large_standard_deviation", _large_standard_deviation),
        _simple("symmetry_looking", _symmetry_looking),
        _simple("variance_larger_than_std", _variance_larger_than_std),
        _simple("range_count_within_sigma", _range_count_within_sigma),
        _simple("ratio_unique_values", _ratio_unique_values),
        _simple("percentage_reoccurring_values", _percentage_reoccurring),
        Calculator("linear_trend", _linear_trend, ("trend_slope", "trend_rvalue", "trend_residual_std")),
        _simple("autocorrelation_lag1", lambda x: _autocorrelation(x, 1)),
        _simple("autocorrelation_lag2", lambda x: _autocorrelation(x, 2)),
        _simple("autocorrelation_lag3", lambda x: _autocorrelation(x, 3)),
        _simple("autocorrelation_lag5", lambda x: _autocorrelation(x, 5)),
        _simple("autocorrelation_lag10", lambda x: _autocorrelation(x, 10)),
        Calculator(
            "agg_autocorrelation",
            _agg_autocorrelation,
            ("acf_mean", "acf_std"),
            cost="moderate",
        ),
        _simple("c3_lag1", lambda x: _c3(x, 1)),
        _simple("c3_lag2", lambda x: _c3(x, 2)),
        _simple("c3_lag3", lambda x: _c3(x, 3)),
        _simple("time_reversal_asymmetry_lag1", lambda x: _time_reversal_asymmetry(x, 1)),
        _simple("time_reversal_asymmetry_lag2", lambda x: _time_reversal_asymmetry(x, 2)),
        _simple("time_reversal_asymmetry_lag3", lambda x: _time_reversal_asymmetry(x, 3)),
        _simple("binned_entropy_10", _binned_entropy),
        _simple("benford_correlation", _benford_correlation),
        Calculator(
            "fft_aggregated",
            _fft_aggregated,
            ("fft_centroid", "fft_variance", "fft_skew", "fft_kurtosis", "fft_entropy"),
        ),
        Calculator("welch_psd", _welch_psd, ("psd_peak", "psd_peak_freq", "psd_total_power")),
        Calculator(
            "energy_ratio_by_chunks",
            _energy_ratio_by_chunks,
            tuple(f"energy_chunk_{i}" for i in range(10)),
        ),
    ]
    return calcs


def reference_full_calculators() -> list[Calculator]:
    """Frozen copy of the pre-PR full set (per-row expensive kernels)."""
    extra = [
        Calculator("approximate_entropy", _approximate_entropy, ("approximate_entropy",), "expensive"),
        Calculator("sample_entropy", _sample_entropy, ("sample_entropy",), "expensive"),
        Calculator("permutation_entropy", _permutation_entropy, ("permutation_entropy",), "moderate"),
        Calculator("lempel_ziv_complexity", _lempel_ziv_complexity, ("lempel_ziv_complexity",), "expensive"),
    ]
    return reference_default_calculators() + extra
