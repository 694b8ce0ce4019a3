"""Vectorised time-series feature calculators (TSFRESH equivalent).

The paper extracts 794 TSFRESH features per metric from 63 characterisation
methods.  This module reproduces the methodology with a calculator registry
covering the same families — descriptive statistics, change statistics,
run/strike structure, entropy, spectral density, nonlinearity (C3, time
reversal asymmetry), Benford correlation, autocorrelation — implemented as
batched NumPy kernels.

Every calculator maps a ``(N, T)`` batch (N samples of one metric, T
time steps) to ``(N,)`` or ``(N, k)`` feature values.  Two layers of
batching keep extraction tractable in pure Python:

* one vectorised call per (metric, calculator) pair instead of
  ``N * M * F`` scalar calls, and
* a shared-intermediate :class:`~repro.features.context.MetricBlockContext`
  per metric slab, so the moments, diffs, sorts, centered series, and
  pairwise window distances that many calculators need are computed once
  and memoised instead of once per calculator.

The expensive tier (approximate/sample entropy, permutation entropy,
Lempel-Ziv complexity) is vectorised across the N axis — no kernel loops
over rows in Python.  The frozen pre-vectorization implementations live in
the test oracles (``tests/oracles/features.py``) for parity testing and
benchmarking.

Degenerate inputs (constant series, zero variance) yield well-defined
finite values (0.0 by convention) rather than NaN, so downstream scalers
and models never see non-finite features.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from math import factorial as _factorial
from typing import Callable, Sequence

import numpy as np
from scipy import signal as _signal

from repro.features.context import MetricBlockContext, as_context

__all__ = [
    "Calculator",
    "KERNEL_VERSION",
    "calculator_set_digest",
    "default_calculators",
    "full_calculators",
    "calculator_names",
]

#: Bumped whenever any kernel's numerics change, so FeatureCache keys built
#: before the change can never serve stale rows computed by old kernels.
KERNEL_VERSION = 2

@dataclass(frozen=True)
class Calculator:
    """One feature calculator.

    ``func`` maps ``(N, T) -> (N,)`` or ``(N, k)``; ``output_names`` has one
    entry per output column.  ``cost`` tags expensive kernels excluded from
    the default set (mirroring TSFRESH's EfficientFCParameters).
    Context-aware calculators (``uses_context=True``, all builtins) receive
    the shared :class:`MetricBlockContext`; plain ones (the default, so
    third-party calculators keep working) receive the raw ``(N, T)`` array.

    Calculators must be row-wise: row ``i`` of the output depends on row
    ``i`` of the input alone.  Full extraction stacks several metric slabs
    into one context and the selected-feature plan stacks series and
    columns, so a row never knows which rows share its block.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    output_names: tuple[str, ...]
    cost: str = "cheap"
    uses_context: bool = field(default=False, compare=False)

    def __call__(self, x: np.ndarray | MetricBlockContext) -> np.ndarray:
        ctx = as_context(x)
        out = self.func(ctx if self.uses_context else ctx.values)
        out = np.asarray(out, dtype=np.float64)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape != (ctx.n, len(self.output_names)):
            raise ValueError(
                f"calculator {self.name!r} returned shape {out.shape}, "
                f"expected ({ctx.n}, {len(self.output_names)})"
            )
        # Features must stay finite for the scaler/model stack.  The check
        # costs a fraction of the conversion; a finite output may alias the
        # context's memo, so callers copy it and never write into it.
        if np.isfinite(out).all():
            return out
        return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)


def calculator_set_digest(calculators: Sequence[Calculator]) -> bytes:
    """16-byte content digest of a calculator set, including kernel version.

    Covers everything that shapes output values and layout: the kernel
    generation, each calculator's name, column names, and cost tier.  Part
    of every :class:`~repro.runtime.cache.FeatureCache` key, so vectorised
    kernel changes can never serve feature rows cached by older kernels.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(f"kernels:v{KERNEL_VERSION}".encode())
    for calc in calculators:
        h.update(b"\x00")
        h.update(calc.name.encode())
        h.update(b"\x01")
        h.update("\x1f".join(calc.output_names).encode())
        h.update(b"\x01")
        h.update(calc.cost.encode())
    return h.digest()


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Elementwise division that returns 0 where the denominator is ~0."""
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros(np.broadcast(num, den).shape)
    ok = np.abs(den) > 1e-12
    np.divide(num, den, out=out, where=ok)
    return out


# -- descriptive statistics ---------------------------------------------------


def _skewness(x) -> np.ndarray:
    c = as_context(x)
    return _safe_div(c.m3, c.m2**1.5)


def _kurtosis(x) -> np.ndarray:
    c = as_context(x)
    return _safe_div(c.m4, c.m2**2) - 3.0


def _variation_coefficient(x) -> np.ndarray:
    c = as_context(x)
    return _safe_div(c.std, c.mean)


def _mean_n_absolute_max(x, n: int) -> np.ndarray:
    c = as_context(x)
    n = min(n, c.t)
    part = np.partition(c.abs_values, c.t - n, axis=1)
    return part[:, -n:].mean(axis=1)


# -- change statistics --------------------------------------------------------


def _mean_abs_change(x) -> np.ndarray:
    return np.mean(np.abs(as_context(x).diffs), axis=1)


def _mean_change(x) -> np.ndarray:
    c = as_context(x)
    return _safe_div(c.values[:, -1] - c.values[:, 0], float(c.t - 1))


def _mean_second_derivative_central(x) -> np.ndarray:
    c = as_context(x)
    if c.t < 3:
        return np.zeros(c.n)
    v = c.values
    return np.mean(0.5 * (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]), axis=1)


def _absolute_sum_of_changes(x) -> np.ndarray:
    return np.sum(np.abs(as_context(x).diffs), axis=1)


def _cid_ce(x, normalize: bool) -> np.ndarray:
    c = as_context(x)
    if normalize:
        z = _safe_div(c.centered, c.std[:, None])
        return np.sqrt(np.sum(np.diff(z, axis=1) ** 2, axis=1))
    return np.sqrt(np.sum(c.diffs**2, axis=1))


# -- location / run structure ---------------------------------------------------


def _first_location_of_maximum(x) -> np.ndarray:
    c = as_context(x)
    return c.values.argmax(axis=1) / c.t


def _last_location_of_maximum(x) -> np.ndarray:
    c = as_context(x)
    return 1.0 - c.values[:, ::-1].argmax(axis=1) / c.t


def _first_location_of_minimum(x) -> np.ndarray:
    c = as_context(x)
    return c.values.argmin(axis=1) / c.t


def _last_location_of_minimum(x) -> np.ndarray:
    c = as_context(x)
    return 1.0 - c.values[:, ::-1].argmin(axis=1) / c.t


def _count_above_mean(x) -> np.ndarray:
    return np.sum(as_context(x).above_mean, axis=1).astype(np.float64)


def _count_below_mean(x) -> np.ndarray:
    return np.sum(as_context(x).below_mean, axis=1).astype(np.float64)


def _longest_run(mask: np.ndarray) -> np.ndarray:
    """Longest run of True per row of a boolean matrix, vectorised."""
    counts = np.cumsum(mask, axis=1, dtype=np.int64)
    # At each False position remember the cumulative count; the running max
    # of those is what has been "spent" before the current run started.
    spent = np.where(~mask, counts, 0)
    spent = np.maximum.accumulate(spent, axis=1)
    return np.max(counts - spent, axis=1).astype(np.float64)


def _longest_strike_above_mean(x) -> np.ndarray:
    return _longest_run(as_context(x).above_mean)


def _longest_strike_below_mean(x) -> np.ndarray:
    return _longest_run(as_context(x).below_mean)


def _number_crossings_mean(x) -> np.ndarray:
    above = as_context(x).above_mean
    return np.sum(above[:, 1:] != above[:, :-1], axis=1).astype(np.float64)


def _number_peaks(x, n: int) -> np.ndarray:
    """Peaks with support *n*: strictly larger than n neighbours each side."""
    c = as_context(x)
    t, v = c.t, c.values
    if t < 2 * n + 1:
        return np.zeros(c.n)
    center = v[:, n : t - n]
    is_peak = np.ones(center.shape, dtype=bool)
    for k in range(1, n + 1):
        is_peak &= center > v[:, n - k : t - n - k]
        is_peak &= center > v[:, n + k : t - n + k]
    return is_peak.sum(axis=1).astype(np.float64)


def _index_mass_quantile(x, q: float) -> np.ndarray:
    c = as_context(x)
    # For all-zero rows every index qualifies; argmax returns 0 which is fine.
    reached = c.abs_cumsum >= q * c.abs_total
    return (reached.argmax(axis=1) + 1) / c.t


# -- dispersion ratios -----------------------------------------------------------


def _ratio_beyond_r_sigma(x, r: float) -> np.ndarray:
    c = as_context(x)
    return np.mean(c.abs_centered > r * c.std[:, None], axis=1)


def _large_standard_deviation(x, r: float = 0.25) -> np.ndarray:
    c = as_context(x)
    rng = c.maximum - c.minimum
    return (c.std > r * rng).astype(np.float64)


def _symmetry_looking(x, r: float = 0.05) -> np.ndarray:
    c = as_context(x)
    rng = c.maximum - c.minimum
    return (np.abs(c.mean - c.median) < r * rng).astype(np.float64)


def _variance_larger_than_std(x) -> np.ndarray:
    v = as_context(x).var
    return (v > np.sqrt(v)).astype(np.float64)


def _range_count_within_sigma(x) -> np.ndarray:
    c = as_context(x)
    return np.mean(c.abs_centered <= c.std[:, None], axis=1)


def _ratio_unique_values(x) -> np.ndarray:
    c = as_context(x)
    distinct = 1 + np.sum(c.sorted_diffs != 0, axis=1)
    return distinct / c.t


def _percentage_reoccurring(x) -> np.ndarray:
    same_prev = as_context(x).sorted_diffs == 0
    # A value participates in a reoccurrence if it equals a neighbour.
    occurs = np.concatenate(
        [same_prev[:, :1], same_prev[:, 1:] | same_prev[:, :-1], same_prev[:, -1:]], axis=1
    )
    return occurs.mean(axis=1)


# -- trend / autocorrelation -------------------------------------------------------


def _linear_trend(x) -> np.ndarray:
    """Slope, correlation coefficient, and residual std of an OLS line fit."""
    c = as_context(x)
    t = c.t
    time = np.arange(t, dtype=np.float64)
    tc = time - time.mean()
    denom = np.sum(tc**2)
    xc = c.centered
    slope = (xc @ tc) / denom
    rvalue = _safe_div(slope * np.sqrt(denom / t), c.std)
    resid = xc - slope[:, None] * tc
    return np.stack([slope, rvalue, resid.std(axis=1)], axis=1)


def _autocorrelation(x, lag: int) -> np.ndarray:
    return as_context(x).autocorrelation(lag)


def _agg_autocorrelation(x, max_lag: int = 40) -> np.ndarray:
    """Mean and std of the autocorrelation function over lags 1..max_lag."""
    c = as_context(x)
    lags = range(1, min(max_lag, c.t - 1) + 1)
    if not len(lags):
        return np.zeros((c.n, 2))
    acf = np.stack([c.autocorrelation(lag) for lag in lags], axis=1)
    return np.stack([acf.mean(axis=1), acf.std(axis=1)], axis=1)


def _c3(x, lag: int) -> np.ndarray:
    """Schreiber & Schmitz C3 nonlinearity statistic."""
    c = as_context(x)
    t, v = c.t, c.values
    if 2 * lag >= t:
        return np.zeros(c.n)
    return np.mean(v[:, 2 * lag :] * v[:, lag : t - lag] * v[:, : t - 2 * lag], axis=1)


def _time_reversal_asymmetry(x, lag: int) -> np.ndarray:
    c = as_context(x)
    t, v = c.t, c.values
    if 2 * lag >= t:
        return np.zeros(c.n)
    a = v[:, 2 * lag :]
    b = v[:, lag : t - lag]
    d = v[:, : t - 2 * lag]
    return np.mean(a**2 * b - b * d**2, axis=1)


# -- entropy / distribution ----------------------------------------------------------


def _binned_entropy(x, bins: int = 10) -> np.ndarray:
    c = as_context(x)
    mn = c.minimum[:, None]
    rng = c.maximum[:, None] - mn
    norm = _safe_div(c.values - mn, rng)
    idx = np.minimum((norm * bins).astype(np.int64), bins - 1)
    ent = np.zeros(c.n)
    for k in range(bins):
        p = np.mean(idx == k, axis=1)
        ent -= np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
    # Constant rows have range 0 -> all mass in bin 0 -> entropy 0: correct.
    return ent


def _benford_correlation(x) -> np.ndarray:
    """Correlation of the first-significant-digit histogram with Benford's law."""
    c = as_context(x)
    absx = c.abs_values
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


def _quantiles(x, qs: Sequence[float]) -> np.ndarray:
    return as_context(x).quantiles(qs)


def _iqr(x) -> np.ndarray:
    q = as_context(x).quantiles((0.25, 0.75))
    return q[:, 1] - q[:, 0]


def _energy_ratio_by_chunks(x, n_chunks: int = 10) -> np.ndarray:
    c = as_context(x)
    edges = np.linspace(0, c.t, n_chunks + 1).astype(int)
    total = np.sum(c.squared, axis=1)
    out = np.empty((c.n, n_chunks))
    for i in range(n_chunks):
        seg = c.squared[:, edges[i] : edges[i + 1]]
        out[:, i] = _safe_div(np.sum(seg, axis=1), total)
    return out


# -- spectral -----------------------------------------------------------------------


def _fft_aggregated(x) -> np.ndarray:
    """Centroid, variance, skew, kurtosis, entropy of the power spectrum."""
    spec = as_context(x).power_spectrum  # DC removed with the mean anyway
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


def _welch_psd(x) -> np.ndarray:
    """Peak PSD, peak frequency, and total power from Welch's method."""
    c = as_context(x)
    nperseg = min(64, c.t)
    freqs, psd = _signal.welch(c.values, fs=1.0, nperseg=nperseg, axis=-1)
    peak = psd.max(axis=1)
    peak_freq = freqs[psd.argmax(axis=1)]
    power = psd.sum(axis=1)
    return np.stack([peak, peak_freq, power], axis=1)


# -- expensive kernels (full set only), vectorised across rows --------------------


def _approximate_entropy(x, m: int = 2, r_factor: float = 0.2) -> np.ndarray:
    """Pincus approximate entropy, batched over the N axis.

    Draws phi(m) and phi(m+1) from the context's shared entropy profile, so
    sample entropy over the same slab reuses the distance tensors for free.
    """
    profile = as_context(x).entropy_profile(m, r_factor)
    with np.errstate(invalid="ignore"):  # NaN rows are masked out below
        return np.where(profile.valid, profile.phi_m - profile.phi_m1, 0.0)


def _sample_entropy(x, m: int = 2, r_factor: float = 0.2) -> np.ndarray:
    profile = as_context(x).entropy_profile(m, r_factor)
    ok = profile.valid & (profile.a > 0) & (profile.b > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ok, profile.a, 1.0) / np.where(ok, profile.b, 1.0)
        return np.where(ok, -np.log(ratio), 0.0)


def _permutation_entropy(x, order: int = 3) -> np.ndarray:
    c = as_context(x)
    n, t = c.shape
    if t < order:
        return np.zeros(n)
    windows = c.windows(order)  # (N, T-order+1, order)
    ranks = np.argsort(windows, axis=2, kind="stable")
    weights = (order ** np.arange(order)).astype(np.int64)
    codes = ranks @ weights  # unique int per permutation
    # Histogram all rows in one bincount over row-offset codes.
    span = int(order**order)
    n_windows = codes.shape[1]
    offsets = np.arange(n, dtype=np.int64)[:, None] * span
    counts = np.bincount((codes + offsets).ravel(), minlength=n * span).reshape(n, span)
    p = counts / n_windows
    ent = -np.sum(np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0), axis=1)
    return ent / np.log(float(_factorial(order)))


def _lempel_ziv_complexity(x) -> np.ndarray:
    """Normalised LZ76 complexity of the series binarised at its median.

    All rows advance through the LZ76 parse in lockstep: per step, a
    vectorised membership test decides for every unfinished row whether its
    current phrase candidate ``s[start:start+len]`` occurs earlier, growing
    the candidate or emitting a phrase accordingly.  The match set — the
    positions ``j < start`` where ``s[j:j+len]`` equals the candidate — is
    maintained incrementally, so each step costs one ``(N, T)`` gather
    instead of a substring scan per row.
    """
    c = as_context(x)
    bits = (c.values > c.median[:, None]).astype(np.uint8)
    n, t = bits.shape
    rows = np.arange(n)
    col = np.arange(t)[None, :]
    start = np.zeros(n, dtype=np.int64)
    length = np.ones(n, dtype=np.int64)
    phrases = np.zeros(n, dtype=np.int64)
    match = np.zeros((n, t), dtype=bool)  # start == 0: no earlier positions
    active = (start + length) <= t
    while active.any():
        contained = match.any(axis=1) & active
        emit = active & ~contained
        if emit.any():
            phrases[emit] += 1
            start[emit] += length[emit]
            length[emit] = 1
            anchor = np.minimum(start, t - 1)
            fresh = (col < start[:, None]) & (bits == bits[rows, anchor][:, None])
            match = np.where(emit[:, None], fresh, match)
        if contained.any():
            # Candidate grows by one symbol: keep positions whose next
            # symbol matches the candidate's next symbol.
            cmp_idx = np.minimum(col + length[:, None], t - 1)
            tgt_idx = np.minimum(start + length, t - 1)
            still = np.take_along_axis(bits, cmp_idx, axis=1) == bits[rows, tgt_idx][:, None]
            match = np.where(contained[:, None], match & still, match)
            length[contained] += 1
        active = (start + length) <= t
    counts = phrases + (length > 1)
    return counts / (t / np.log2(max(t, 2)))


# -- registry ---------------------------------------------------------------------


def _simple(name: str, func, cost: str = "cheap") -> Calculator:
    return Calculator(name, func, (name,), cost, uses_context=True)


def default_calculators() -> list[Calculator]:
    """The efficient calculator set used by the experiments (~95 features)."""
    qs = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)
    calcs: list[Calculator] = [
        _simple("mean", lambda c: c.mean),
        _simple("median", lambda c: c.median),
        _simple("std", lambda c: c.std),
        _simple("variance", lambda c: c.var),
        _simple("minimum", lambda c: c.minimum),
        _simple("maximum", lambda c: c.maximum),
        _simple("range", lambda c: c.maximum - c.minimum),
        _simple("sum_values", lambda c: c.values.sum(axis=1)),
        _simple("abs_energy", lambda c: np.sum(c.squared, axis=1)),
        _simple("root_mean_square", lambda c: np.sqrt(np.mean(c.squared, axis=1))),
        _simple("absolute_maximum", lambda c: c.abs_values.max(axis=1)),
        _simple("skewness", _skewness),
        _simple("kurtosis", _kurtosis),
        _simple("variation_coefficient", _variation_coefficient),
        _simple("iqr", _iqr),
        _simple("mean_abs_deviation", lambda c: np.mean(c.abs_centered, axis=1)),
        _simple(
            "median_abs_deviation",
            lambda c: np.median(np.abs(c.values - c.median[:, None]), axis=1),
        ),
        Calculator(
            "quantile",
            lambda c: _quantiles(c, qs),
            tuple(f"quantile_q{q:g}" for q in qs),
            uses_context=True,
        ),
        _simple("mean_abs_change", _mean_abs_change),
        _simple("mean_change", _mean_change),
        _simple("mean_second_derivative_central", _mean_second_derivative_central),
        _simple("absolute_sum_of_changes", _absolute_sum_of_changes),
        _simple("cid_ce", lambda c: _cid_ce(c, normalize=False)),
        _simple("cid_ce_normalized", lambda c: _cid_ce(c, normalize=True)),
        _simple("mean_n_absolute_max_7", lambda c: _mean_n_absolute_max(c, 7)),
        _simple("first_location_of_maximum", _first_location_of_maximum),
        _simple("last_location_of_maximum", _last_location_of_maximum),
        _simple("first_location_of_minimum", _first_location_of_minimum),
        _simple("last_location_of_minimum", _last_location_of_minimum),
        _simple("count_above_mean", _count_above_mean),
        _simple("count_below_mean", _count_below_mean),
        _simple("longest_strike_above_mean", _longest_strike_above_mean),
        _simple("longest_strike_below_mean", _longest_strike_below_mean),
        _simple("number_crossings_mean", _number_crossings_mean),
        _simple("number_peaks_1", lambda c: _number_peaks(c, 1)),
        _simple("number_peaks_5", lambda c: _number_peaks(c, 5)),
        _simple("index_mass_quantile_q25", lambda c: _index_mass_quantile(c, 0.25)),
        _simple("index_mass_quantile_q50", lambda c: _index_mass_quantile(c, 0.5)),
        _simple("index_mass_quantile_q75", lambda c: _index_mass_quantile(c, 0.75)),
        _simple("ratio_beyond_1_sigma", lambda c: _ratio_beyond_r_sigma(c, 1.0)),
        _simple("ratio_beyond_2_sigma", lambda c: _ratio_beyond_r_sigma(c, 2.0)),
        _simple("ratio_beyond_3_sigma", lambda c: _ratio_beyond_r_sigma(c, 3.0)),
        _simple("large_standard_deviation", _large_standard_deviation),
        _simple("symmetry_looking", _symmetry_looking),
        _simple("variance_larger_than_std", _variance_larger_than_std),
        _simple("range_count_within_sigma", _range_count_within_sigma),
        _simple("ratio_unique_values", _ratio_unique_values),
        _simple("percentage_reoccurring_values", _percentage_reoccurring),
        Calculator(
            "linear_trend",
            _linear_trend,
            ("trend_slope", "trend_rvalue", "trend_residual_std"),
            uses_context=True,
        ),
        _simple("autocorrelation_lag1", lambda c: _autocorrelation(c, 1)),
        _simple("autocorrelation_lag2", lambda c: _autocorrelation(c, 2)),
        _simple("autocorrelation_lag3", lambda c: _autocorrelation(c, 3)),
        _simple("autocorrelation_lag5", lambda c: _autocorrelation(c, 5)),
        _simple("autocorrelation_lag10", lambda c: _autocorrelation(c, 10)),
        Calculator(
            "agg_autocorrelation",
            _agg_autocorrelation,
            ("acf_mean", "acf_std"),
            cost="moderate",
            uses_context=True,
        ),
        _simple("c3_lag1", lambda c: _c3(c, 1)),
        _simple("c3_lag2", lambda c: _c3(c, 2)),
        _simple("c3_lag3", lambda c: _c3(c, 3)),
        _simple("time_reversal_asymmetry_lag1", lambda c: _time_reversal_asymmetry(c, 1)),
        _simple("time_reversal_asymmetry_lag2", lambda c: _time_reversal_asymmetry(c, 2)),
        _simple("time_reversal_asymmetry_lag3", lambda c: _time_reversal_asymmetry(c, 3)),
        _simple("binned_entropy_10", _binned_entropy),
        _simple("benford_correlation", _benford_correlation),
        Calculator(
            "fft_aggregated",
            _fft_aggregated,
            ("fft_centroid", "fft_variance", "fft_skew", "fft_kurtosis", "fft_entropy"),
            uses_context=True,
        ),
        Calculator(
            "welch_psd",
            _welch_psd,
            ("psd_peak", "psd_peak_freq", "psd_total_power"),
            uses_context=True,
        ),
        Calculator(
            "energy_ratio_by_chunks",
            _energy_ratio_by_chunks,
            tuple(f"energy_chunk_{i}" for i in range(10)),
            uses_context=True,
        ),
    ]
    return calcs


def full_calculators() -> list[Calculator]:
    """Default set plus the expensive entropy/complexity kernels."""
    extra = [
        Calculator(
            "approximate_entropy", _approximate_entropy, ("approximate_entropy",),
            "expensive", uses_context=True,
        ),
        Calculator(
            "sample_entropy", _sample_entropy, ("sample_entropy",),
            "expensive", uses_context=True,
        ),
        Calculator(
            "permutation_entropy", _permutation_entropy, ("permutation_entropy",),
            "moderate", uses_context=True,
        ),
        Calculator(
            "lempel_ziv_complexity", _lempel_ziv_complexity, ("lempel_ziv_complexity",),
            "expensive", uses_context=True,
        ),
    ]
    return default_calculators() + extra


def calculator_names(calculators: Sequence[Calculator]) -> tuple[str, ...]:
    """Flat tuple of output feature names across *calculators*."""
    names: list[str] = []
    for calc in calculators:
        names.extend(calc.output_names)
    if len(set(names)) != len(names):
        raise ValueError("calculator output names collide")
    return tuple(names)
