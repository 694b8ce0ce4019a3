"""Shared-intermediate context for one ``(N, T)`` block of rows.

Profiling the extraction hot path shows the calculators recomputing the
same handful of intermediates over and over: per-row means and central
moments, first differences, sorted copies, centered series, |x|, the rFFT
power spectrum, and — in the expensive tier — pairwise Chebyshev window
distances.  :class:`MetricBlockContext` computes each of those **once per
context**, lazily, and every context-aware calculator draws from it
instead of re-deriving its own.  A context's rows are one or more metric
slabs stacked by full extraction, or the selected columns of many series
stacked by the selected-feature plan; every intermediate is row-wise.

Bit-compatibility is a hard requirement: cached intermediates are produced
by the *same NumPy call sequences* the standalone kernels used (e.g.
``std`` is ``values.std(axis=1)``, not ``sqrt(m2)``), so context-backed
cheap-tier features are bit-identical to the frozen references in
``tests/oracles/features.py``.

The entropy profile (the shared core of approximate and sample entropy)
is the one genuinely new kernel: both features need Chebyshev distances
between all sliding windows of length ``m`` and ``m+1`` at the same
tolerance ``r``, so the context computes the distance tensors once —
incrementally, ``E_L = max(E_{L-1}[:-1, :-1], E_1[L-1:, L-1:])`` — and
serves the four statistics (phi_m, phi_{m+1}, A, B) out of a single pass.
Row-chunking bounds the ``(n, W, W)`` tensors to a fixed memory budget.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = ["MetricBlockContext", "EntropyProfile", "as_context"]

#: Soft cap on the pairwise-distance workspace per row chunk (bytes).  The
#: entropy kernels hold ~3 ``(rows, T, T)`` float64 tensors at once.
_ENTROPY_CHUNK_BYTES = 96 * 1024 * 1024


class EntropyProfile(NamedTuple):
    """Shared statistics behind approximate and sample entropy.

    ``phi_m`` / ``phi_m1`` are Pincus phi values at template lengths ``m``
    and ``m+1``; ``a`` / ``b`` are sample-entropy match counts at ``m+1``
    and ``m``; ``valid`` marks rows with a usable tolerance (non-degenerate
    std) and enough samples (``T > m+1``).
    """

    phi_m: np.ndarray
    phi_m1: np.ndarray
    a: np.ndarray
    b: np.ndarray
    valid: np.ndarray


def _lazy(compute):
    """Per-instance memoisation keyed by the wrapped method's name."""
    name = compute.__name__

    @property
    def wrapper(self):
        try:
            return self._memo[name]
        except KeyError:
            value = compute(self)
            self._memo[name] = value
            return value

    wrapper.fget.__doc__ = compute.__doc__
    return wrapper


class MetricBlockContext:
    """Lazily memoised intermediates over one ``(N, T)`` block of rows.

    Every intermediate is computed at most once per context; a context
    lives for one group of slabs inside ``compute_slab_group`` (or one plan
    evaluation), so memory is bounded by that block's derived arrays.
    """

    __slots__ = ("values", "_memo", "_acf", "_pairwise")

    def __init__(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"expected a (N, T) slab, got shape {values.shape}")
        self.values = np.ascontiguousarray(values)
        self._memo: dict[str, np.ndarray] = {}
        self._acf: dict[int, np.ndarray] = {}
        self._pairwise: dict[int, EntropyProfile] = {}

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def t(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    # -- first-order statistics (one reduction each) ---------------------------

    @_lazy
    def mean(self) -> np.ndarray:
        return self.values.mean(axis=1)

    @_lazy
    def std(self) -> np.ndarray:
        return self.values.std(axis=1)

    @_lazy
    def var(self) -> np.ndarray:
        return self.values.var(axis=1)

    @_lazy
    def median(self) -> np.ndarray:
        """``np.median(values, axis=1)``, read off :attr:`sorted_values`.

        The middle one or two order statistics go through the same
        ``mean`` call ``np.median`` makes on its partition, and rows
        holding a NaN are NaN, so the bits match.
        """
        s = self.sorted_values
        mid = s.shape[1] // 2
        middle = s[:, mid : mid + 1] if s.shape[1] % 2 else s[:, mid - 1 : mid + 1]
        return np.where(np.isnan(s[:, -1]), s[:, -1], np.mean(middle, axis=1))

    @_lazy
    def minimum(self) -> np.ndarray:
        return self.values.min(axis=1)

    @_lazy
    def maximum(self) -> np.ndarray:
        return self.values.max(axis=1)

    # -- derived slabs ---------------------------------------------------------

    @_lazy
    def centered(self) -> np.ndarray:
        """``x - mean`` — shared by moments, trend, CID, and the rFFT."""
        return self.values - self.mean[:, None]

    @_lazy
    def abs_centered(self) -> np.ndarray:
        return np.abs(self.centered)

    @_lazy
    def squared(self) -> np.ndarray:
        """``x**2`` — energy, RMS, and chunked energy ratios."""
        return self.values**2

    @_lazy
    def abs_values(self) -> np.ndarray:
        return np.abs(self.values)

    @_lazy
    def abs_cumsum(self) -> np.ndarray:
        """Cumulative ``|x|`` — the index-mass-quantile family."""
        return np.cumsum(self.abs_values, axis=1)

    @_lazy
    def abs_total(self) -> np.ndarray:
        return self.abs_values.sum(axis=1, keepdims=True)

    @_lazy
    def diffs(self) -> np.ndarray:
        """First differences — the change-statistics family."""
        return np.diff(self.values, axis=1)

    @_lazy
    def sorted_values(self) -> np.ndarray:
        return np.sort(self.values, axis=1)

    @_lazy
    def sorted_diffs(self) -> np.ndarray:
        return np.diff(self.sorted_values, axis=1)

    @_lazy
    def above_mean(self) -> np.ndarray:
        return self.values > self.mean[:, None]

    @_lazy
    def below_mean(self) -> np.ndarray:
        return self.values < self.mean[:, None]

    def quantiles(self, qs) -> np.ndarray:
        """``np.quantile(values, qs, axis=1).T`` ``(N, len(qs))`` from one sort.

        Reads the order statistics off :attr:`sorted_values` and applies
        ``np.quantile``'s own linear-interpolation arithmetic (its virtual
        index, bounds handling and two-sided lerp), so the values are the
        ones its partitions give; rows holding a NaN are NaN.  Where +0.0
        and -0.0 tie, a zero result may carry the other sign than the
        partition's.
        """
        s = self.sorted_values
        t = s.shape[1]
        virtual = (t - 1) * np.asarray(qs, dtype=np.float64)
        prev = np.floor(virtual)
        nxt = prev + 1
        above = virtual >= t - 1
        prev[above] = -1
        nxt[above] = -1
        prev = prev.astype(np.intp)
        gamma = virtual - prev
        lower = s[:, prev]
        upper = s[:, nxt.astype(np.intp)]
        step = upper - lower
        out = lower + step * gamma
        np.subtract(upper, step * (1 - gamma), out=out, where=gamma >= 0.5)
        nan_rows = np.isnan(s[:, -1])
        if nan_rows.any():
            np.copyto(out, s[:, -1:], where=nan_rows[:, None])
        return out

    # -- central moments -------------------------------------------------------

    @_lazy
    def m2(self) -> np.ndarray:
        return np.mean(self.centered**2, axis=1)

    @_lazy
    def m3(self) -> np.ndarray:
        return np.mean(self.centered**3, axis=1)

    @_lazy
    def m4(self) -> np.ndarray:
        return np.mean(self.centered**4, axis=1)

    # -- spectral --------------------------------------------------------------

    @_lazy
    def power_spectrum(self) -> np.ndarray:
        """``|rfft(x - mean)|**2`` with the DC bin dropped."""
        spec = np.abs(np.fft.rfft(self.centered, axis=1)) ** 2
        return spec[:, 1:]

    # -- keyed intermediates ---------------------------------------------------

    def windows(self, width: int) -> np.ndarray:
        """Sliding-window view ``(N, T - width + 1, width)`` (zero-copy)."""
        return sliding_window_view(self.values, width, axis=1)

    def autocorrelation(self, lag: int) -> np.ndarray:
        """ACF at *lag*, memoised so individual lags and the aggregate share."""
        acf = self._acf.get(lag)
        if acf is None:
            if lag >= self.t:
                acf = np.zeros(self.n)
            else:
                cov = np.mean(self.centered[:, :-lag] * self.centered[:, lag:], axis=1)
                out = np.zeros(self.n)
                ok = np.abs(self.var) > 1e-12
                np.divide(cov, self.var, out=out, where=ok)
                acf = out
            self._acf[lag] = acf
        return acf

    def entropy_profile(self, m: int = 2, r_factor: float = 0.2) -> EntropyProfile:
        """Chebyshev-distance statistics shared by ApEn and SampEn.

        One row-chunked pass builds the pairwise window-distance tensors for
        template lengths ``m`` and ``m+1`` and reduces them to the four
        per-row statistics both entropies need.  Matches the per-row
        reference semantics exactly: windows of length ``L`` number
        ``T - L + 1``, tolerance is ``r_factor * row.std()``, counts include
        self-matches for phi and exclude them for A/B.
        """
        key = (m, r_factor)
        profile = self._pairwise.get(key)
        if profile is not None:
            return profile

        n, t = self.shape
        r = r_factor * self.std
        # Mirrors the reference guard `r < 1e-12 or t <= m + 1` (NaN r stays
        # "valid" there too, and degrades the same way downstream).
        valid = ~(r < 1e-12) if t > m + 1 else np.zeros(n, dtype=bool)
        phi_m = np.zeros(n)
        phi_m1 = np.zeros(n)
        a = np.zeros(n)
        b = np.zeros(n)

        idx = np.flatnonzero(valid)
        if idx.size:
            rows_per_chunk = max(1, int(_ENTROPY_CHUNK_BYTES // (3 * 8 * t * t)))
            with np.errstate(divide="ignore", invalid="ignore"):
                for lo in range(0, idx.size, rows_per_chunk):
                    rows = idx[lo : lo + rows_per_chunk]
                    v = self.values[rows]
                    rr = r[rows, None, None]
                    # E_1[i, j] = |x_i - x_j|; E_L extends the diagonal max.
                    e1 = np.abs(v[:, :, None] - v[:, None, :])
                    e = e1
                    for width in range(1, m + 2):
                        if width > 1:
                            e = np.maximum(e[:, :-1, :-1], e1[:, width - 1 :, width - 1 :])
                        if width == m:
                            le = e <= rr
                            phi_m[rows] = np.mean(np.log(np.mean(le, axis=2)), axis=1)
                            b[rows] = (le.sum(axis=(1, 2)) - le.shape[1]) / 2.0
                    le = e <= rr
                    phi_m1[rows] = np.mean(np.log(np.mean(le, axis=2)), axis=1)
                    a[rows] = (le.sum(axis=(1, 2)) - le.shape[1]) / 2.0

        profile = EntropyProfile(phi_m, phi_m1, a, b, valid)
        self._pairwise[key] = profile
        return profile


def as_context(x: np.ndarray | MetricBlockContext) -> MetricBlockContext:
    """Wrap a raw slab into a context; pass an existing context through."""
    if isinstance(x, MetricBlockContext):
        return x
    return MetricBlockContext(x)
