"""O(1) rolling feature kernels over per-node ring buffers.

The batch streaming path recomputes every calculator from scratch on each
evaluation window, even though consecutive windows overlap by
``window_seconds - evaluate_every`` samples.  This module maintains
sliding accumulators that are *updated* as chunks admit and age out, so
the streaming-incrementalizable feature families cost O(chunk) per ingest
and O(1) per evaluation instead of O(window):

* **moments** — mean/std/variance/skew/kurtosis plus the plain power sums
  (sum, energy, RMS) via central-moment accumulators merged with Chan's
  parallel formulas on admit and *inverse*-merged on evict;
* **extrema** — min/max/range/absolute-max are read at evaluation with one
  vectorised reduction over the window view; min and max do not depend on
  sample order, so no sliding state is kept for them;
* **diffs** — first-difference statistics via rolling |Δ| and Δ² sums plus
  O(1) endpoint identities (``mean_change``, the telescoped central
  second derivative);
* **autocorrelation** — shifted lag-product sums ``Σ (x_i-K)(x_{i+lag}-K)``
  with O(lag) boundary corrections at evaluation (K is re-anchored to the
  window mean at refresh so the expansion never cancels catastrophically);
* **entropy (amortized)** — the approximate/sample-entropy family recycles
  its pairwise Chebyshev distance-tensor slabs across overlapping windows
  (:class:`EntropySlabCache`): the kept region is a diagonal-shifted
  submatrix copy and only border strips are recomputed.  Distances are
  exact max/abs values, so the recycled profile is bit-identical.

The accumulators and reductions cover only the metric columns that carry
rolling cells in the node's :class:`RollingPlan`: every admitted or
evicted block is gathered down to those columns first, so a metric the
fitted selection reads only through the batch kernels (or not at all)
costs nothing per chunk.

Floating drift from repeated admit/evict is bounded by a periodic exact
refresh of every accumulator from the ring view (every
:data:`REFRESH_EVERY` evaluations); between refreshes the accumulated
error stays orders of magnitude under the 1e-9 parity contract.

NaN semantics mirror the batch path *exactly*: accumulators are
NaN-masked (a NaN sample can never poison a sum forever), and any metric
whose current window still contains a non-finite sample is "dirty" — all
of its features are computed by the context-backed batch kernels on the
ring view, which reproduce the batch quirks bit-for-bit (e.g. kurtosis of
a NaN window is -3.0 through ``_safe_div``).  Features the rolling engine
does not support likewise fall back per calculator, driven by the
``Calculator.rolling`` capability flag.
"""

from __future__ import annotations

import numpy as np

from repro.features.calculators import Calculator, _safe_div
from repro.features.context import EntropyProfile, MetricBlockContext

__all__ = [
    "ROLLING_LAGS",
    "RollingNodeEngine",
    "RollingPlan",
    "EntropySlabCache",
]

#: Autocorrelation lags carried by the rolling engine — the default
#: calculator set's ``autocorrelation_lag*`` family.
ROLLING_LAGS = (1, 2, 3, 5, 10)

_LAG_BY_NAME = {f"autocorrelation_lag{lag}": lag for lag in ROLLING_LAGS}

#: Accumulator re-anchoring cadence (evaluations between exact refreshes
#: from the ring view).
REFRESH_EVERY = 32


# -- accumulators --------------------------------------------------------------


def _part_stats(vals: np.ndarray):
    """Exact NaN-masked (n, mean, M2, M3, M4, Σx, Σx², bad) of a chunk.

    ``vals`` is ``(c, M)``; every output is ``(M,)``.  Non-finite samples
    contribute nothing and are counted in ``bad``.
    """
    fin = np.isfinite(vals)
    v = np.where(fin, vals, 0.0)
    n = fin.sum(axis=0).astype(np.float64)
    sx = v.sum(axis=0)
    sx2 = (v * v).sum(axis=0)
    mean = np.divide(sx, n, out=np.zeros_like(sx), where=n > 0)
    d = np.where(fin, vals - mean, 0.0)
    d2 = d * d
    return (
        n, mean, d2.sum(axis=0), (d2 * d).sum(axis=0), (d2 * d2).sum(axis=0),
        sx, sx2, (~fin).sum(axis=0).astype(np.int64),
    )


class _Moments:
    """Central-moment accumulators with Chan merge / inverse-merge."""

    __slots__ = ("n", "mean", "m2", "m3", "m4", "sum_x", "sum_x2", "bad")

    def __init__(self, n_metrics: int):
        z = lambda: np.zeros(n_metrics)  # noqa: E731 - tiny local factory
        self.n, self.mean, self.m2, self.m3, self.m4 = z(), z(), z(), z(), z()
        self.sum_x, self.sum_x2 = z(), z()
        self.bad = np.zeros(n_metrics, dtype=np.int64)

    def admit(self, vals: np.ndarray) -> None:
        nb, mb, m2b, m3b, m4b, sx, sx2, bad = _part_stats(vals)
        na, ma, m2a, m3a, m4a = self.n, self.mean, self.m2, self.m3, self.m4
        n = na + nb
        inv = np.divide(1.0, n, out=np.zeros_like(n), where=n > 0)
        d = mb - ma
        nanb = na * nb
        mean = ma + d * nb * inv
        m2 = m2a + m2b + d**2 * nanb * inv
        m3 = (m3a + m3b + d**3 * nanb * (na - nb) * inv**2
              + 3.0 * d * (na * m2b - nb * m2a) * inv)
        m4 = (m4a + m4b + d**4 * nanb * (na * na - nanb + nb * nb) * inv**3
              + 6.0 * d**2 * (na * na * m2b + nb * nb * m2a) * inv**2
              + 4.0 * d * (na * m3b - nb * m3a) * inv)
        upd = nb > 0
        self.n = np.where(upd, n, na)
        self.mean = np.where(upd, mean, ma)
        self.m2 = np.where(upd, m2, m2a)
        self.m3 = np.where(upd, m3, m3a)
        self.m4 = np.where(upd, m4, m4a)
        self.sum_x += sx
        self.sum_x2 += sx2
        self.bad += bad

    def evict(self, vals: np.ndarray) -> None:
        na, ma, m2a, m3a, m4a, sx, sx2, bad = _part_stats(vals)
        nc, mc = self.n, self.mean
        nb = nc - na
        okb = nb > 0
        inv_b = np.divide(1.0, nb, out=np.zeros_like(nb), where=okb)
        inv_c = np.divide(1.0, nc, out=np.zeros_like(nc), where=nc > 0)
        mb = (nc * mc - na * ma) * inv_b
        d = mb - ma
        nanb = na * nb
        m2b = self.m2 - m2a - d**2 * nanb * inv_c
        m3b = (self.m3 - m3a - d**3 * nanb * (na - nb) * inv_c**2
               - 3.0 * d * (na * m2b - nb * m2a) * inv_c)
        m4b = (self.m4 - m4a - d**4 * nanb * (na * na - nanb + nb * nb) * inv_c**3
               - 6.0 * d**2 * (na * na * m2b + nb * nb * m2a) * inv_c**2
               - 4.0 * d * (na * m3b - nb * m3a) * inv_c)
        upd = na > 0
        # Even-power moments cannot go negative; clamp the cancellation dust
        # so downstream sqrt()/power calls never see -1e-18.
        self.n = np.where(upd, np.where(okb, nb, 0.0), self.n)
        self.mean = np.where(upd, np.where(okb, mb, 0.0), self.mean)
        self.m2 = np.where(upd, np.where(okb, np.maximum(m2b, 0.0), 0.0), self.m2)
        self.m3 = np.where(upd, np.where(okb, m3b, 0.0), self.m3)
        self.m4 = np.where(upd, np.where(okb, np.maximum(m4b, 0.0), 0.0), self.m4)
        self.sum_x -= sx
        self.sum_x2 -= sx2
        self.bad -= bad

    def refresh(self, window_vals: np.ndarray) -> None:
        (self.n, self.mean, self.m2, self.m3, self.m4,
         self.sum_x, self.sum_x2, self.bad) = _part_stats(window_vals)


class _Diffs:
    """Rolling Σ|Δ| and ΣΔ² over in-window first-difference pairs."""

    __slots__ = ("sum_abs", "sum_sq")

    def __init__(self, n_metrics: int):
        self.sum_abs = np.zeros(n_metrics)
        self.sum_sq = np.zeros(n_metrics)

    @staticmethod
    def _contrib(seq: np.ndarray):
        if seq.shape[0] < 2:
            z = np.zeros(seq.shape[1])
            return z, z.copy()
        left, right = seq[:-1], seq[1:]
        fin = np.isfinite(left) & np.isfinite(right)
        d = np.where(fin, right - left, 0.0)
        return np.abs(d).sum(axis=0), (d * d).sum(axis=0)

    def admit(self, vals: np.ndarray, prev_row: np.ndarray) -> None:
        a, s = self._contrib(np.concatenate((prev_row, vals), axis=0))
        self.sum_abs += a
        self.sum_sq += s

    def evict(self, vals: np.ndarray, next_row: np.ndarray) -> None:
        a, s = self._contrib(np.concatenate((vals, next_row), axis=0))
        self.sum_abs -= a
        self.sum_sq -= s

    def refresh(self, window_vals: np.ndarray) -> None:
        self.sum_abs, self.sum_sq = self._contrib(window_vals)


class _Autocorr:
    """Shifted lag-product sums ``S[lag] = Σ (x_i - K)(x_{i+lag} - K)``.

    K is a fixed per-metric anchor (first chunk mean, re-anchored at every
    refresh), so the expansion of the windowed covariance around the true
    window mean stays well-conditioned.  Pairs with a non-finite endpoint
    contribute exactly zero, symmetrically on admit and evict.
    """

    __slots__ = ("k", "s", "_anchored")

    def __init__(self, n_metrics: int):
        self.k = np.zeros(n_metrics)
        self.s = {lag: np.zeros(n_metrics) for lag in ROLLING_LAGS}
        self._anchored = False

    def _pairsum(self, seq: np.ndarray, lag: int, lo: int, hi: int) -> np.ndarray:
        """Σ over pairs (j-lag, j) for right endpoints j in [lo, hi)."""
        lo = max(lo, lag)
        if hi <= lo:
            return 0.0
        x = seq - self.k
        left, right = x[lo - lag : hi - lag], x[lo:hi]
        fin = np.isfinite(left) & np.isfinite(right)
        return np.where(fin, left * right, 0.0).sum(axis=0)

    def admit(self, vals: np.ndarray, tail: np.ndarray) -> None:
        if not self._anchored:
            # Anchor the shift to the first chunk's mean so products stay
            # O(variance) instead of O(mean²) from the very first window.
            self.k = _part_stats(vals)[1]
            self._anchored = True
        p = tail.shape[0]
        seq = np.concatenate((tail, vals), axis=0)
        for lag in ROLLING_LAGS:
            self.s[lag] += self._pairsum(seq, lag, p, seq.shape[0])

    def evict(self, vals: np.ndarray, head: np.ndarray) -> None:
        e = vals.shape[0]
        seq = np.concatenate((vals, head), axis=0)
        for lag in ROLLING_LAGS:
            # Pairs whose LEFT endpoint ages out: right endpoints in
            # [lag, e + lag), clipped to what exists.
            self.s[lag] -= self._pairsum(seq, lag, lag, min(e + lag, seq.shape[0]))

    def refresh(self, window_vals: np.ndarray, mean: np.ndarray) -> None:
        self.k = np.array(mean, dtype=np.float64)
        self._anchored = True
        for lag in ROLLING_LAGS:
            self.s[lag] = self._pairsum(window_vals, lag, lag, window_vals.shape[0])


# -- amortized entropy slabs ---------------------------------------------------


class EntropySlabCache:
    """Recycled Chebyshev distance tensors for the entropy family.

    ``entropy_profile`` needs the pairwise window-distance tensors
    ``E_1 .. E_{m+1}`` of the current window.  When the window slides by
    ``s`` samples, the distances between kept samples are unchanged —
    ``E_L'[i, j] = E_L[i+s, j+s]`` — so each tensor is rebuilt as a
    diagonal-shifted submatrix copy plus freshly computed border strips
    (new-sample rows/cols for ``E_1``, the incremental-max recurrence
    ``E_L[i,j] = max(E_{L-1}[i,j], E_1[i+L-1, j+L-1])`` for the rest).
    Max/abs distances are exact, so a recycled profile is bit-identical
    to one built from scratch; only the tolerance comparison (``r`` moves
    with the window std) is redone per evaluation.
    """

    def __init__(self) -> None:
        self._cache: dict = {}
        self.reuses = 0
        self.rebuilds = 0

    @staticmethod
    def _build(v: np.ndarray, m: int) -> list[np.ndarray]:
        e1 = np.abs(v[:, :, None] - v[:, None, :])
        tensors = [e1]
        e = e1
        for width in range(2, m + 2):
            e = np.maximum(e[:, :-1, :-1], e1[:, width - 1 :, width - 1 :])
            tensors.append(e)
        return tensors

    @staticmethod
    def _slide(old: list[np.ndarray], v: np.ndarray, s: int, keep: int) -> list[np.ndarray]:
        w = v.shape[1]
        e1 = np.empty((v.shape[0], w, w))
        e1[:, :keep, :keep] = old[0][:, s : s + keep, s : s + keep]
        fresh = v[:, keep:]
        e1[:, keep:, :] = np.abs(fresh[:, :, None] - v[:, None, :])
        e1[:, :keep, keep:] = e1[:, keep:, :keep].transpose(0, 2, 1)
        tensors = [e1]
        prev = e1
        for width in range(2, len(old) + 1):
            side = w - width + 1
            a = max(keep - width + 1, 0)
            e = np.empty((v.shape[0], side, side))
            if a > 0:
                e[:, :a, :a] = old[width - 1][:, s : s + a, s : s + a]
            e[:, a:, :] = np.maximum(
                prev[:, a:side, :side], e1[:, a + width - 1 :, width - 1 :]
            )
            if a > 0:
                e[:, :a, a:] = np.maximum(
                    prev[:, :a, a:side], e1[:, width - 1 : a + width - 1, a + width - 1 :]
                )
            tensors.append(e)
            prev = e
        return tensors

    def profile(
        self,
        ctx: MetricBlockContext,
        rows_key: tuple[int, ...],
        g0: int,
        g1: int,
        m: int = 2,
        r_factor: float = 0.2,
    ) -> EntropyProfile:
        """Build (or recycle) the profile for *ctx* and memoise it there.

        ``rows_key`` identifies the metric rows of *ctx* (in order);
        ``[g0, g1)`` is the window's global sample index range.  The
        resulting :class:`EntropyProfile` is seeded into the context's
        pairwise memo, so the unmodified entropy calculators draw it
        instead of rebuilding the tensors.
        """
        key = (m, float(r_factor), rows_key)
        cached = self._cache.get(key)
        tensors = None
        if cached is not None:
            cg0, cg1, old = cached
            s, keep = g0 - cg0, cg1 - g0
            if 0 <= s and m + 1 < keep <= ctx.t and cg1 <= g1:
                tensors = self._slide(old, ctx.values, s, keep)
                self.reuses += 1
        if tensors is None:
            tensors = self._build(ctx.values, m)
            self.rebuilds += 1
        self._cache[key] = (g0, g1, tensors)

        n, t = ctx.shape
        r = r_factor * ctx.std
        valid = ~(r < 1e-12) if t > m + 1 else np.zeros(n, dtype=bool)
        phi_m, phi_m1 = np.zeros(n), np.zeros(n)
        a, b = np.zeros(n), np.zeros(n)
        idx = np.flatnonzero(valid)
        if idx.size:
            rr = r[idx, None, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                le = tensors[m - 1][idx] <= rr
                phi_m[idx] = np.mean(np.log(np.mean(le, axis=2)), axis=1)
                b[idx] = (le.sum(axis=(1, 2)) - le.shape[1]) / 2.0
                le = tensors[m][idx] <= rr
                phi_m1[idx] = np.mean(np.log(np.mean(le, axis=2)), axis=1)
                a[idx] = (le.sum(axis=(1, 2)) - le.shape[1]) / 2.0
        profile = EntropyProfile(phi_m, phi_m1, a, b, valid)
        ctx._pairwise[(m, r_factor)] = profile
        return profile


# -- selection-aware evaluation plan -------------------------------------------


class _Cell:
    """One selected feature resolved against a node's metric layout."""

    __slots__ = ("sel_idx", "metric_idx", "calc", "col", "feature", "rolling")

    def __init__(self, sel_idx, metric_idx, calc, col, feature, rolling):
        self.sel_idx = sel_idx
        self.metric_idx = metric_idx
        self.calc = calc
        self.col = col
        self.feature = feature
        #: True when the rolling engine computes this cell from accumulators
        self.rolling = rolling


class RollingPlan:
    """Selected-feature layout resolved once per (pipeline, metric schema).

    Maps every fitted ``metric|feature`` name onto the node's metric index
    and owning calculator, splits the cells into rolling / batch-fallback /
    amortized-entropy groups, and precomputes which metrics and calculators
    the fallback context must cover.  Nodes sharing a metric schema share
    one plan.
    """

    def __init__(self, pipeline, metric_names: tuple[str, ...]):
        extractor = getattr(pipeline, "extractor", None)
        selected = getattr(pipeline, "selected_names_", None)
        if extractor is None or selected is None:
            raise ValueError(
                "rolling streaming mode needs a fitted DataPipeline "
                "(extractor + selected feature names); use streaming_mode='batch' "
                "for duck-typed pipelines"
            )
        self.metric_names = tuple(metric_names)
        self.selected = tuple(selected)
        metric_pos = {m: i for i, m in enumerate(self.metric_names)}
        allowed = set(extractor.metrics) if extractor.metrics is not None else None

        feature_map: dict[str, tuple[Calculator, int]] = {}
        for calc in extractor.calculators:
            for col, out in enumerate(calc.output_names):
                feature_map[out] = (calc, col)

        self.present = np.zeros(len(self.selected), dtype=bool)
        self.cells: list[_Cell] = []
        for j, name in enumerate(self.selected):
            metric, _, feature = name.rpartition("|")
            idx = metric_pos.get(metric)
            if idx is None or (allowed is not None and metric not in allowed):
                continue  # absent cell: stays 0 with a False mask, like batch
            entry = feature_map.get(feature)
            if entry is None:
                continue
            calc, col = entry
            rolling = calc.rolling in ("moments", "extrema", "diffs",
                                       "autocorr", "indicator")
            self.present[j] = True
            self.cells.append(_Cell(j, idx, calc, col, feature, rolling))

        self.rolling_cells = [c for c in self.cells if c.rolling]
        entropy = [c for c in self.cells if c.calc.rolling == "entropy"]
        self.entropy_cells = entropy
        self.fallback_cells = [c for c in self.cells if not c.rolling and c not in entropy]
        self.static_metrics = sorted({c.metric_idx for c in self.fallback_cells})
        self.static_calcs = list({id(c.calc): c.calc for c in self.fallback_cells}.values())
        self.entropy_metrics = sorted({c.metric_idx for c in entropy})
        self.entropy_calcs = list({id(c.calc): c.calc for c in entropy}.values())
        by_metric: dict[int, list[_Cell]] = {}
        for c in self.rolling_cells:
            by_metric.setdefault(c.metric_idx, []).append(c)
        columns = sorted(by_metric)
        #: the metric columns that carry rolling cells, ascending — the only
        #: columns a node engine's accumulators cover
        self.rolling_metrics = np.array(columns, dtype=np.intp)
        #: rolling cells grouped per column of ``rolling_metrics``: group k
        #: reads accumulator position k, and is redirected to the fallback
        #: context whenever that column's window is dirty
        self.rolling_groups = [by_metric[m] for m in columns]

    @property
    def n_selected(self) -> int:
        return len(self.selected)


# -- the per-node engine -------------------------------------------------------


class RollingNodeEngine:
    """Rolling accumulators + selection-aware evaluation for one node.

    Accumulators are sized to the plan's rolling columns, and every block
    handed to :meth:`admit` / :meth:`evict` is gathered down to them.
    """

    def __init__(self, plan: RollingPlan, ring):
        r = len(plan.rolling_metrics)
        self.plan = plan
        self.ring = ring
        self.moments = _Moments(r)
        self.diffs = _Diffs(r)
        self.autocorr = _Autocorr(r)
        self.slabs = EntropySlabCache() if plan.entropy_cells else None
        self.updates = 0
        self.evictions = 0
        self.fallback_calc_runs = 0
        self.evaluations = 0

    # -- ingest ----------------------------------------------------------------

    def admit(self, vals: np.ndarray, tail: np.ndarray) -> None:
        """Fold a new chunk in; ``tail`` is the ring's pre-append tail rows."""
        cols = self.plan.rolling_metrics
        vals, tail = vals[:, cols], tail[:, cols]
        self.moments.admit(vals)
        self.diffs.admit(vals, tail[-1:])
        self.autocorr.admit(vals, tail)
        self.updates += 1

    def evict(self, vals: np.ndarray, head: np.ndarray) -> None:
        """Remove aged-out rows; ``head`` is the post-evict leading rows."""
        if vals.shape[0] == 0:
            return
        cols = self.plan.rolling_metrics
        self.evictions += vals.shape[0]
        vals, head = vals[:, cols], head[:, cols]
        self.moments.evict(vals)
        self.diffs.evict(vals, head[:1])
        self.autocorr.evict(vals, head)

    def refresh(self) -> None:
        """Exact accumulator rebuild from the ring view (drift bound)."""
        window = self.ring.values_view()[:, self.plan.rolling_metrics]
        self.moments.refresh(window)
        self.diffs.refresh(window)
        self.autocorr.refresh(window, self.moments.mean)

    # -- evaluation ------------------------------------------------------------

    def _rolling_values(self, window_vals: np.ndarray) -> dict[str, np.ndarray]:
        """Every rolling feature as an ``(R,)`` vector over the rolling columns.

        ``window_vals`` is the window gathered to ``plan.rolling_metrics``.
        Valid only for clean columns; dirty ones are redirected to the
        batch kernels by :meth:`evaluate` before these values are read.
        """
        mom, w = self.moments, window_vals.shape[0]
        fw = float(w)
        mean = mom.mean
        m2, m3, m4 = mom.m2 / fw, mom.m3 / fw, mom.m4 / fw
        std = np.sqrt(m2)
        mn, mx = window_vals.min(axis=0), window_vals.max(axis=0)
        v0, v1 = (window_vals[0], window_vals[1]) if w > 1 else (window_vals[0],) * 2
        vl, vl2 = (window_vals[-1], window_vals[-2]) if w > 1 else (window_vals[-1],) * 2
        out = {
            "mean": mean.copy(),
            "std": std,
            "variance": m2,
            "skewness": _safe_div(m3, m2**1.5),
            "kurtosis": _safe_div(m4, m2**2) - 3.0,
            "variation_coefficient": _safe_div(std, mean),
            "sum_values": mom.sum_x.copy(),
            "abs_energy": mom.sum_x2.copy(),
            "root_mean_square": np.sqrt(mom.sum_x2 / fw),
            "minimum": mn,
            "maximum": mx,
            "range": mx - mn,
            "absolute_maximum": np.maximum(np.abs(mn), np.abs(mx)),
            "mean_abs_change": self.diffs.sum_abs / max(w - 1, 1),
            "absolute_sum_of_changes": self.diffs.sum_abs.copy(),
            "mean_change": _safe_div(vl - v0, float(w - 1)),
            "mean_second_derivative_central": (
                np.zeros_like(mean) if w < 3
                else 0.5 * ((vl - vl2) - (v1 - v0)) / (w - 2)
            ),
            "cid_ce": np.sqrt(self.diffs.sum_sq),
            "cid_ce_normalized": _safe_div(np.sqrt(self.diffs.sum_sq), std),
            "variance_larger_than_std": (m2 > np.sqrt(m2)).astype(np.float64),
            "large_standard_deviation": (std > 0.25 * (mx - mn)).astype(np.float64),
        }
        ac = self.autocorr
        var = m2
        ok = np.abs(var) > 1e-12
        total = mom.sum_x - ac.k * fw
        for name, lag in _LAG_BY_NAME.items():
            if lag >= w:
                out[name] = np.zeros_like(mean)
                continue
            shift = mean - ac.k
            first = (window_vals[:lag] - ac.k).sum(axis=0)
            last = (window_vals[w - lag :] - ac.k).sum(axis=0)
            num = (ac.s[lag] - shift * (2.0 * total - last - first)
                   + (w - lag) * shift * shift)
            cov = num / (w - lag)
            acf = np.zeros_like(mean)
            np.divide(cov, var, out=acf, where=ok)
            out[name] = acf
        return out

    def evaluate(self) -> tuple[np.ndarray, np.ndarray]:
        """Assemble the raw selected feature row ``(1, F)`` + presence mask.

        Rolling cells on clean metrics come from the accumulators (extrema
        from one reduction over the window's rolling columns); dirty
        metrics and batch-only calculators run through one shared
        :class:`MetricBlockContext` over the ring view (rows = metrics),
        which is bit-identical to the offline extraction path.  Entropy
        cells run on their own context seeded from the slab cache.
        """
        plan = self.plan
        self.evaluations += 1
        if self.evaluations % REFRESH_EVERY == 0:
            self.refresh()
        window = self.ring.values_view()
        # A column is dirty while its window holds a non-finite sample.
        dirty = self.moments.bad > 0
        raw = np.zeros(plan.n_selected)

        ctx_metrics = list(plan.static_metrics)
        ctx_calcs = list(plan.static_calcs)
        redirected: list[_Cell] = []
        for k, cells in enumerate(plan.rolling_groups):
            if dirty[k]:
                redirected.extend(cells)
                if cells[0].metric_idx not in ctx_metrics:
                    ctx_metrics.append(cells[0].metric_idx)
                for c in cells:
                    if all(c.calc is not calc for calc in ctx_calcs):
                        ctx_calcs.append(c.calc)
        ctx_metrics.sort()

        if plan.rolling_cells:
            rolled = self._rolling_values(window[:, plan.rolling_metrics])
            for k, cells in enumerate(plan.rolling_groups):
                if not dirty[k]:
                    for c in cells:
                        raw[c.sel_idx] = rolled[c.feature][k]

        if ctx_metrics and (plan.fallback_cells or redirected):
            row_of = {midx: r for r, midx in enumerate(ctx_metrics)}
            ctx = MetricBlockContext(window[:, ctx_metrics].T)
            outputs = {id(calc): calc(ctx) for calc in ctx_calcs}
            self.fallback_calc_runs += len(ctx_calcs)
            for c in plan.fallback_cells + redirected:
                raw[c.sel_idx] = outputs[id(c.calc)][row_of[c.metric_idx], c.col]

        if plan.entropy_cells:
            row_of = {midx: r for r, midx in enumerate(plan.entropy_metrics)}
            ctx_e = MetricBlockContext(window[:, plan.entropy_metrics].T)
            self.slabs.profile(
                ctx_e, tuple(plan.entropy_metrics),
                self.ring.start_index, self.ring.end_index,
            )
            outputs = {id(calc): calc(ctx_e) for calc in plan.entropy_calcs}
            self.fallback_calc_runs += len(plan.entropy_calcs)
            for c in plan.entropy_cells:
                raw[c.sel_idx] = outputs[id(c.calc)][row_of[c.metric_idx], c.col]

        # The batch Calculator wrapper pins non-finite outputs to 0 — the
        # rolling cells must honour the same contract.
        np.nan_to_num(raw, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
        return raw[None, :], plan.present
