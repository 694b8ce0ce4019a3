"""Rolling-mode feature evaluation over per-node ring buffers.

``streaming_mode="rolling"`` computes only the cells the fitted
Chi-square selection keeps, not the full calculator set.  A
:class:`RollingPlan` resolves every selected ``metric|feature`` name
against a node's metric schema once, and a :class:`RollingNodeEngine`
evaluates a due window by running just the calculators those cells
need — the batch kernels the extractor uses — on one
:class:`MetricBlockContext` over the node's ring window, restricted to
the selected columns (one context row per metric).  Every kernel is
row-wise, so each cell equals batch mode's extraction of the same window
exactly, NaN quirks included: both modes run the same kernels on the
same rows.

The one family with state that really slides is the approximate/sample
entropy pair (the calculators tagged ``rolling="entropy"``):
:class:`EntropySlabCache` recycles their pairwise Chebyshev distance
tensors across overlapping windows — the kept region is a
diagonal-shifted submatrix copy and only border strips are recomputed.
Distances are exact max/abs values, so the recycled profile is
bit-identical to a cold one.
"""

from __future__ import annotations

import numpy as np

from repro.features.calculators import Calculator
from repro.features.context import EntropyProfile, MetricBlockContext

__all__ = [
    "RollingNodeEngine",
    "RollingPlan",
    "EntropySlabCache",
]


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


class _CellGroup:
    """Selected cells evaluated on one shared context.

    ``metrics`` are the node columns the context covers, ascending (context
    row ``r`` is column ``metrics[r]``); ``calcs`` lists each calculator
    once with the selected index, context row and output column of every
    cell it fills.
    """

    __slots__ = ("metrics", "calcs")

    def __init__(self, cells: list[tuple[int, int, Calculator, int]]):
        self.metrics = np.array(sorted({metric for _, metric, _, _ in cells}), dtype=np.intp)
        row_of = {int(m): r for r, m in enumerate(self.metrics)}
        by_calc: dict[int, tuple[Calculator, list]] = {}
        for sel, metric, calc, col in cells:
            by_calc.setdefault(id(calc), (calc, []))[1].append((sel, row_of[metric], col))
        self.calcs = [
            (calc, *(np.array(axis, dtype=np.intp) for axis in zip(*slots)))
            for calc, slots in by_calc.values()
        ]

    def fill(self, ctx: MetricBlockContext, raw: np.ndarray) -> None:
        """Run every calculator once on *ctx* and scatter its cells into *raw*."""
        for calc, sel, rows, cols in self.calcs:
            raw[sel] = calc(ctx)[rows, cols]


class RollingPlan:
    """Selected-feature layout resolved once per (pipeline, metric schema).

    Maps every fitted ``metric|feature`` name onto the node's metric index
    and owning calculator, and splits the cells into the entropy group
    (evaluated on a context fed by the slab cache) and everything else.
    Nodes sharing a metric schema share one plan.
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
        cells: list[tuple[int, int, Calculator, int]] = []
        entropy: list[tuple[int, int, Calculator, int]] = []
        for j, name in enumerate(self.selected):
            metric, _, feature = name.rpartition("|")
            idx = metric_pos.get(metric)
            if idx is None or (allowed is not None and metric not in allowed):
                continue  # absent cell: stays 0 with a False mask, like batch
            entry = feature_map.get(feature)
            if entry is None:
                continue
            calc, col = entry
            self.present[j] = True
            (entropy if calc.rolling == "entropy" else cells).append((j, idx, calc, col))
        #: every selected non-entropy cell, on one context over the ring window
        self.context = _CellGroup(cells)
        #: approximate/sample entropy cells, on a context seeded from the slabs
        self.entropy = _CellGroup(entropy)

    @property
    def n_selected(self) -> int:
        return len(self.selected)


# -- the per-node engine -------------------------------------------------------


class RollingNodeEngine:
    """Selection-aware evaluation of one node's ring window."""

    def __init__(self, plan: RollingPlan, ring):
        self.plan = plan
        self.ring = ring
        self.slabs = EntropySlabCache() if plan.entropy.calcs else None
        #: calculator calls made so far (every calculator, entropy included)
        self.fallback_calc_runs = 0

    def evaluate(self) -> tuple[np.ndarray, np.ndarray]:
        """Assemble the raw selected feature row ``(1, F)`` + presence mask.

        Reads the ring *now*: call it while the ring still holds the due
        window.  Entropy cells run on their own context, seeded from the
        slab cache, so the unmodified calculators draw the recycled
        distance tensors instead of rebuilding them.
        """
        plan = self.plan
        window = self.ring.values_view().T
        raw = np.zeros(plan.n_selected)
        if plan.context.calcs:
            plan.context.fill(MetricBlockContext(window[plan.context.metrics]), raw)
            self.fallback_calc_runs += len(plan.context.calcs)
        if plan.entropy.calcs:
            rows = plan.entropy.metrics
            ctx = MetricBlockContext(window[rows])
            self.slabs.profile(
                ctx, tuple(rows.tolist()), self.ring.start_index, self.ring.end_index,
            )
            plan.entropy.fill(ctx, raw)
            self.fallback_calc_runs += len(plan.entropy.calcs)
        return raw[None, :], plan.present
