"""CoMTE: Counterfactual explanations for multivariate time series.

Reproduces Ates et al. (ICAPAI'21) as applied in the paper (Sec. 4.4): given
a sample classified anomalous, find (1) a *distractor* — a healthy training
sample — and (2) the minimal set of metrics to copy from the distractor so
the classifier flips the sample to healthy.  The returned metric set is the
explanation ("the sample would be healthy if MemFree behaved like this").

Two search strategies mirror the original implementation's classes:

* :class:`BruteForceSearch` — exhaustive over subsets of a candidate metric
  shortlist, smallest subsets first, so the result is minimal by
  construction.
* :class:`OptimizedSearch` — greedy forward selection by marginal
  probability improvement with a backward pruning pass; near-minimal at a
  fraction of the evaluations.

Two search cost controls apply to both strategies (both default on):

* ``memoize`` — identical ``(distractor, metric set)`` candidates are
  answered from a per-``explain`` memo instead of re-running the
  classifier; the single-metric ranking pass seeds the first greedy round
  and the brute-force singles level for free.  True-vs-cached counts are
  reported on the returned :class:`~repro.explain.explanation.Counterfactual`.
* ``batched`` — each search round's uncached candidates are evaluated
  through the evaluator's ``p_anomalous_batch`` in one classifier
  dispatch instead of one round trip per candidate.

Turning both off reproduces the per-candidate reference search (the
benchmark baseline).  The returned metric sets are identical in all
modes: batched rounds are scanned in the serial visit order with the same
strict-``<`` tie-breaks.

As in the paper's deployment (Sec. 5.4.4), threshold detectors are adapted
through ``predict_proba`` (the logistic calibration around the threshold)
since CoMTE needs classification probabilities.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from repro.explain.explanation import Counterfactual
from repro.runtime.instrumentation import get_instrumentation
from repro.telemetry.frame import NodeSeries

__all__ = ["BruteForceSearch", "OptimizedSearch", "substitute_metrics"]

#: classifier over raw node series -> [P(healthy), P(anomalous)]
SeriesClassifier = Callable[[NodeSeries], np.ndarray]


def substitute_metrics(
    sample: NodeSeries, distractor: NodeSeries, metrics: Sequence[str]
) -> NodeSeries:
    """Copy the named metric series from *distractor* into *sample*.

    Both series must share the metric layout; the distractor is resampled
    onto the sample's length if needed.
    """
    if distractor.metric_names != sample.metric_names:
        raise ValueError("sample and distractor must share metric names")
    if distractor.n_timestamps != sample.n_timestamps:
        distractor = distractor.resample(sample.n_timestamps)
    values = sample.values.copy()
    for name in metrics:
        j = sample.metric_index(name)
        values[:, j] = distractor.values[:, j]
    return sample.with_values(values)


class _SearchBase:
    """Shared distractor handling, memoisation, and evaluation accounting."""

    def __init__(
        self,
        classifier: "SeriesClassifier | object",
        distractors: Sequence[NodeSeries],
        *,
        max_metrics: int = 3,
        memoize: bool = True,
        batched: bool = True,
    ):
        if not distractors:
            raise ValueError("need at least one distractor (healthy training sample)")
        if max_metrics < 1:
            raise ValueError("max_metrics must be >= 1")
        if hasattr(classifier, "p_anomalous"):
            self.evaluator = classifier
        elif callable(classifier):
            # Local import: evaluators module depends on this one.
            from repro.explain.evaluators import ClassifierEvaluator

            self.evaluator = ClassifierEvaluator(classifier)
        else:
            raise TypeError(
                "classifier must be callable or expose p_anomalous(sample, distractor, metrics)"
            )
        self.distractors = list(distractors)
        self.max_metrics = max_metrics
        self.memoize = bool(memoize)
        self.batched = bool(batched)
        self._n_eval = 0
        self._n_cached = 0
        self._memo: dict[tuple, float] = {}
        self._aligned_cache: dict[tuple[int, int], NodeSeries] = {}

    # -- evaluation dispatch ----------------------------------------------------

    def explain(self, sample: NodeSeries) -> Counterfactual:
        """Counterfactual for *sample*, recorded under the ``explain`` stage."""
        with get_instrumentation().stage("explain", items=1):
            self._n_eval = 0
            self._n_cached = 0
            # The memo keys on object identity, which is only stable while
            # *sample* is alive — scope it to one search.
            self._memo.clear()
            return self._explain(sample)

    def _explain(self, sample: NodeSeries) -> Counterfactual:
        raise NotImplementedError

    @staticmethod
    def _memo_key(
        sample: NodeSeries, distractor: NodeSeries | None, metrics: tuple[str, ...]
    ) -> tuple:
        return (
            id(sample),
            None if distractor is None else id(distractor),
            frozenset(metrics),
        )

    def _p_sub(
        self, sample: NodeSeries, distractor: NodeSeries | None, metrics: Sequence[str]
    ) -> float:
        """P(anomalous) of *sample* with *metrics* replaced from *distractor*."""
        metrics = tuple(metrics)
        if self.memoize:
            key = self._memo_key(sample, distractor, metrics)
            hit = self._memo.get(key)
            if hit is not None:
                self._n_cached += 1
                return hit
        self._n_eval += 1
        p = float(self.evaluator.p_anomalous(sample, distractor, metrics))
        if self.memoize:
            self._memo[key] = p
        return p

    def _p_sub_many(
        self,
        sample: NodeSeries,
        distractor: NodeSeries | None,
        metric_sets: Sequence[Sequence[str]],
    ) -> list[float]:
        """P(anomalous) for a round of candidate metric sets, in order.

        Memo hits are answered in place; the uncached remainder goes through
        the evaluator's ``p_anomalous_batch`` in one dispatch when batching
        is on (and the evaluator supports it), else through a serial loop.
        """
        metric_sets = [tuple(m) for m in metric_sets]
        results: list[float | None] = [None] * len(metric_sets)
        todo: list[int] = []
        if self.memoize:
            for i, metrics in enumerate(metric_sets):
                hit = self._memo.get(self._memo_key(sample, distractor, metrics))
                if hit is not None:
                    self._n_cached += 1
                    results[i] = hit
                else:
                    todo.append(i)
        else:
            todo = list(range(len(metric_sets)))
        batch_fn = getattr(self.evaluator, "p_anomalous_batch", None)
        if todo and self.batched and batch_fn is not None:
            ps = batch_fn(sample, distractor, [metric_sets[i] for i in todo])
            self._n_eval += len(todo)
            for i, p in zip(todo, ps):
                p = float(p)
                results[i] = p
                if self.memoize:
                    self._memo[self._memo_key(sample, distractor, metric_sets[i])] = p
        else:
            for i in todo:
                self._n_eval += 1
                p = float(self.evaluator.p_anomalous(sample, distractor, metric_sets[i]))
                results[i] = p
                if self.memoize:
                    self._memo[self._memo_key(sample, distractor, metric_sets[i])] = p
        return results

    # -- distractor handling ----------------------------------------------------

    def _aligned(self, distractor: NodeSeries, n_timestamps: int) -> NodeSeries:
        """*distractor* resampled onto *n_timestamps*, cached per length.

        Distractors are reused across samples and search rounds; resampling
        each one on every ranking call was pure rework.  The cache holds a
        reference to the resampled copy, so its identity (and therefore the
        id-keyed memo) stays stable for the search's lifetime.
        """
        if distractor.n_timestamps == n_timestamps:
            return distractor
        key = (id(distractor), n_timestamps)
        hit = self._aligned_cache.get(key)
        if hit is None:
            hit = self._aligned_cache[key] = distractor.resample(n_timestamps)
        return hit

    def _rank_distractors(self, sample: NodeSeries, top: int) -> list[NodeSeries]:
        """Order distractors by raw-series proximity to the sample.

        Proximity is measured per metric with scale normalisation so large-
        magnitude counters do not dominate; closer distractors need fewer
        substitutions to flip the label.
        """
        target = sample.values
        scale = np.maximum(np.abs(target).mean(axis=0), 1e-9)
        scored = []
        for d in self.distractors:
            dd = self._aligned(d, sample.n_timestamps)
            dist = float(np.mean(np.abs(dd.values - target) / scale))
            scored.append((dist, dd))
        scored.sort(key=lambda t: t[0])
        return [d for _, d in scored[:top]]

    def _candidate_metrics(self, sample: NodeSeries) -> tuple[str, ...]:
        """Metrics eligible for substitution.

        An evaluator may model only a metric subset (the metrics its
        extractor pins); only those metrics can influence the prediction.
        """
        layout = getattr(self.evaluator, "candidate_metrics", None)
        if layout:
            return tuple(m for m in layout if m in sample.metric_names)
        return sample.metric_names

    def _single_metric_gains(
        self, sample: NodeSeries, distractor: NodeSeries, base_p: float
    ) -> list[tuple[float, str]]:
        """Probability drop from substituting each metric alone, sorted."""
        names = self._candidate_metrics(sample)
        ps = self._p_sub_many(sample, distractor, [(name,) for name in names])
        gains = [(base_p - p, name) for p, name in zip(ps, names)]
        gains.sort(key=lambda t: -t[0])
        return gains

    def _result(
        self,
        metrics: Sequence[str],
        distractor: NodeSeries,
        p_before: float,
        p_after: float,
    ) -> Counterfactual:
        return Counterfactual(
            metrics=tuple(metrics),
            distractor_job_id=distractor.job_id,
            distractor_component_id=distractor.component_id,
            p_anomalous_before=p_before,
            p_anomalous_after=p_after,
            n_evaluations=self._n_eval,
            n_cached_evaluations=self._n_cached,
        )


class BruteForceSearch(_SearchBase):
    """Exhaustive minimal-subset search over a candidate shortlist.

    Full exhaustion over ~100 metrics is infeasible (the original CoMTE
    notes the same), so candidates are shortlisted to the
    ``shortlist_size`` metrics with the largest single-substitution
    probability drops, then all subsets of size 1..max_metrics are tried in
    ascending size — the first success is a minimal explanation within the
    shortlist.
    """

    def __init__(
        self,
        classifier: SeriesClassifier,
        distractors: Sequence[NodeSeries],
        *,
        max_metrics: int = 3,
        shortlist_size: int = 10,
        n_distractors: int = 3,
        memoize: bool = True,
        batched: bool = True,
    ):
        super().__init__(
            classifier, distractors,
            max_metrics=max_metrics, memoize=memoize, batched=batched,
        )
        self.shortlist_size = shortlist_size
        self.n_distractors = n_distractors

    def _explain(self, sample: NodeSeries) -> Counterfactual:
        p_before = self._p_sub(sample, None, ())
        best: tuple[float, Sequence[str], NodeSeries] | None = None
        for distractor in self._rank_distractors(sample, self.n_distractors):
            gains = self._single_metric_gains(sample, distractor, p_before)
            shortlist = [name for _, name in gains[: self.shortlist_size]]
            for size in range(1, self.max_metrics + 1):
                combos = list(combinations(shortlist, size))
                if self.batched:
                    # One dispatch per size level; scanning in combination
                    # order below still returns the same (minimal) first hit
                    # as the candidate-at-a-time search.
                    scored = zip(combos, self._p_sub_many(sample, distractor, combos))
                else:
                    # Lazy generator: preserves the reference search's early
                    # exit mid-level.
                    scored = (
                        (combo, self._p_sub(sample, distractor, combo))
                        for combo in combos
                    )
                for combo, p in scored:
                    if p < 0.5:
                        return self._result(combo, distractor, p_before, p)
                    if best is None or p < best[0]:
                        best = (p, combo, distractor)
        assert best is not None
        return self._result(best[1], best[2], p_before, best[0])


class OptimizedSearch(_SearchBase):
    """Greedy forward selection with backward pruning.

    For each of the closest distractors: repeatedly add the metric with the
    largest marginal drop in P(anomalous) until the label flips or
    ``max_metrics`` is reached, then drop any metric whose removal keeps
    the flip (ensuring a locally minimal set).
    """

    def __init__(
        self,
        classifier: SeriesClassifier,
        distractors: Sequence[NodeSeries],
        *,
        max_metrics: int = 5,
        n_distractors: int = 3,
        candidate_pool: int = 15,
        memoize: bool = True,
        batched: bool = True,
    ):
        super().__init__(
            classifier, distractors,
            max_metrics=max_metrics, memoize=memoize, batched=batched,
        )
        self.n_distractors = n_distractors
        self.candidate_pool = candidate_pool

    def _explain(self, sample: NodeSeries) -> Counterfactual:
        p_before = self._p_sub(sample, None, ())
        best: tuple[float, list[str], NodeSeries] | None = None
        for distractor in self._rank_distractors(sample, self.n_distractors):
            gains = self._single_metric_gains(sample, distractor, p_before)
            pool = [name for _, name in gains[: self.candidate_pool]]
            chosen: list[str] = []
            p_current = p_before
            while len(chosen) < self.max_metrics and p_current >= 0.5:
                candidates = [name for name in pool if name not in chosen]
                best_step: tuple[float, str] | None = None
                if candidates:
                    # One batched round; the in-order strict-< scan keeps the
                    # serial tie-break.  The first round is answered entirely
                    # from the single-metric ranking memo.
                    ps = self._p_sub_many(
                        sample, distractor, [(*chosen, name) for name in candidates]
                    )
                    for name, p in zip(candidates, ps):
                        if best_step is None or p < best_step[0]:
                            best_step = (p, name)
                if best_step is None or best_step[0] >= p_current - 1e-12:
                    # Greedy stalled. Non-submodular models (e.g. an OR over
                    # metrics) may need two substitutions before either
                    # helps: one pairwise lookahead over the top candidates.
                    pair = self._pair_lookahead(sample, distractor, pool, chosen, p_current)
                    if pair is None:
                        break
                    p_current, add = pair
                    chosen.extend(add)
                    continue
                p_current = best_step[0]
                chosen.append(best_step[1])
            if p_current < 0.5:
                chosen, p_current = self._prune(sample, distractor, chosen, p_current)
                return self._result(chosen, distractor, p_before, p_current)
            if chosen and (best is None or p_current < best[0]):
                best = (p_current, chosen, distractor)
        if best is None:
            # Nothing improved at all; report the empty-substitution state.
            return self._result((), self.distractors[0], p_before, p_before)
        return self._result(best[1], best[2], p_before, best[0])

    def _pair_lookahead(
        self,
        sample: NodeSeries,
        distractor: NodeSeries,
        pool: Sequence[str],
        chosen: list[str],
        p_current: float,
        *,
        top: int = 8,
    ) -> tuple[float, list[str]] | None:
        """Best improving pair of unchosen candidates, or None."""
        if len(chosen) + 2 > self.max_metrics:
            return None
        candidates = [m for m in pool if m not in chosen][:top]
        pairs = [(a, b) for i, a in enumerate(candidates) for b in candidates[i + 1 :]]
        best: tuple[float, list[str]] | None = None
        if pairs:
            ps = self._p_sub_many(
                sample, distractor, [(*chosen, a, b) for a, b in pairs]
            )
            for (a, b), p in zip(pairs, ps):
                if best is None or p < best[0]:
                    best = (p, [a, b])
        if best is None or best[0] >= p_current - 1e-12:
            return None
        return best

    def _prune(
        self,
        sample: NodeSeries,
        distractor: NodeSeries,
        chosen: list[str],
        p_current: float,
    ) -> tuple[list[str], float]:
        """Drop metrics whose removal keeps the counterfactual flipped.

        Inherently sequential (each trial depends on the surviving set), but
        the memo answers any trial the forward pass already evaluated.
        """
        kept = list(chosen)
        for name in list(chosen):
            if len(kept) == 1:
                break
            trial = [m for m in kept if m != name]
            p = self._p_sub(sample, distractor, trial)
            if p < 0.5:
                kept = trial
                p_current = p
        return kept, p_current
