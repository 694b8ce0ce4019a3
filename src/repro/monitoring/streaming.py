"""Online / streaming anomaly detection (the paper's Sec. 7 direction).

The deployed pipeline scores a job after it finishes; operators also want
verdicts *while* a job runs.  :class:`StreamingDetector` keeps a sliding
window of recent telemetry per node, extracts features on the window, and
emits a verdict whenever enough new samples arrived — the natural
extension of the paper's design to runtime use (and of its ODA framing,
Sec. 2.2).

Windows shorter than a full run see partial phase structure, so scores are
noisier than post-run scores; the ``consecutive_alerts`` debounce is the
standard operational mitigation.

Per-node telemetry lives in a :class:`~repro.features.ringbuffer.NodeRingBuffer`
— one preallocated ``(capacity, M)`` block per node, trimmed to the window
span on *every* ingest (bounded memory even for nodes whose windows never
come due), with the evaluation window materialised as a slice instead of a
list-of-chunks concatenation.  The due windows go through the pipeline's
transforms, and the detector works out which from the pipeline it is
given:

* ``"rolling"`` — the production path, for every fitted
  :class:`DataPipeline` (one with an ``extractor`` and ``selected_names_``),
  resampling or not: the pipeline's own transform, which computes only
  the fitted selection's cells
  (:class:`~repro.features.rolling.RollingPlan`) once per group of
  windows of one schema and one length after resampling.
* ``"batch"`` — the pipeline's full-extraction oracle
  (:meth:`DataPipeline.transform_series_full`), every calculator on every
  metric of the same groups; a duck-typed pipeline that only offers
  ``transform_series`` runs that instead.

Either path can be forced with ``streaming_mode=`` on the constructor.
Both share calibration and verdict semantics: same stream in, same
(alert, streak) out, and the same scores — bit for bit, except in cells
of the three kernels that reduce a row with a BLAS ``matrix @ vector``
(``linear_trend``, ``benford_correlation``, ``fft_aggregated``), which
can move by a few ULPs when windows are stacked differently (see
:mod:`repro.features.rolling`).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.prodigy import ProdigyDetector
from repro.features.ringbuffer import NodeRingBuffer
from repro.pipeline.datapipeline import DataPipeline
from repro.telemetry.frame import NodeSeries

__all__ = ["StreamVerdict", "StreamingDetector", "resolve_streaming_mode"]

#: Feature paths :class:`StreamingDetector` can be forced onto.
STREAMING_MODES = ("batch", "rolling")


def _is_fitted(pipeline) -> bool:
    """A fitted :class:`DataPipeline`, as opposed to a duck-typed one."""
    return (
        getattr(pipeline, "extractor", None) is not None
        and getattr(pipeline, "selected_names_", None) is not None
    )


def resolve_streaming_mode(pipeline, streaming_mode: str | None) -> str:
    """The feature path a :class:`StreamingDetector` on *pipeline* runs.

    ``None`` picks ``"rolling"`` for a fitted :class:`DataPipeline` and
    ``"batch"`` otherwise; a forced mode is checked against *pipeline*.
    """
    fitted = _is_fitted(pipeline)
    if streaming_mode is None:
        streaming_mode = "rolling" if fitted else "batch"
    if streaming_mode not in STREAMING_MODES:
        raise ValueError(
            f"streaming_mode must be one of {STREAMING_MODES}, "
            f"got {streaming_mode!r}"
        )
    if streaming_mode == "rolling" and not fitted:
        raise ValueError(
            "streaming_mode='rolling' needs a fitted DataPipeline "
            "(extractor + selected feature names); duck-typed pipelines "
            "run streaming_mode='batch'"
        )
    return streaming_mode


@dataclass(frozen=True)
class StreamVerdict:
    """One online decision for one node."""

    job_id: int
    component_id: int
    window_end: float
    anomaly_score: float
    alert: bool
    #: consecutive over-threshold windows so far (including this one)
    streak: int


class _NodeState:
    """Ring-backed buffer + debounce for one node."""

    __slots__ = ("ring", "metric_names", "last_ts", "since_last_eval", "streak")

    def __init__(self, metric_names: tuple[str, ...]):
        self.metric_names = metric_names
        self.ring = NodeRingBuffer(len(metric_names))
        #: newest timestamp ever admitted — survives full eviction, so the
        #: out-of-order guard cannot be defeated by an idle gap
        self.last_ts = -np.inf
        self.since_last_eval = 0
        self.streak = 0


class StreamingDetector:
    """Sliding-window online scoring over a fitted deployment.

    Parameters
    ----------
    pipeline, detector:
        A fitted :class:`DataPipeline` and :class:`ProdigyDetector`.
    window_seconds:
        Telemetry span scored at each evaluation (must exceed the
        extractor's resampling needs; >= 60 s recommended).
    evaluate_every:
        New samples required between evaluations.
    consecutive_alerts:
        Over-threshold windows needed before ``alert`` turns on — debounces
        phase-boundary noise.
    lifecycle:
        Optional :class:`~repro.lifecycle.manager.LifecycleManager`.  Every
        evaluated window is fed to its drift monitor / healthy buffer /
        shadow harness, and a promoted candidate hot-swaps the detector
        in place (streaks reset; the window threshold becomes the new
        model's run-level threshold until :meth:`calibrate` is re-run).
    streaming_mode:
        ``None`` (the default) works the path out from *pipeline*:
        ``"rolling"`` for a fitted :class:`DataPipeline`, ``"batch"`` for
        a duck-typed one.  ``"batch"`` forces the oracle; ``"rolling"``
        requires a fitted :class:`DataPipeline`.
    """

    def __init__(
        self,
        pipeline: DataPipeline,
        detector: ProdigyDetector,
        *,
        window_seconds: float = 180.0,
        evaluate_every: int = 30,
        consecutive_alerts: int = 2,
        lifecycle=None,
        streaming_mode: str | None = None,
    ):
        if window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if evaluate_every < 1:
            raise ValueError("evaluate_every must be >= 1")
        if consecutive_alerts < 1:
            raise ValueError("consecutive_alerts must be >= 1")
        streaming_mode = resolve_streaming_mode(pipeline, streaming_mode)
        self.pipeline = pipeline
        self.detector = detector
        self.window_seconds = float(window_seconds)
        self.evaluate_every = int(evaluate_every)
        self.consecutive_alerts = int(consecutive_alerts)
        self.lifecycle = lifecycle
        self.streaming_mode = streaming_mode
        self._states: dict[tuple[int, int], _NodeState] = {}
        #: calculator calls rolling mode has made (one per calculator per group)
        self._calc_runs = 0
        #: window-level threshold; defaults to the detector's run-level one
        self.threshold_ = float(detector.threshold_)

    def attach_lifecycle(self, manager) -> None:
        """Attach a LifecycleManager after construction."""
        self.lifecycle = manager

    def calibrate(
        self, healthy_series: list[NodeSeries], *, percentile: float = 99.0
    ) -> float:
        """Set the window threshold from healthy telemetry streams.

        Windowed features follow a different distribution than full-run
        features (partial phase structure), so the run-level threshold is
        systematically tight.  Replaying healthy runs through the window
        pipeline and taking the score percentile — the streaming analogue of
        Sec. 3.3 — fixes that.

        Window bounds come from ``np.searchsorted`` over the (sorted)
        timestamps — O(T log T) over a replayed series instead of an O(T²)
        boolean mask per step.  The windows are extracted through the same
        pipeline call as :meth:`ingest_many` and scored in one detector
        call, whose rows are the bits one call per window gives, so
        calibration runs the feature and scoring path the stream runs.
        """
        windows: list[NodeSeries] = []
        step = self.evaluate_every
        for series in healthy_series:
            ts = series.timestamps
            for end in range(step, series.n_timestamps + 1, step):
                start_t = ts[end - 1] - self.window_seconds
                lo = int(np.searchsorted(ts[:end], start_t, side="left"))
                if end - lo < 8:
                    continue
                window = NodeSeries(
                    series.job_id,
                    series.component_id,
                    ts[lo:end],
                    series.values[lo:end],
                    series.metric_names,
                )
                if window.duration >= self.window_seconds * 0.5:
                    windows.append(window)
        if not windows:
            raise ValueError("no healthy windows long enough to calibrate on")
        scores = self.detector.anomaly_score(self._features(windows))
        self.threshold_ = float(np.percentile(scores, percentile))
        return self.threshold_

    def ingest(self, chunk: NodeSeries) -> StreamVerdict | None:
        """Feed a telemetry chunk for one node; returns a verdict when due.

        Chunks must arrive in time order per (job, node).  ``None`` means
        "not enough new data yet".  This is :meth:`ingest_many` of one chunk.
        """
        verdicts = self.ingest_many([chunk])
        return verdicts[0] if verdicts else None

    def ingest_many(self, chunks: list[NodeSeries]) -> list[StreamVerdict]:
        """Micro-batched ingest: one verdict per due window, in chunk order.

        All chunks are buffered first; each due window is a snapshot of its
        node's ring, so later chunks of the same node cannot change it.
        The due windows then go through one pipeline call, which extracts
        them per (length after resampling, metric names) group — rolling
        mode runs the group's plan once, batch mode one full-extraction
        block — so concurrently-reporting nodes share one context per group
        instead of one per window.  Their rows are scored in one detector
        call; a row's score is the same bits alone as in any batch
        (:meth:`VAE.reconstruction_error <repro.core.vae.VAE.reconstruction_error>`),
        so this equals one call per window.  Verdicts (streaks, lifecycle
        observation) are then emitted sequentially in arrival order, as
        one chunk per call would; if a lifecycle promotion hot-swaps the
        detector at window k, the batch's later windows are rescored by
        the new model in one call, matching sequential semantics (their
        already-extracted features are model-independent).
        """
        pending = [p for p in map(self._buffer_chunk, chunks) if p is not None]
        if not pending:
            return []
        inst = self._instrumentation()
        if inst is not None:
            inst.count("microbatch_batches", 1)
            inst.count("microbatch_windows", len(pending))
        rows = self._features([window for _, window in pending])
        scores = self.detector.anomaly_score(rows)
        verdicts = []
        for k, (key, window) in enumerate(pending):
            detector = self.detector
            verdicts.append(self._emit_verdict(key, window, rows[k], float(scores[k])))
            if self.detector is not detector and k + 1 < len(pending):
                rescored = self.detector.anomaly_score(rows[k + 1 :])
                scores = np.concatenate((scores[: k + 1], rescored))
        return verdicts

    def _features(self, windows: list[NodeSeries]) -> np.ndarray:
        """Scaled feature rows ``(W, F)`` of *windows*, in one pipeline call.

        Rolling mode runs the pipeline's transform (the plan); batch mode
        its full-extraction oracle, or ``transform_series`` of a duck-typed
        pipeline.  The stream counters count this call only, not the
        pipeline's other callers (dashboards share it).
        """
        inst = self._instrumentation()
        if inst is not None:
            inst.count("stream_evaluations", len(windows))
        if self.streaming_mode == "batch":
            if not _is_fitted(self.pipeline):
                return self.pipeline.transform_series(windows)
            return self.pipeline.transform_series_full(windows)[0]
        before = self.pipeline.calc_runs
        with inst.stage("stream:rolling") if inst is not None else nullcontext():
            rows = self.pipeline.transform_series(windows)
        runs = self.pipeline.calc_runs - before
        self._calc_runs += runs
        if inst is not None and runs:
            inst.count("rolling_fallback_calcs", runs)
        return rows

    def _buffer_chunk(
        self, chunk: NodeSeries
    ) -> tuple[tuple[int, int], NodeSeries] | None:
        """Buffer one chunk; return ``(key, window)`` when evaluation is due.

        The ring is trimmed to the window span here, on *every* chunk —
        not lazily at evaluation time — so a node whose windows never come
        due (sparse sampling, short duration) holds bounded memory.  Rows
        can only age out, never age back in, so the evaluation window is
        identical to the lazily-trimmed one.
        """
        key = (chunk.job_id, chunk.component_id)
        if chunk.n_timestamps == 0:
            raise ValueError(f"empty chunk for node {key}")
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _NodeState(chunk.metric_names)
        if chunk.metric_names != state.metric_names:
            raise ValueError(
                f"chunk for node {key} has metrics {chunk.metric_names}, "
                f"buffer was created with {state.metric_names}"
            )
        if chunk.timestamps[0] <= state.last_ts:
            raise ValueError(f"out-of-order chunk for node {key}")
        state.last_ts = float(chunk.timestamps[-1])

        ring = state.ring
        ring.append(chunk.timestamps, chunk.values)
        evicted = ring.evict_before(state.last_ts - self.window_seconds)
        inst = self._instrumentation()
        if evicted and inst is not None:
            inst.count("ring_evictions", evicted)

        state.since_last_eval += chunk.n_timestamps
        if state.since_last_eval < self.evaluate_every:
            return None
        if ring.size < 8:  # not enough context to extract meaningfully
            return None
        if ring.duration < self.window_seconds * 0.5:
            return None
        state.since_last_eval = 0
        ts, vals = ring.window()
        # The ring holds validated chunks in time order: nothing to re-check.
        return key, NodeSeries._trusted(key[0], key[1], ts, vals, state.metric_names)

    def _emit_verdict(
        self,
        key: tuple[int, int],
        window: NodeSeries,
        features: np.ndarray,
        score: float,
    ) -> StreamVerdict:
        """Streak bookkeeping, lifecycle observation, and verdict assembly.

        *features* is the window's scaled feature row ``(F,)``.
        """
        state = self._states[key]
        over = score > self.threshold_
        state.streak = state.streak + 1 if over else 0
        verdict = StreamVerdict(
            job_id=key[0],
            component_id=key[1],
            window_end=float(window.timestamps[-1]),
            anomaly_score=score,
            alert=state.streak >= self.consecutive_alerts,
            streak=state.streak,
        )
        if self.lifecycle is not None:
            promoted = self.lifecycle.observe_window(
                window, features, score,
                alert=verdict.alert, active_detector=self.detector,
            )
            if promoted is not None:
                self._swap_detector(promoted)
        return verdict

    def _swap_detector(self, detector: ProdigyDetector) -> None:
        """Hot-swap in a promoted model; alert streaks start clean.

        The rings and the pipeline's plans are feature-level, independent
        of the detector, so they carry straight across a swap.
        """
        self.detector = detector
        self.threshold_ = float(detector.threshold_)
        for state in self._states.values():
            state.streak = 0

    def _instrumentation(self):
        """The pipeline engine's registry, or None for an engine-less pipeline."""
        engine = getattr(self.pipeline, "engine", None)
        return None if engine is None else engine.instrumentation

    def runtime_stats(self) -> dict:
        """Runtime snapshot of the extraction engine plus buffer occupancy."""
        engine = getattr(self.pipeline, "engine", None)
        stats = engine.stats() if engine is not None else {}
        stats["streaming_mode"] = self.streaming_mode
        stats["buffered_samples"] = {
            f"{job}:{comp}": state.ring.size
            for (job, comp), state in sorted(self._states.items())
        }
        if self.streaming_mode == "rolling":
            stats["rolling"] = {
                "evictions": sum(s.ring.total_evicted for s in self._states.values()),
                "fallback_calc_runs": self._calc_runs,
            }
        if self.lifecycle is not None:
            stats["lifecycle"] = {
                "monitor": self.lifecycle.monitor.summary(),
                "shadow": (
                    self.lifecycle.shadow.summary()
                    if self.lifecycle.shadow is not None else None
                ),
                "drift_events": len(self.lifecycle.drift_events),
            }
        return stats

    def reset(self, job_id: int, component_id: int) -> None:
        """Forget a node's buffered telemetry (job ended / node reassigned)."""
        self._states.pop((job_id, component_id), None)

    @property
    def n_tracked(self) -> int:
        """How many nodes have buffered state: ``len(tracked_nodes())``
        without building and sorting the list."""
        return len(self._states)

    def tracked_nodes(self) -> list[tuple[int, int]]:
        """Node keys with buffered state, deterministically sorted.

        The fleet router and cluster rollup iterate this to enumerate a
        shard's nodes; sorted output keeps rebalance moves, status
        payloads, and test expectations independent of ingest order.
        """
        return sorted(self._states)
