"""Analytics service (paper Figs. 2 & 4).

In production a Grafana dashboard posts a job id to a Django backend, which
calls the analysis modules against DSOS and renders the results.  This
module reproduces that request flow in-process: the
:class:`AnalyticsService` is the "backend", dashboards are methods keyed by
name, and responses are plain dicts (what the HTTP layer would serialise).
"""

from __future__ import annotations

from typing import Any

from repro.explain.comte import OptimizedSearch
from repro.pipeline.datagenerator import DataGenerator
from repro.pipeline.detector_service import AnomalyDetectorService
from repro.serving.errors import ServingError, UnknownDashboardError, error_envelope
from repro.telemetry.frame import NodeSeries

__all__ = ["AnalyticsService"]


class AnalyticsService:
    """Job- and node-level analysis endpoints over a deployed detector.

    Parameters
    ----------
    detector_service:
        The online detection pipeline.
    healthy_references:
        Healthy training-series pool used as CoMTE distractors.
    lifecycle:
        Optional :class:`~repro.lifecycle.manager.LifecycleManager`; when
        given (or when the detector service carries one), the
        ``lifecycle`` dashboard reports registry versions, drift-monitor
        state, shadow progress, and the audit-log tail.
    fleet:
        Optional :class:`~repro.fleet.coordinator.FleetCoordinator`; when
        attached, the ``fleet`` dashboard reports worker health, shed and
        backpressure totals, per-shard drain timings, and the cluster
        rollup.
    history:
        Optional :class:`~repro.hist.store.HistStore`; when attached, the
        ``history`` dashboard serves segment/tier layout stats and
        downsampled per-metric window rollups straight from the columnar
        store (no per-node re-extraction).
    """

    def __init__(
        self,
        detector_service: AnomalyDetectorService,
        healthy_references: list[NodeSeries] | None = None,
        *,
        lifecycle=None,
        fleet=None,
        history=None,
    ):
        self.detector_service = detector_service
        self.healthy_references = list(healthy_references or [])
        self.lifecycle = lifecycle if lifecycle is not None else getattr(
            detector_service, "lifecycle", None
        )
        self.fleet = fleet
        self.history = history
        self._dashboards = {
            "anomaly_detection": self.anomaly_detection_dashboard,
            "node_analysis": self.node_analysis_dashboard,
            "lifecycle": self.lifecycle_dashboard,
            "fleet": self.fleet_dashboard,
            "history": self.history_dashboard,
        }

    @property
    def data_generator(self) -> DataGenerator:
        return self.detector_service.data_generator

    def register_dashboard(self, name: str, handler) -> None:
        """Attach an extra dashboard (the gateway adds its ``slo`` panel here)."""
        self._dashboards[name] = handler

    @property
    def dashboards(self) -> tuple[str, ...]:
        return tuple(sorted(self._dashboards))

    # -- request entry point (the "Django view") --------------------------------

    def handle_request(self, job_id: int, dashboard: str, **params: Any) -> dict[str, Any]:
        """Dispatch a dashboard request, like the backend routing a view."""
        try:
            handler = self._dashboards[dashboard]
        except KeyError:
            raise UnknownDashboardError(
                "unknown_dashboard",
                f"unknown dashboard {dashboard!r}; available: {sorted(self._dashboards)}",
                available=self._dashboards,
            ) from None
        return handler(job_id, **params)

    # -- dashboards ----------------------------------------------------------------

    def anomaly_detection_dashboard(
        self, job_id: int, *, explain: bool = False, max_explanations: int = 2
    ) -> dict[str, Any]:
        """Per-node predictions, optionally with CoMTE explanations."""
        predictions = self.detector_service.predict_job(job_id)
        result: dict[str, Any] = {
            "job_id": job_id,
            "n_nodes": len(predictions),
            "n_anomalous": sum(p.prediction for p in predictions),
            "nodes": [
                {
                    "component_id": p.component_id,
                    "prediction": "anomalous" if p.prediction else "healthy",
                    "anomaly_score": p.anomaly_score,
                    "threshold": p.threshold,
                }
                for p in predictions
            ],
        }
        if explain:
            result["explanations"] = self._explain_anomalies(job_id, predictions, max_explanations)
        return result

    def node_analysis_dashboard(
        self, job_id: int, *, component_id: int | None = None, metrics: list[str] | None = None
    ) -> dict[str, Any]:
        """Raw metric statistics per node (the "CPU usage dashboard" style)."""
        series = self.data_generator.job_series(job_id)
        if component_id is not None:
            available = [s.component_id for s in series]
            series = [s for s in series if s.component_id == component_id]
            if not series:
                raise ServingError(
                    "unknown_component",
                    f"component {component_id} not in job {job_id}; "
                    f"available: {sorted(available)}",
                    available=available,
                )
        if metrics is not None:
            # Validate up front so a typo'd metric name surfaces as a
            # structured error naming the job, component, and choices —
            # not a raw exception from NodeSeries.metric mid-render.
            for s in series:
                unknown = [m for m in metrics if m not in s.metric_names]
                if unknown:
                    choices = sorted(s.metric_names)
                    shown = choices[:12]
                    more = len(choices) - len(shown)
                    listing = ", ".join(shown) + (f", ... (+{more} more)" if more else "")
                    raise ServingError(
                        "unknown_metric",
                        f"unknown metric(s) {sorted(unknown)} for job {job_id} "
                        f"component {s.component_id}; available: {listing}",
                        available=s.metric_names,
                    )
        nodes = []
        for s in series:
            chosen = metrics if metrics is not None else list(s.metric_names[:5])
            nodes.append(
                {
                    "component_id": s.component_id,
                    "duration_s": s.duration,
                    "metrics": {
                        name: {
                            "mean": float(s.metric(name).mean()),
                            "min": float(s.metric(name).min()),
                            "max": float(s.metric(name).max()),
                        }
                        for name in chosen
                    },
                }
            )
        return {"job_id": job_id, "nodes": nodes}

    def lifecycle_dashboard(self, job_id: int | None = None, **_: Any) -> dict[str, Any]:
        """Model-operations panel: versions, drift, shadow, audit tail.

        ``job_id`` is accepted (the request entry point always passes one)
        but irrelevant — lifecycle state is per-deployment, not per-job.
        """
        if self.lifecycle is None:
            return error_envelope(
                "lifecycle_unavailable", "no lifecycle manager configured"
            )
        return self.lifecycle.status()

    def fleet_dashboard(self, job_id: int | None = None, **_: Any) -> dict[str, Any]:
        """Fleet panel: worker health, shed totals, shard timings, rollup.

        Like :meth:`lifecycle_dashboard`, ``job_id`` is accepted but
        irrelevant — fleet state spans every job the workers score.
        """
        if self.fleet is None:
            return error_envelope(
                "fleet_unavailable", "no fleet coordinator configured"
            )
        return self.fleet.status()

    def history_dashboard(
        self,
        job_id: int | None = None,
        *,
        tier: str = "1min",
        t0: float | None = None,
        t1: float | None = None,
        **_: Any,
    ) -> dict[str, Any]:
        """Historical-store panel: segment layout + windowed metric rollup.

        Rollups come from the downsampled retention tiers, so a
        month-of-history panel costs a few segment scans, not a raw
        re-read.  ``job_id`` is accepted but irrelevant — the store spans
        every job.
        """
        if self.history is None:
            return error_envelope(
                "history_unavailable", "no historical store configured"
            )
        from repro.hist.feeds import dashboard_rollup

        return {
            "store": self.history.stats(),
            "rollup": dashboard_rollup(self.history, tier=tier, t0=t0, t1=t1),
        }

    # -- explanations -----------------------------------------------------------------

    def _explain_anomalies(self, job_id, predictions, max_explanations: int) -> list[dict]:
        if not self.healthy_references:
            return [error_envelope(
                "no_healthy_references", "no healthy reference series configured"
            )]
        search = OptimizedSearch(
            self.detector_service.as_series_classifier(),
            self.healthy_references,
            max_metrics=8,
        )
        out = []
        anomalous = [p for p in predictions if p.is_anomalous][:max_explanations]
        for pred in anomalous:
            sample = self.data_generator.node_series(job_id, pred.component_id)
            cf = search.explain(sample)
            out.append(
                {
                    "component_id": pred.component_id,
                    "metrics": list(cf.metrics),
                    "p_anomalous_before": cf.p_anomalous_before,
                    "p_anomalous_after": cf.p_anomalous_after,
                    "flipped": cf.flipped,
                    "distractor_job_id": cf.distractor_job_id,
                }
            )
        return out
