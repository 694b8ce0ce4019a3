"""The two measured deployment loops.

``wide-ingest`` is a closed loop on the real clock: the coordinator appends
each chunk's raw sampler rows to the store, submits the chunk to its one
process worker, pumps, and keeps pumping while the owner queue sits at its
high watermark.  Every few chunks it also serves one batch drill-down of a
finished job through the gateway, on the core the worker leaves idle.

``ops-mixed`` is an open loop on a virtual clock: chunks and dashboard
requests are processed in due-time order on one thread, each started at
``max(clock, due)`` and charged its measured wall time, so every store query
sees the same store state on every run while latencies carry real service
times plus the queueing those times cause.

Both loops time latencies from steady state on: chunks after the rounds
that fill every node's ring, and requests after the response cache has
seen each watched job once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from inputs import WIDE_DRILLDOWN_EVERY, Inputs
from spans import Tracer

#: Sleep between pumps while the owner queue sits at its high watermark.
BACKPRESSURE_POLL_S = 0.0005
#: A drain that collects nothing for this long means the fleet is wedged.
DRAIN_TIMEOUT_S = 60.0


@dataclass
class LoopResult:
    wall_s: float
    cpu_s: float
    verdicts: list = field(default_factory=list)
    verdict_latency_s: list[float] = field(default_factory=list)
    #: (request, response) in service order
    responses: list = field(default_factory=list)
    dashboard_latency_s: list[float] = field(default_factory=list)
    submitted: int = 0
    #: from the verdict of the last ring-filling chunk to the last verdict
    steady_s: float = 0.0
    busy_s: float = 0.0
    span_s: float = 0.0
    lateness_s: list[float] = field(default_factory=list)
    backpressure_wait_s: float = 0.0


def _window_key(v) -> tuple:
    return (v.job_id, v.component_id, v.window_end)


def _chunk_key(chunk) -> tuple:
    s = chunk.series
    return (s.job_id, s.component_id, float(s.timestamps[-1]))


def _steady_key(inputs: Inputs) -> tuple:
    """The last chunk of the ring-filling rounds: its verdict starts steady state."""
    return _chunk_key(inputs.chunks[inputs.steady_seq - 1])


def _serve(gateway, request, submitted: float, now: float) -> list[dict]:
    """Admit one request at *submitted* and serve the queue at *now*."""
    outcome = gateway.submit(
        request.tenant, request.dashboard, request.job_id, now=submitted, **request.params
    )
    return [outcome] if isinstance(outcome, dict) else gateway.pump(now=now)


def run_wide(dep, inputs: Inputs, tracer: Tracer) -> LoopResult:
    fleet, store, gateway = dep.fleet, dep.store_view, dep.gateway
    (owner,) = fleet.workers.values()
    span = tracer.span
    steady_key = _steady_key(inputs)
    submitted_at: dict[tuple, float] = {}
    out = LoopResult(0.0, 0.0)
    t_steady = t_last = 0.0

    def collect(batch) -> None:
        nonlocal t_steady, t_last
        now = time.perf_counter()
        for v in batch:
            key = _window_key(v)
            submitted = submitted_at.pop(key, None)
            if submitted is not None:
                out.verdict_latency_s.append(now - submitted)
            out.verdicts.append(v)
            if key == steady_key:
                t_steady = now
        if batch:
            t_last = now

    def pump() -> list:
        with span("fleet.pump"):
            batch = fleet.pump()
        collect(batch)
        return batch

    requests = iter(inputs.requests)
    cpu0, start = time.process_time(), time.perf_counter()
    for i, chunk in enumerate(inputs.chunks, 1):
        for sampler, frame in chunk.raw:
            store.ingest(sampler, frame)
        # Closed loop: a chunk is due the moment the loop can submit it.
        if chunk.seq >= inputs.steady_seq:
            submitted_at[_chunk_key(chunk)] = time.perf_counter()
        with span("fleet.submit"):
            fleet.submit(chunk.series)
        out.submitted += 1
        pump()
        if owner.queue_depth >= fleet.high_watermark:
            wait0 = time.perf_counter()
            with span("fleet.backpressure"):
                while owner.queue_depth >= fleet.high_watermark:
                    time.sleep(BACKPRESSURE_POLL_S)
                    pump()
            out.backpressure_wait_s += time.perf_counter() - wait0
        if i % WIDE_DRILLDOWN_EVERY == 0:
            request = next(requests)
            due = time.perf_counter()
            with span("gateway.pump"):
                responses = _serve(gateway, request, due, due)
            if chunk.seq >= inputs.steady_seq:
                out.dashboard_latency_s.append(time.perf_counter() - due)
            out.responses.extend((request, r) for r in responses)
    # Drain until nothing is staged, in flight, or published but uncollected.
    deadline = time.perf_counter() + DRAIN_TIMEOUT_S
    wait0 = time.perf_counter()
    with span("fleet.backpressure"):
        while owner.busy():
            if pump():
                deadline = time.perf_counter() + DRAIN_TIMEOUT_S
            elif time.perf_counter() > deadline:
                raise RuntimeError("fleet stopped returning verdicts while draining")
            else:
                time.sleep(BACKPRESSURE_POLL_S)
    out.backpressure_wait_s += time.perf_counter() - wait0
    out.wall_s = time.perf_counter() - start
    out.cpu_s = time.process_time() - cpu0
    out.steady_s = t_last - t_steady
    out.busy_s = out.span_s = out.wall_s
    return out


def run_ops(dep, inputs: Inputs, tracer: Tracer) -> LoopResult:
    fleet, store, gateway = dep.fleet, dep.store_view, dep.gateway
    span = tracer.span
    steady_key = _steady_key(inputs)
    events = sorted(
        [(c.due, 0, c.seq, c) for c in inputs.chunks]
        + [(r.due, 1, r.seq, r) for r in inputs.requests],
        key=lambda e: e[:3],
    )
    out = LoopResult(0.0, 0.0)
    clock = 0.0
    t_steady = t_last = 0.0
    cpu0, start = time.process_time(), time.perf_counter()
    for due, kind, _, event in events:
        begin = max(clock, due)
        out.lateness_s.append(begin - due)
        t0 = time.perf_counter()
        if kind == 0:
            for sampler, frame in event.raw:
                store.ingest(sampler, frame)
            with span("fleet.submit"):
                fleet.submit(event.series)
            out.submitted += 1
            with span("fleet.pump"):
                batch = fleet.pump()
        else:
            with span("gateway.pump"):
                responses = _serve(gateway, event, due, begin)
        elapsed = time.perf_counter() - t0
        clock = begin + elapsed
        out.busy_s += elapsed
        steady = due >= inputs.warm_s
        if kind == 0:
            # The chunk just submitted completes every window this pump returns.
            for v in batch:
                out.verdicts.append(v)
                if steady:
                    out.verdict_latency_s.append(clock - due)
                if _window_key(v) == steady_key:
                    t_steady = clock
            if batch:
                t_last = clock
        else:
            for response in responses:
                out.responses.append((event, response))
                if steady:
                    out.dashboard_latency_s.append(clock - due)
    out.wall_s = time.perf_counter() - start
    out.cpu_s = time.process_time() - cpu0
    out.steady_s = t_last - t_steady
    out.span_s = clock
    return out


LOOPS = {"wide-ingest": run_wide, "ops-mixed": run_ops}
