"""The serve driver: a virtual-time loop over arrivals, queue and batcher.

:class:`ServeSimulation` wires the pieces together around one frozen
:class:`~repro.serve.spec.ServeSpec`: it draws requests from the arrival
process (open-loop schedules precomputed, closed-loop clients issuing as
their completions land), walks a virtual clock over arrival / completion /
coalesce-deadline events, admits or sheds each arrival through the
:class:`~repro.serve.queue.AdmissionContext`, dispatches batches while the
concurrency limit allows, lets an optional
:class:`~repro.serve.scale.ScalePolicy` resize the virtual cluster between
dispatches, and aggregates everything into a frozen
:class:`~repro.results.ServeResult`.  Everything runs in virtual time and is
fully deterministic: two runs with the same session and spec produce
byte-identical results.

:func:`run_serve` is the functional entry point behind
:meth:`repro.api.Session.serve` and the ``repro serve`` CLI subcommand.
"""

from __future__ import annotations

import heapq
from pathlib import Path
from typing import Any

from repro.api import DEFAULT_COMPARISON, Session
from repro.dynamics.recovery import scale_session
from repro.obs.core import Telemetry, as_telemetry
from repro.obs.sketch import LatencySketch, WindowedRate
from repro.results import ServeResult
from repro.serve.arrivals import ClosedLoopClient, Request
from repro.serve.batcher import Batcher, ExecutionBatch
from repro.serve.metrics import QueueDepthTracker, request_counters
from repro.serve.queue import AdmissionContext, RequestQueue
from repro.serve.scale import ScaleContext
from repro.serve.spec import ServeSpec

_INF = float("inf")


class ServeSimulation:
    """One serving run over a :class:`~repro.api.Session`.

    Built from a :class:`ServeSpec` (the primary form) or from the legacy
    keyword knobs, which are packaged into a spec internally.  After
    :meth:`run`, :attr:`requests` holds every request with its
    arrival/start/finish stamps and :attr:`executions` the dispatched
    batches — the raw material tests and tools can audit (no request starts
    before it arrives, concurrent executions never exceed the limit...).
    """

    def __init__(
        self,
        session: Session,
        mix: Any = None,
        *,
        spec: ServeSpec | None = None,
        telemetry: "Telemetry | str | Path | None" = None,
        **knobs: Any,
    ):
        if spec is not None:
            if mix is not None or knobs:
                raise ValueError(
                    "pass either a ServeSpec or individual knobs, not both"
                )
        else:
            spec = ServeSpec(mix=mix, **knobs)
        self.spec = spec
        self.session = session
        # Telemetry is observational, never part of the spec identity.
        self.telemetry = as_telemetry(telemetry)
        self.mix = spec.resolved_mix(DEFAULT_COMPARISON)
        self.arrival = spec.build_arrival()
        self.duration_s = float(spec.duration_s)
        self.slo_s = spec.slo_s
        self.coalesce_s = spec.coalesce_s
        self.queue = RequestQueue(spec.build_admission(), concurrency=spec.concurrency)
        self.batcher = Batcher(
            session,
            max_batch=spec.max_batch,
            cache=spec.cache,
            cache_hit_cost_s=spec.cache_hit_cost_s,
            telemetry=self.telemetry,
        )
        # Validate every cell up front (unknown strategies, bad overrides)
        # so configuration errors surface before any simulation runs.
        for cell in self.mix.cells:
            self.batcher.point_for(cell)
        self.scale_policy = spec.build_scale_policy()
        self._gpus_per_node = session.cluster.gpus_per_node
        self._nodes = session.config.num_nodes
        self._ladder = self._capacity_ladder()
        self._rung = self._ladder.index(self._nodes)
        self._last_scale_s = -_INF
        self.capacity_timeline: list[tuple[float, int]] = (
            [(0.0, self._nodes * self._gpus_per_node)]
            if self.scale_policy is not None
            else []
        )
        self.scale_up_count = 0
        self.scale_down_count = 0
        self.shed_count = 0
        self.requests: list[Request] = list(
            self.arrival.schedule(self.mix, self.duration_s, seed=session.config.seed)
        )
        self._clients: dict[int, ClosedLoopClient] = {}
        if getattr(self.arrival, "closed_loop", False):
            self._clients = {
                client.cid: client
                for client in self.arrival.clients(self.mix, seed=session.config.seed)
            }
        self.executions: list[ExecutionBatch] = []
        self._result: ServeResult | None = None

    # -- capacity ----------------------------------------------------------------

    def _capacity_ladder(self) -> list[int]:
        """The node counts autoscaling may visit: doublings of the minimum.

        Capacity moves on a doubling ladder (min, 2*min, 4*min, ... capped at
        ``max_gpus``) rather than node-by-node: token budgets divide the
        context evenly on power-of-two multiples of a feasible base, and the
        ladder mirrors how real clusters scale in instance-sized steps.
        """
        spec = self.spec
        gpn = self._gpus_per_node
        base_gpus = self.session.config.num_gpus
        if self.scale_policy is None:
            return [self._nodes]
        min_gpus = spec.min_gpus if spec.min_gpus is not None else base_gpus
        max_gpus = spec.max_gpus if spec.max_gpus is not None else base_gpus
        for label, gpus in (("min_gpus", min_gpus), ("max_gpus", max_gpus)):
            if gpus % gpn != 0:
                raise ValueError(
                    f"{label} {gpus} must be a multiple of the cluster's "
                    f"{gpn} GPUs per node"
                )
        if not min_gpus <= base_gpus <= max_gpus:
            raise ValueError(
                f"the session's {base_gpus} GPUs must lie within the autoscale "
                f"bounds [{min_gpus}, {max_gpus}]"
            )
        ladder = [min_gpus // gpn]
        while ladder[-1] * 2 * gpn <= max_gpus:
            ladder.append(ladder[-1] * 2)
        if self._nodes not in ladder:
            rungs = [n * gpn for n in ladder]
            raise ValueError(
                f"the session's {base_gpus} GPUs must sit on the autoscale "
                f"capacity ladder {rungs} (doublings of min_gpus={min_gpus})"
            )
        return ladder

    def _maybe_scale(
        self,
        now: float,
        in_flight: int,
        sketch: LatencySketch,
        completion_rate: WindowedRate,
    ) -> None:
        """Consult the scale policy and apply at most one ladder step."""
        policy = self.scale_policy
        if policy is None or len(self._ladder) == 1:
            return
        since = now - self._last_scale_s
        if since < policy.cooldown_s:
            return
        ctx = ScaleContext(
            now_s=now,
            nodes=self._nodes,
            min_nodes=self._ladder[0],
            max_nodes=self._ladder[-1],
            gpus_per_node=self._gpus_per_node,
            queue_depth=self.queue.depth,
            in_flight=in_flight,
            concurrency=self.queue.concurrency,
            slo_s=self.slo_s,
            latency=sketch,
            completion_rate=completion_rate,
            time_since_scale_s=since,
        )
        target = int(policy.decide(ctx))
        if target == self._nodes:
            return
        # One ladder rung per decision: capacity moves in auditable doubling
        # steps, and the cooldown paces how fast a policy can ramp.
        grew = target > self._nodes
        rung = self._rung + (1 if grew else -1)
        if rung < 0 or rung >= len(self._ladder):
            return
        nodes = self._ladder[rung]
        scaled = scale_session(self.session, nodes)
        self.batcher.rescale(scaled.config)
        self._rung = rung
        self._nodes = nodes
        self._last_scale_s = now
        gpus = nodes * self._gpus_per_node
        self.capacity_timeline.append((round(now, 6), gpus))
        if grew:
            self.scale_up_count += 1
        else:
            self.scale_down_count += 1
        if self.telemetry.enabled:
            self.telemetry.event(
                "scale_up" if grew else "scale_down", vt=round(now, 6), gpus=gpus
            )

    # -- admission and closed-loop issuance ---------------------------------------

    def _admission_context(
        self,
        now: float,
        in_flight: int,
        sketch: LatencySketch,
        completion_rate: WindowedRate,
    ) -> AdmissionContext:
        # Queued work walks the queue, so it is computed only if the policy
        # reads it; the offer that consumes this context reads it (if at
        # all) before the request is pushed, so it sees this queue state.
        return AdmissionContext(
            now_s=now,
            queue_depth=self.queue.depth,
            in_flight=in_flight,
            concurrency=self.queue.concurrency,
            slo_s=self.slo_s,
            latency=sketch,
            completion_rate=completion_rate,
            cost_estimate=self.batcher.cost_estimate,
            queued_work=self._queued_work_s,
        )

    def _queued_work_s(self) -> float:
        return self.queue.queued_work_s(self.batcher.cost_estimate)

    def _reissue(self, request: Request, now: float, pending: list) -> None:
        """Issue the closed-loop client's next request after this one ends."""
        client = self._clients.get(request.client) if request.client is not None else None
        if client is None:
            return
        nxt = client.issue(now, len(self.requests))
        if nxt.arrival_s >= self.duration_s:
            return
        self.requests.append(nxt)
        heapq.heappush(pending, (nxt.arrival_s, nxt.rid, nxt))

    # -- the event loop ----------------------------------------------------------

    def _hold_until(self, head: Request) -> float:
        """Latest virtual time dispatch of ``head`` may be delayed to coalesce.

        The coalescing window is capped by the head's deadline slack: with an
        SLO and a known cell cost, holding longer than ``slo_s - cost`` would
        turn a meetable request into a miss, so the deadline wins over the
        window.
        """
        window = self.coalesce_s
        if self.slo_s is not None:
            cost = self.batcher.cost_estimate(head.cell)
            if cost is not None:
                window = min(window, max(0.0, self.slo_s - cost))
        return head.arrival_s + window

    def run(self) -> ServeResult:
        """Simulate the run to completion (idempotent) and return the result.

        Arrivals stop at the duration horizon; the queue then drains, so
        every admitted request completes and has a defined latency.
        """
        if self._result is not None:
            return self._result
        tele = self.telemetry
        tracker = QueueDepthTracker()
        # Latency accounting is streaming: a bounded sketch and a windowed
        # completion rate, fed as batches finish — state stays O(1) no
        # matter how many requests the run serves.
        sketch = LatencySketch()
        completion_rate = WindowedRate()
        good = 0
        in_flight: list[tuple[float, int, ExecutionBatch]] = []
        pending: list[tuple[float, int, Request]] = []
        for request in self.requests:
            heapq.heappush(pending, (request.arrival_s, request.rid, request))
        for client in self._clients.values():
            first = client.issue(0.0, len(self.requests))
            if first.arrival_s >= self.duration_s:
                continue
            self.requests.append(first)
            heapq.heappush(pending, (first.arrival_s, first.rid, first))
        seq = 0
        now = 0.0
        while True:
            self._maybe_scale(now, len(in_flight), sketch, completion_rate)
            # Dispatch while a slot is free and requests are queued — unless
            # the head is worth holding to coalesce a larger batch.
            hold_timer = _INF
            while self.queue.can_dispatch(len(in_flight)):
                head = self.queue.peek()
                if self.coalesce_s > 0:
                    hold_until = self._hold_until(head)
                    if (
                        now < hold_until
                        and self.queue.count_matching(head.cell) < self.batcher.max_batch
                    ):
                        hold_timer = hold_until
                        break
                head = self.queue.pop()
                batch = self.batcher.execute(self.batcher.collect(self.queue, head), now)
                heapq.heappush(in_flight, (batch.finish_s, seq, batch))
                seq += 1
                self.executions.append(batch)
                tracker.sample(now, self.queue.depth)
                if tele.enabled:
                    for request in batch.requests:
                        tele.event(
                            "request_dispatch",
                            request=request.rid,
                            vt=round(now, 6),
                            batch_size=batch.size,
                            served_by=request.served_by,
                        )
            next_arrival = pending[0][0] if pending else _INF
            next_finish = in_flight[0][0] if in_flight else _INF
            if next_arrival == _INF and next_finish == _INF and hold_timer == _INF:
                break
            if next_arrival <= next_finish and next_arrival <= hold_timer:
                now = next_arrival
                _, _, request = heapq.heappop(pending)
                ctx = self._admission_context(now, len(in_flight), sketch, completion_rate)
                if self.queue.offer(request, ctx):
                    if tele.enabled:
                        tele.event(
                            "request_enqueue", request=request.rid, vt=round(now, 6)
                        )
                else:
                    request.served_by = "shed"
                    self.shed_count += 1
                    if tele.enabled:
                        tele.event("request_shed", request=request.rid, vt=round(now, 6))
                    # A closed-loop user whose request was shed comes back
                    # after a think time, like any other completion.
                    self._reissue(request, now, pending)
            elif next_finish <= hold_timer:
                now = next_finish
                _, _, batch = heapq.heappop(in_flight)
                for request in batch.requests:
                    latency = request.latency_s
                    sketch.add(latency)
                    completion_rate.add(now)
                    if self.slo_s is None or latency <= self.slo_s:
                        good += 1
                    if tele.enabled:
                        tele.event(
                            "request_complete",
                            request=request.rid,
                            vt=round(now, 6),
                            latency_s=round(latency, 6),
                        )
                    self._reissue(request, now, pending)
            else:
                # Coalesce deadline: advance to it and re-enter dispatch.
                now = hold_timer
            tracker.sample(now, self.queue.depth)
        if tele.enabled:
            tele.counter("serve_requests_completed", sketch.count)
            tele.gauge("serve_completion_rps", round(completion_rate.rate(now), 6))
            if self.shed_count:
                tele.counter("serve_requests_shed", self.shed_count)
        self._result = self._build_result(now, tracker, sketch, good)
        return self._result

    # -- aggregation -------------------------------------------------------------

    def _build_result(
        self,
        end_s: float,
        tracker: QueueDepthTracker,
        sketch: LatencySketch,
        good: int,
    ) -> ServeResult:
        makespan_s = max(self.duration_s, end_s)
        counters = request_counters(self.requests)
        summary = sketch.summary()
        spec = self.spec
        return ServeResult(
            arrival=self.arrival.name,
            admission=self.queue.admission.name,
            concurrency=self.queue.concurrency,
            max_batch=self.batcher.max_batch,
            seed=self.session.config.seed,
            duration_s=round(self.duration_s, 6),
            makespan_s=round(makespan_s, 6),
            num_requests=len(self.requests),
            completed=counters["completed"],
            simulations=self.batcher.simulations_executed,
            batched_requests=counters["batched_requests"],
            cache_hits=counters["cache_hits"],
            cache_hit_rate=round(counters["cache_hit_rate"], 6),
            offered_rps=round(len(self.requests) / self.duration_s, 6),
            throughput_rps=round(counters["completed"] / makespan_s, 6),
            goodput_rps=round(good / makespan_s, 6),
            slo_s=self.slo_s,
            mean_latency_s=round(summary["mean_latency_s"], 6),
            p50_latency_s=round(summary["p50_latency_s"], 6),
            p95_latency_s=round(summary["p95_latency_s"], 6),
            p99_latency_s=round(summary["p99_latency_s"], 6),
            max_latency_s=round(summary["max_latency_s"], 6),
            mean_queue_depth=round(tracker.mean_depth(makespan_s), 6),
            max_queue_depth=tracker.max_depth,
            queue_depth_timeline=tracker.timeline(),
            shed_count=counters["shed"],
            scale_policy=(
                self.scale_policy.name if self.scale_policy is not None else None
            ),
            capacity_timeline=tuple(self.capacity_timeline),
            scale_up_count=self.scale_up_count,
            scale_down_count=self.scale_down_count,
            config=self.session.config.to_dict(),
            mix=tuple(self.mix.to_dicts()),
        )


def run_serve(
    session: Session,
    mix: Any = None,
    *,
    spec: ServeSpec | None = None,
    **knobs: Any,
) -> ServeResult:
    """Run one serving workload and return its metrics.

    ``spec`` (a :class:`ServeSpec`) is the primary form; the keyword knobs
    (``rate``, ``duration_s``, ``arrival``, ``admission``, ``concurrency``,
    ``max_batch``, ``cache``, ``slo_s``, ``coalesce_s``,
    ``clients``/``think_time_s`` for ``arrival="closed"``,
    ``scale_policy``/``min_gpus``/``max_gpus`` for autoscaling, and
    ``trace_times``/``trace_period`` for ``arrival="trace"``) are a shim
    that builds the same spec.  ``telemetry`` — a hub or JSONL path
    receiving request enqueue/dispatch/complete/shed and scale events — is
    purely observational: results are byte-identical with telemetry on or
    off.
    """
    return ServeSimulation(session, mix, spec=spec, **knobs).run()
