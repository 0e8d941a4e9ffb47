"""Batched lane-parallel simulation over one shared ``CompiledPlan`` structure.

The workloads this repo sweeps are dominated by re-simulating *nearly
identical* plans: sweep grids that vary only scalar durations, serve mixes
that re-execute the same handful of cells, and resilience drivers that
re-time one DAG under different speed schedules.  :class:`CompiledPlan`
amortised *compilation* across those runs; this module amortises the
simulation itself.  :func:`simulate_batch` executes K duration/event
variants ("lanes") of one compiled structure in a single pass.  The
dispatch rules live only in the engine's event loop; this module adds
what the engine does not do:

* **lane dedup** — lanes with identical ``(durations, events, start)`` over
  the same structure collapse to one simulation whose result is fanned back
  out to every requester (the serve/replica case);
* **schedule replay** — the first eligible lane (the *pilot*) is an engine
  run that captures its *schedule*: the grouping of same-instant
  completions and the tasks each group dispatched.  Engine decisions depend
  on durations only through the grouping and ordering of completion
  instants, so a later lane whose completion times produce the same
  grouping is replayed arithmetically: one ``end = start + duration`` (or
  ``/rate``) per task instead of a full event loop.  Replay *verifies* the
  grouping — every member of a group must land on the bitwise-identical
  instant, group times must be non-decreasing, and an equal-time group must
  have been dispatched by its predecessor — and on any failure the lane
  gets a capturing engine run of its own, whose schedule becomes the new
  pilot.

Results are bit-identical to N sequential :meth:`Simulator.run` calls by
construction: every lane is either an engine run or a replay that the
verification accepts exactly when the engine would retrace the pilot's
decisions.  Lanes replay cannot serve — timed perturbations, failures
(``_lane_speeds`` decides), trace recording — run the engine uncaptured.

:func:`simulate_many` is the producer-facing entry: it accepts requests
over *different* plans, groups them by :attr:`CompiledPlan.structure_key`,
and runs one batch per structure.  ``repro.training.throughput``,
``repro.serve.batcher`` (via the sweep worker) and
``repro.dynamics.recovery`` all funnel through it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from repro.core.plan import ExecutionPlan
from repro.obs.core import Telemetry, as_telemetry
from repro.sim.compile import CompiledPlan, compile_plan
from repro.sim.engine import SimulationResult, _run, _Schedule
from repro.sim.events import ResourceEvent, compile_resource_events
from repro.sim.trace import Trace


@dataclass(frozen=True)
class Lane:
    """One variant of a shared plan structure: durations, events, attribution.

    ``durations`` of ``None`` means "the batch structure's own durations".
    ``plan`` is the plan results are attributed to (``SimulationResult.plan``
    and trace names); it defaults to the batch structure's plan and must
    share its structure.
    """

    durations: tuple[float, ...] | None = None
    events: tuple[ResourceEvent, ...] = ()
    start_time_s: float = 0.0
    plan: ExecutionPlan | None = None


@dataclass(frozen=True)
class SimRequest:
    """One simulation a producer wants: a plan plus its dynamic conditions."""

    plan: "ExecutionPlan | CompiledPlan"
    events: tuple[ResourceEvent, ...] = ()
    start_time_s: float = 0.0


def _lane_speeds(
    cp: CompiledPlan, lane: Lane
) -> "tuple[list[float], bool] | None":
    """Per-resource speeds for a replayable lane, or ``None`` if ineligible.

    Replay serves lanes whose events all reduce to *initial* speed factors
    (the shape ``dynamics`` produces for persistent slowdowns).  Timed
    perturbations and failures change decisions mid-run, so those lanes run
    the engine uncaptured.
    """
    if not lane.events:
        return [], False
    initial, timed = compile_resource_events(
        lane.events, cp.resource_index, lane.start_time_s
    )
    if timed:
        return None
    speed = [1.0] * cp.num_resources
    for factor, rids in initial:
        if factor is None:  # failure: dead resources change dispatch
            return None
        for rid in rids:
            speed[rid] = factor
    return speed, any(s != 1.0 for s in speed)


def _replay(schedule, durations, rates, plan):
    """Arithmetic replay of a pilot schedule, or ``None`` if it diverges.

    Tasks start in the pilot's dispatch order at their start group's instant
    (the end time of the group's first member, -1 meaning t=0).  The lane is
    then accepted iff its completion times reproduce the pilot's grouping and
    ordering — exactly the information the engine's decisions consume beyond
    structure:

    * every member of a group ends at the bitwise-identical instant (a split
      or foreign-time member fails here);
    * group times are non-decreasing (a reordering fails here);
    * a group at the *same* instant as its predecessor consists only of
      tasks the predecessor dispatched (the zero-duration / same-instant
      push case — anything else would have been drained into the earlier
      group by the engine).
    """
    start_group = schedule.start_group
    heads = schedule.heads
    ends = [0.0] * len(start_group)
    start_times: dict[int, float] = {}
    group = -1
    t = 0.0
    if rates is None:
        for tid in schedule.started:
            if start_group[tid] != group:
                group = start_group[tid]
                if ends[heads[group]] < t:
                    return None  # reordered: fail before the full check
                t = ends[heads[group]]
            start_times[tid] = t
            ends[tid] = t + durations[tid]
    else:
        for tid in schedule.started:
            if start_group[tid] != group:
                group = start_group[tid]
                if ends[heads[group]] < t:
                    return None  # reordered: fail before the full check
                t = ends[heads[group]]
            start_times[tid] = t
            ends[tid] = t + durations[tid] / rates[tid]

    end_group = schedule.end_group
    end_times: dict[int, float] = {}
    group = -1
    prev_t = -1.0
    same_instant = False
    for tid in schedule.done:
        t = ends[tid]
        if end_group[tid] != group:
            if t < prev_t:
                return None
            same_instant = t == prev_t
            group = end_group[tid]
            prev_t = t
        elif t != prev_t:
            return None
        if same_instant and start_group[tid] != group - 1:
            return None
        end_times[tid] = t
    return SimulationResult(
        makespan_s=prev_t,
        trace=Trace(),
        plan=plan,
        start_times=start_times,
        end_times=end_times,
    )


def _simulate_group(
    cp: CompiledPlan,
    lanes: Sequence[Lane],
    record_trace: bool,
    dedup: bool,
) -> tuple[list["SimulationResult | None"], int, int]:
    """Simulate one structure's lanes; returns (results, deduped, replayed)."""
    results: list[SimulationResult | None] = [None] * len(lanes)
    slots: dict[tuple, list[int]] = {}
    for i, lane in enumerate(lanes):
        if dedup:
            key = (
                lane.durations if lane.durations is not None else cp.durations,
                lane.events,
                lane.start_time_s,
                id(lane.plan) if lane.plan is not None else id(cp.plan),
            )
        else:
            key = (i,)
        slots.setdefault(key, []).append(i)
    deduped = len(lanes) - len(slots)

    schedule: _Schedule | None = None
    replayed = 0
    for indices in slots.values():
        lane = lanes[indices[0]]
        durations = lane.durations if lane.durations is not None else cp.durations
        plan = lane.plan if lane.plan is not None else cp.plan
        speeds = None if record_trace or cp.num_tasks == 0 else _lane_speeds(cp, lane)
        result = None
        if speeds is not None and schedule is not None:
            speed, has_pert = speeds
            rates = None
            if has_pert:
                rates = [
                    min((speed[rid] for rid in res), default=1.0)
                    for res in cp.task_resources
                ]
            result = _replay(schedule, durations, rates, plan)
            if result is not None:
                replayed += 1
        if result is None:
            lane_cp = (
                cp
                if durations is cp.durations and plan is cp.plan
                else dataclasses.replace(cp, plan=plan, durations=durations)
            )
            if speeds is None:
                # Trace recording, timed perturbations, failures, or an empty
                # plan: an uncaptured engine run (still grouped and deduped).
                result = _run(lane_cp, lane.events, lane.start_time_s, record_trace)
            else:
                # The first replayable lane, or one whose replay diverged:
                # its engine run's schedule becomes the new pilot.
                schedule = _Schedule(cp.num_tasks)
                result = _run(lane_cp, lane.events, lane.start_time_s, False, schedule)
        for i in indices:
            results[i] = result
    return results, deduped, replayed


def _emit(tele: Telemetry, lanes: int, deduped: int, structures: int, replayed: int):
    tele.counter("batch_lanes", lanes)
    tele.counter("batch_lanes_deduped", deduped)
    tele.counter("batch_lanes_replayed", replayed)
    tele.event(
        "batch_simulate",
        lanes=lanes,
        deduped=deduped,
        structures=structures,
        replayed=replayed,
    )


def simulate_batch(
    compiled: "ExecutionPlan | CompiledPlan",
    lanes: Sequence[Lane],
    *,
    record_trace: bool = False,
    dedup: bool = True,
    telemetry: "Telemetry | None" = None,
) -> list[SimulationResult]:
    """Simulate K lanes of one shared structure; results in lane order.

    Bit-identical to running each lane through :meth:`Simulator.run`
    sequentially (deduped lanes share one result *object*; its values are
    identical).  ``telemetry`` defaults to the ambient hub and is
    observational only.
    """
    cp = compiled if isinstance(compiled, CompiledPlan) else compile_plan(compiled)
    results, deduped, replayed = _simulate_group(cp, lanes, record_trace, dedup)
    _emit(as_telemetry(telemetry), len(lanes), deduped, 1, replayed)
    return results  # type: ignore[return-value]


def simulate_many(
    requests: Sequence[SimRequest],
    *,
    record_trace: bool = False,
    dedup: bool = True,
    telemetry: "Telemetry | None" = None,
) -> list[SimulationResult]:
    """Simulate arbitrary plans, batching the ones that share structure.

    Requests are grouped by :attr:`CompiledPlan.structure_key`; each group
    runs as one :func:`simulate_batch`-style pass (per-lane durations come
    from each request's own compiled plan), results return in request order.
    """
    compiled = [
        r.plan if isinstance(r.plan, CompiledPlan) else compile_plan(r.plan)
        for r in requests
    ]
    groups: dict[tuple, list[int]] = {}
    for i, cp in enumerate(compiled):
        groups.setdefault(cp.structure_key, []).append(i)

    results: list[SimulationResult | None] = [None] * len(requests)
    deduped = 0
    replayed = 0
    for indices in groups.values():
        cp0 = compiled[indices[0]]
        lanes = [
            Lane(
                durations=compiled[i].durations,
                events=tuple(requests[i].events),
                start_time_s=requests[i].start_time_s,
                plan=compiled[i].plan,
            )
            for i in indices
        ]
        group_results, group_deduped, group_replayed = _simulate_group(
            cp0, lanes, record_trace, dedup
        )
        deduped += group_deduped
        replayed += group_replayed
        for i, result in zip(indices, group_results):
            results[i] = result
    _emit(as_telemetry(telemetry), len(requests), deduped, len(groups), replayed)
    return results  # type: ignore[return-value]
