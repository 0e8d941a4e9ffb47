"""The discrete-event engine that executes an :class:`ExecutionPlan`.

Scheduling policy: a task becomes *ready* once all its dependencies have
completed; a ready task *starts* as soon as every resource it needs is free,
with ties broken by (priority, insertion order).  This is list scheduling over
exclusive resources — the same greedy policy a CUDA stream manager implements —
so the resulting makespan reflects genuine overlap and genuine contention (two
transfers sharing a NIC serialise; compute and communication on different
resources overlap).

Dynamic conditions (:mod:`repro.dynamics`) enter through ``events``: a list of
:class:`~repro.sim.events.ResourceEvent` giving resources time-varying speed
factors or killing them outright.  A task's execution rate is the minimum
speed factor over the resources it holds; when a factor changes mid-task the
remaining work is re-timed at the new rate, and when a resource fails every
in-flight task holding it is aborted (recorded in the trace with
``aborted=True``) while tasks that require a dead resource are stranded and
never start.

There is ONE event loop, and it holds the only copy of the dispatch rules:
the static case is simply the dynamic case with an empty event schedule
(speeds stay 1.0, nothing dies), so both produce bit-identical makespans by
construction, and the batched kernel (:mod:`repro.sim.batch`) runs this same
loop for every lane it does not replay.  The loop runs over the plan's
:class:`~repro.sim.compile.CompiledPlan` — interned resource ids backing
plain ``busy``/``speed`` arrays, CSR dependent adjacency, and precomputed
``(priority, task_id)`` dispatch keys.  Its heap holds completions only;
timed resource events are read in order from their sorted list after each
instant's completions, and a dead resource is simply held busy forever.
Dispatch is *indexed*: a task blocked on a busy resource parks in that
resource's waiter list and is only reconsidered when the resource actually
frees, so an event touches the tasks it can unblock instead of re-sorting
the whole ready set.  Same-timestamp events are drained by exact comparison
on the pushed completion times (an absolute epsilon would mis-merge distinct
events once the simulation clock grows past the point where one ulp exceeds
it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Sequence

from repro.core.plan import ExecutionPlan
from repro.sim.compile import CompiledPlan, compile_plan
from repro.sim.events import ResourceEvent, compile_resource_events
from repro.sim.trace import Trace


@dataclass
class SimulationResult:
    """Outcome of simulating one plan.

    ``aborted_task_ids``/``stranded_task_ids``/``failed_resources`` are only
    populated when a resource failure interrupts the plan; ``failed`` is then
    true and ``makespan_s`` covers the work that did finish.
    """

    makespan_s: float
    trace: Trace
    plan: ExecutionPlan
    start_times: dict[int, float] = field(default_factory=dict)
    end_times: dict[int, float] = field(default_factory=dict)
    aborted_task_ids: tuple[int, ...] = ()
    stranded_task_ids: tuple[int, ...] = ()
    failed_resources: tuple[str, ...] = ()

    @property
    def num_tasks(self) -> int:
        return self.plan.num_tasks

    @property
    def completed_tasks(self) -> int:
        return len(self.end_times)

    @property
    def failed(self) -> bool:
        """True when a resource failure prevented the plan from completing."""
        return bool(self.failed_resources) and self.completed_tasks < self.num_tasks


class Simulator:
    """Executes plans over exclusive resources.

    The simulator is stateless between :meth:`run` calls; all per-plan
    precomputation lives in the :class:`CompiledPlan` cached on the plan, so
    re-simulating a memoised plan (sweeps, resilience iterations) skips
    straight to the event loop.
    """

    def __init__(self, record_trace: bool = True) -> None:
        self.record_trace = record_trace

    def run(
        self,
        plan: ExecutionPlan | CompiledPlan,
        events: Sequence[ResourceEvent] | None = None,
        start_time_s: float = 0.0,
    ) -> SimulationResult:
        """Simulate ``plan`` and return the makespan and trace.

        Parameters
        ----------
        plan:
            The task graph to execute — an :class:`ExecutionPlan` (compiled on
            first use, cached on the plan) or an already-compiled plan.
        events:
            Optional resource perturbations (slowdowns / failures).  ``None``
            and an empty sequence are equivalent: the engine is one core and
            a run without perturbations is bit-identical either way.
        start_time_s:
            Absolute time the plan starts at; event times are interpreted
            relative to it (events at or before the start set the initial
            resource state).
        """
        cp = plan if isinstance(plan, CompiledPlan) else compile_plan(plan)
        return _run(cp, events, start_time_s, self.record_trace)


class _Schedule:
    """The decisions of one run, captured for :mod:`repro.sim.batch` replay.

    Each loop iteration that drains completions is one *group* (one
    completion instant).  ``started``/``done`` are the task ids in dispatch
    and completion order; ``start_group``/``end_group`` map a task to the
    group that started (-1: the initial dispatch) and completed it; ``heads``
    holds each group's first completed task.  All flat int lists, so a pilot
    allocates no per-instant containers.
    """

    __slots__ = ("started", "done", "start_group", "end_group", "heads")

    def __init__(self, n: int) -> None:
        self.started: list[int] = []
        self.done: list[int] = []
        self.start_group = [-1] * n
        self.end_group = [-1] * n
        self.heads: list[int] = []


def _run(
    cp: CompiledPlan,
    events: Sequence[ResourceEvent] | None,
    start_time_s: float,
    record_trace: bool,
    capture: _Schedule | None = None,
) -> SimulationResult:
    """The event loop.  ``capture`` records the schedule of a run without
    timed events (the batch kernel's pilot lanes)."""
    n = cp.num_tasks
    trace = Trace()
    if n == 0:
        return SimulationResult(makespan_s=0.0, trace=trace, plan=cp.plan)

    num_res = cp.num_resources
    busy = [False] * num_res
    speed = [1.0] * num_res
    # Dead resources stay busy forever, so dispatch parks (never starts) a
    # task that needs one without a separate liveness check.
    dead: set[int] = set()
    timed: list = []
    if events:
        initial, timed = compile_resource_events(
            events, cp.resource_index, start_time_s
        )
        for factor, rids in initial:
            for rid in rids:
                if factor is None:
                    dead.add(rid)
                    busy[rid] = True
                else:
                    speed[rid] = factor
    num_timed = len(timed)
    next_timed = 0
    # Timed events re-time or abort in-flight tasks, which needs the running
    # set and stale-entry detection; without them every completion is live.
    retime = num_timed > 0
    rated = retime or any(s != 1.0 for s in speed)

    tasks = cp.plan.tasks
    durations = cp.durations
    task_res = cp.task_resources
    keys = cp.dispatch_keys
    remaining_deps = list(cp.dep_counts)
    dep_indptr = cp.dependents_indptr
    dep_ids = cp.dependents_ids

    # Indexed dispatch: a blocked task parks in the waiter list of the first
    # busy resource that blocked it, and is reconsidered only when that
    # resource frees.  Every waiting task sits in exactly one list.
    waiters: list[list[int]] = [[] for _ in range(num_res)]
    start_times: dict[int, float] = {}
    end_times: dict[int, float] = {}
    # The heap holds completions only, as (time, seq, task_id); ``seq`` is a
    # monotonic push counter, so same-instant completions pop in push order.
    heap: list[tuple[float, int, int]] = []
    seq = 0
    # tid -> [segment start, remaining work (s at speed 1), rate, live seq].
    running: dict[int, list] = {}
    aborted: list[int] = []
    if capture is not None:
        start_group = capture.start_group
        end_group = capture.end_group
        heads = capture.heads
    group = -1
    now = 0.0

    if not cp.initial_ready and not timed and not dead:
        raise RuntimeError("deadlock at time 0: ready tasks cannot acquire resources")
    candidates = list(cp.initial_ready)
    while True:
        # Dispatch: start every candidate whose resources are free, in
        # (priority, task_id) order; the others park at the first busy one.
        if len(candidates) > 1:
            candidates.sort(key=keys.__getitem__)
        for tid in candidates:
            res = task_res[tid]
            for rid in res:
                if busy[rid]:
                    waiters[rid].append(tid)
                    break
            else:
                for rid in res:
                    busy[rid] = True
                start_times[tid] = now
                if rated:
                    rate = min((speed[rid] for rid in res), default=1.0)
                    finish = now + durations[tid] / rate
                else:
                    finish = now + durations[tid]
                heappush(heap, (finish, seq, tid))
                if retime:
                    running[tid] = [now, durations[tid], rate, seq]
                if capture is not None:
                    start_group[tid] = group
                seq += 1

        if heap:
            now = heap[0][0]
            if next_timed < num_timed and timed[next_timed][0] < now:
                now = timed[next_timed][0]
        elif next_timed < num_timed:
            now = timed[next_timed][0]
        else:
            break
        group += 1
        if capture is not None:
            heads.append(heap[0][2])

        # Drain every completion at this exact instant, then the timed
        # events at it, before re-dispatching: freed resources go to the
        # highest-priority waiter and same-instant failures see final state
        # (a task finishing as its resource dies counts as completed).
        # Comparison is exact on the pushed times: equal instants arise from
        # identical float arithmetic, and an absolute epsilon would merge
        # distinct events at large clocks.
        candidates = []
        while heap and heap[0][0] == now:
            _, entry, tid = heappop(heap)
            if retime:
                record = running.get(tid)
                if record is None or record[3] != entry:
                    continue  # stale: re-timed or aborted since the push
                del running[tid]
            end_times[tid] = now
            for rid in task_res[tid]:
                busy[rid] = False
                freed = waiters[rid]
                if freed:
                    candidates.extend(freed)
                    waiters[rid] = []
            if record_trace:
                task = tasks[tid]
                trace.record(
                    tid, task.name, task.kind, task.rank, start_times[tid], now
                )
            if capture is not None:
                end_group[tid] = group
            for j in range(dep_indptr[tid], dep_indptr[tid + 1]):
                dep_tid = dep_ids[j]
                remaining_deps[dep_tid] -= 1
                if remaining_deps[dep_tid] == 0:
                    candidates.append(dep_tid)

        while next_timed < num_timed and timed[next_timed][0] == now:
            _, factor, rids = timed[next_timed]
            next_timed += 1
            changed = set(rids)
            if factor is None:
                dead.update(rids)
                for rid in rids:
                    busy[rid] = True
                for tid in [t for t in running if not changed.isdisjoint(task_res[t])]:
                    del running[tid]
                    aborted.append(tid)
                    for rid in task_res[tid]:
                        if rid not in dead:
                            busy[rid] = False
                            freed = waiters[rid]
                            if freed:
                                candidates.extend(freed)
                                waiters[rid] = []
                    if record_trace:
                        task = tasks[tid]
                        trace.record(
                            tid,
                            task.name,
                            task.kind,
                            task.rank,
                            start_times[tid],
                            now,
                            aborted=True,
                        )
            else:
                for rid in rids:
                    speed[rid] = factor
                for tid, record in running.items():
                    res = task_res[tid]
                    if changed.isdisjoint(res):
                        continue
                    seg_start, remaining, rate, _ = record
                    remaining = max(0.0, remaining - (now - seg_start) * rate)
                    rate = min((speed[rid] for rid in res), default=1.0)
                    record[:] = [now, remaining, rate, seq]
                    heappush(heap, (now + remaining / rate, seq, tid))
                    seq += 1

    if capture is not None:
        capture.started = list(start_times)
        capture.done = list(end_times)
    failed_resources = tuple(sorted(cp.resource_names[rid] for rid in dead))
    stranded: tuple[int, ...] = ()
    if len(end_times) != n:
        if not failed_resources:
            raise RuntimeError(
                f"simulation finished with {len(end_times)}/{n} tasks completed; "
                "the plan contains an unsatisfiable dependency"
            )
        # Once the loop ends, every task that neither completed nor aborted
        # can never run — it waits on a dead resource or (transitively) on
        # an aborted task.
        aborted_set = set(aborted)
        stranded = tuple(
            tid for tid in range(n) if tid not in end_times and tid not in aborted_set
        )
    return SimulationResult(
        makespan_s=max(end_times.values()) if end_times else 0.0,
        trace=trace,
        plan=cp.plan,
        start_times=start_times,
        end_times=end_times,
        aborted_task_ids=tuple(aborted),
        stranded_task_ids=stranded,
        failed_resources=failed_resources,
    )


def simulate(
    plan: ExecutionPlan | CompiledPlan,
    record_trace: bool = True,
    events: Sequence[ResourceEvent] | None = None,
    start_time_s: float = 0.0,
) -> SimulationResult:
    """Convenience wrapper: simulate a plan with a fresh :class:`Simulator`."""
    return Simulator(record_trace=record_trace).run(
        plan, events=events, start_time_s=start_time_s
    )
