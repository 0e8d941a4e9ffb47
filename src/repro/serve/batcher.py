"""Batching and execution: shared plan runs over the Session machinery.

The :class:`Batcher` turns the head of the queue into an execution batch by
coalescing every queued request with the *same cell* (identical strategy and
session overrides) up to ``max_batch``, so a burst of identical requests
costs one simulation.  Execution funnels through the same
:func:`repro.exec.worker.execute_payload` path sweeps use — requests become
:class:`~repro.exec.spec.SweepPoint`\\ s resolved against a
:class:`~repro.exec.worker.SessionPool` rooted at the serving session, so
plan compilation and batch sampling are shared across requests exactly like
across sweep points — plus an in-run result cache keyed by the point's
canonical JSON (the same identity :mod:`repro.exec.cache` hashes, computed
once per config and cell), so a cell seen twice skips the simulation
entirely.

Below the cache sits the batched simulation kernel: a cell's simulation runs
through :func:`~repro.training.throughput.measure_throughput`, whose
per-step iterations execute as lanes of one :mod:`repro.sim.batch` pass —
repeated sampled batches inside one virtual-time step dedup to a single
lane, and structure-sharing steps amortise the event-loop setup.  With the
driver's telemetry hub attached, the kernel's ``batch_simulate`` events land
on the same stream as the request lifecycle events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.api import Session
from repro.exec.spec import SweepPoint
from repro.exec.worker import SessionPool, execute_payload
from repro.obs.core import TELEMETRY_OFF, Telemetry
from repro.registry import get_strategy
from repro.serve.arrivals import Request, RequestCell
from repro.serve.queue import RequestQueue

# Virtual service time of a request answered from the in-run result cache
# (a lookup, not a simulation).
DEFAULT_CACHE_HIT_COST_S = 0.002


@dataclass
class ExecutionBatch:
    """One shared execution: the requests it serves and its timing."""

    requests: list[Request]
    cell: RequestCell
    start_s: float
    finish_s: float
    cache_hit: bool

    @property
    def size(self) -> int:
        return len(self.requests)


class Batcher:
    """Group compatible queued requests and execute them as one plan run."""

    def __init__(
        self,
        session: Session,
        *,
        max_batch: int = 8,
        cache: bool = True,
        cache_hit_cost_s: float = DEFAULT_CACHE_HIT_COST_S,
        telemetry: Telemetry = TELEMETRY_OFF,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.session = session
        self.max_batch = max_batch
        self.cache = cache
        self.cache_hit_cost_s = cache_hit_cost_s
        self.telemetry = telemetry
        self.pool = SessionPool(session)
        self.simulations_executed = 0
        # key -> (virtual time the producing execution finishes, result dict).
        # Entries are stored at dispatch but only *answer* requests causally:
        # before ready_at_s a later batch joins the in-flight execution.
        self._results: dict[str, tuple[float, dict[str, Any]]] = {}
        # config key -> {cell: (point, execution key)}.  The execution key is
        # the point's canonical JSON, computed once per (config, cell): each
        # capacity level keeps its own execution identity (and thus cache
        # entries), and lookups per request are dict reads.
        self._resolved: dict[str, dict[RequestCell, tuple[SweepPoint, str]]] = {}
        self._set_config(session.config)

    # -- capacity ----------------------------------------------------------------

    def rescale(self, config: Any) -> None:
        """Point subsequent dispatches at a resized session config.

        Called by the serve driver when an autoscale step changes the
        cluster; in-flight executions are unaffected (their points are
        already built), and revisiting a previously seen capacity reuses its
        cached points and results.
        """
        self._set_config(config)

    def _set_config(self, config: Any) -> None:
        """Make ``config`` the one new dispatches resolve against."""
        self._config_dict = config.to_dict()
        config_key = SweepPoint(self._config_dict).canonical_json()
        self._cells = self._resolved.setdefault(config_key, {})

    # -- request -> execution identity -------------------------------------------

    def point_for(self, cell: RequestCell) -> SweepPoint:
        """The sweep point a cell executes as (memoised per config and cell).

        Resolves the cell's strategy through the registry on first sight, so
        a bad mix fails before any request is simulated.
        """
        return self._resolve(cell)[0]

    def _resolve(self, cell: RequestCell) -> tuple[SweepPoint, str]:
        """``(point, execution key)`` of ``cell`` at the current config."""
        resolved = self._cells.get(cell)
        if resolved is None:
            get_strategy(cell.strategy)
            values = {
                **self._config_dict,
                **cell.override_dict(),
                "strategy": cell.strategy,
                "strategy_kwargs": {},
                "label": None,
                "perturbation": None,
                "recovery": "checkpoint_restart",
                "num_iterations": 32,
            }
            point = SweepPoint(values)
            resolved = self._cells[cell] = (point, point.canonical_json())
        return resolved

    def cost_estimate(self, cell: RequestCell) -> float | None:
        """Measured service time of ``cell`` at the current capacity, if known.

        Reads the in-run result cache: ``None`` until the cell has executed
        once (on the current config), after which the last measured iteration
        time is the estimate.  This is what SLO-aware admission and the
        deadline batcher consult — no separate model, just the cache.
        """
        entry = self._results.get(self._resolve(cell)[1])
        if entry is None:
            return None
        return float(entry[1]["iteration_time_s"])

    # -- batching ----------------------------------------------------------------

    def collect(self, queue: RequestQueue, head: Request) -> list[Request]:
        """The batch served together with ``head``: same-cell queued requests."""
        return [head] + queue.take_matching(head.cell, self.max_batch - 1)

    # -- execution ---------------------------------------------------------------

    def execute(self, requests: list[Request], now_s: float) -> ExecutionBatch:
        """Serve one batch starting at virtual time ``now_s``.

        Causal cache semantics: a completed entry answers the batch after
        :attr:`cache_hit_cost_s` of virtual time; an entry whose producing
        execution is still in flight at ``now_s`` makes the batch *join* it
        (shared-future semantics — the batch holds its slot and completes at
        the producer's finish, never before the result virtually exists); a
        miss runs the cell's simulation (through the session pool, so plan
        caches are shared) and takes the measured iteration time.
        """
        cell = requests[0].cell
        point, key = self._resolve(cell)
        cached = self._results.get(key) if self.cache else None
        if cached is not None:
            ready_at_s, _ = cached
            if ready_at_s <= now_s:
                finish_s = now_s + self.cache_hit_cost_s
                served_by = "cache"
            else:
                finish_s = ready_at_s
                served_by = "batch"
        else:
            result = execute_payload(
                point.to_dict(), pool=self.pool, telemetry=self.telemetry
            )
            self.simulations_executed += 1
            finish_s = now_s + float(result["iteration_time_s"])
            if self.cache:
                self._results[key] = (finish_s, result)
            served_by = "simulate"
        for i, request in enumerate(requests):
            request.start_s = now_s
            request.finish_s = finish_s
            # The head of a fresh simulation pays for it; everyone else
            # shared an execution ("batch") or a completed entry ("cache").
            if served_by == "simulate":
                request.served_by = "simulate" if i == 0 else "batch"
            else:
                request.served_by = served_by
        return ExecutionBatch(
            requests=requests,
            cell=cell,
            start_s=now_s,
            finish_s=finish_s,
            cache_hit=served_by == "cache",
        )
