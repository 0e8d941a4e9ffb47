"""Virtual-time request queue with pluggable admission and a concurrency cap.

The :class:`RequestQueue` holds requests that have arrived but not yet been
dispatched, ordered by an :class:`AdmissionPolicy` sort key.  Policies see
one :class:`AdmissionContext` — the queue state at the decision, the driver's
streaming latency/completion sketches and per-cell cost estimates — and may
both *order* the queue (:meth:`AdmissionPolicy.key`) and *shed* requests
predicted to be not worth serving (:meth:`AdmissionPolicy.admit`).

Three policies register with :mod:`repro.registry`:

* ``fifo`` — strict arrival order,
* ``priority`` — higher :attr:`RequestCell.priority` first, arrival order
  within a priority class, and
* ``slo_aware`` — sheds requests whose predicted completion (queue-wait
  estimate plus the cached cell cost) misses the run's ``slo_s``, and
  orders survivors least-slack-first.

The queue also owns the serving concurrency limit: the driver asks
:meth:`RequestQueue.can_dispatch` before starting another batch execution,
so at most ``concurrency`` executions are ever in flight.

Queue operations do not walk the queue: requests are kept in one key-sorted
list per cell and the head is the smallest head across cells.  The one
O(depth) quantity, the context's queued work, is computed only when a policy
reads it (``slo_aware`` does, once per arrival; ``fifo`` and ``priority``
never do).
"""

from __future__ import annotations

import bisect
import heapq
from typing import TYPE_CHECKING, Any, Callable

from repro.registry import get_admission, register_admission
from repro.serve.arrivals import Request, RequestCell

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.sketch import LatencySketch, WindowedRate


class AdmissionContext:
    """Everything an admission policy may consult for one decision.

    The serve driver builds one context per arrival.  Every field is cheap
    to fill in except :attr:`queued_work_s`, which walks the queue: the
    driver passes it as a ``queued_work`` callable instead, evaluated the
    first time a policy reads the attribute and then kept for the rest of
    the decision, so policies that never read it (``fifo``, ``priority``)
    never pay for it.  Passing ``queued_work_s=`` directly still works.
    All times are virtual seconds of the serving clock, so decisions are
    deterministic per seed.  ``latency`` and ``completion_rate`` are the
    driver's *live* streaming sketches (the same objects feeding telemetry
    and the final :class:`~repro.results.ServeResult`), not copies.

    Attributes
    ----------
    now_s:
        The virtual time of the decision.
    queue_depth / queued_work_s:
        Requests currently waiting, and the estimated seconds of service
        they represent (cells without a cost estimate yet contribute 0).
    in_flight / concurrency:
        Executions currently running and the driver's limit.
    slo_s:
        The run's latency objective, if any.
    latency / completion_rate:
        The driver's streaming :class:`~repro.obs.sketch.LatencySketch` and
        :class:`~repro.obs.sketch.WindowedRate` (``None`` outside a run).
    cost_estimate:
        Per-cell service-time estimates from the batcher's result cache
        (``None`` until a cell has executed once).
    """

    def __init__(
        self,
        now_s: float = 0.0,
        queue_depth: int = 0,
        queued_work_s: float | None = None,
        in_flight: int = 0,
        concurrency: int = 1,
        slo_s: float | None = None,
        latency: "LatencySketch | None" = None,
        completion_rate: "WindowedRate | None" = None,
        cost_estimate: "Callable[[RequestCell], float | None] | None" = None,
        *,
        queued_work: "Callable[[], float] | None" = None,
    ):
        self.now_s = now_s
        self.queue_depth = queue_depth
        self.in_flight = in_flight
        self.concurrency = concurrency
        self.slo_s = slo_s
        self.latency = latency
        self.completion_rate = completion_rate
        self.cost_estimate = cost_estimate
        self._queued_work_s = queued_work_s
        self._queued_work = queued_work

    @property
    def queued_work_s(self) -> float:
        """Estimated service seconds queued (computed on first read)."""
        if self._queued_work_s is None:
            work = self._queued_work
            self._queued_work_s = work() if work is not None else 0.0
        return self._queued_work_s

    def estimated_cost_s(self, cell: RequestCell) -> float | None:
        """The cached service-time estimate for ``cell`` (``None`` if unseen)."""
        if self.cost_estimate is None:
            return None
        return self.cost_estimate(cell)

    def estimated_wait_s(self) -> float:
        """Queue-wait estimate: queued work spread over the service slots."""
        return self.queued_work_s / max(1, self.concurrency)


class AdmissionPolicy:
    """Base class: total order plus an admit/shed verdict over requests.

    ``key(request, ctx)`` orders the queue (smallest key dispatches first;
    include ``request.rid`` as the final tie-breaker so the order is total
    and deterministic).  ``admit(request, ctx)`` runs once on arrival; a
    ``False`` verdict sheds the request — it never queues, never executes,
    and is reported in :class:`~repro.results.ServeResult.shed_count`.
    ``ctx`` may be ``None`` when the queue is used standalone (tests,
    tools); policies must tolerate that by falling back to request-only
    ordering.
    """

    name = "abstract"

    def key(self, request: Request, ctx: AdmissionContext | None = None) -> tuple[Any, ...]:
        """Sort key; the smallest key is dispatched first."""
        raise NotImplementedError

    def admit(self, request: Request, ctx: AdmissionContext | None = None) -> bool:
        """Whether the request should be queued at all (default: always)."""
        return True


@register_admission("fifo", description="first-in, first-out admission (default)")
class FifoAdmission(AdmissionPolicy):
    """Serve requests strictly in arrival order."""

    name = "fifo"

    def key(self, request: Request, ctx: AdmissionContext | None = None) -> tuple[Any, ...]:
        return (request.arrival_s, request.rid)


@register_admission(
    "priority", description="higher-priority cells first, FIFO within a class"
)
class PriorityAdmission(AdmissionPolicy):
    """Serve the highest-priority queued request first."""

    name = "priority"

    def key(self, request: Request, ctx: AdmissionContext | None = None) -> tuple[Any, ...]:
        return (-request.priority, request.arrival_s, request.rid)


@register_admission(
    "slo_aware",
    description="shed requests predicted to miss the SLO; least slack first",
)
class SloAwareAdmission(AdmissionPolicy):
    """Shed predicted SLO misses; order survivors by deadline slack.

    The completion prediction is ``queue wait + cell cost``: the wait comes
    from the work already queued (cost estimates cached by the batcher)
    spread over the concurrency slots, the cost from the cell's last
    execution.  A cell that has never executed has no estimate and is
    admitted optimistically — the first request of each cell always pays its
    way in, priming the estimate for everyone behind it.  With no ``slo_s``
    on the run the policy degrades to FIFO.
    """

    name = "slo_aware"

    def predicted_latency_s(
        self, request: Request, ctx: AdmissionContext
    ) -> float | None:
        """Predicted completion latency, or ``None`` when the cost is unknown."""
        cost = ctx.estimated_cost_s(request.cell)
        if cost is None:
            return None
        return ctx.estimated_wait_s() + cost

    def admit(self, request: Request, ctx: AdmissionContext | None = None) -> bool:
        if ctx is None or ctx.slo_s is None:
            return True
        predicted = self.predicted_latency_s(request, ctx)
        return predicted is None or predicted <= ctx.slo_s

    def key(self, request: Request, ctx: AdmissionContext | None = None) -> tuple[Any, ...]:
        # Least slack first: order by the latest start that still meets the
        # SLO (deadline minus service estimate).  Unknown costs and SLO-less
        # runs fall back to arrival order.
        if ctx is not None and ctx.slo_s is not None:
            cost = ctx.estimated_cost_s(request.cell)
            if cost is not None:
                return (request.arrival_s + ctx.slo_s - cost, request.rid)
        return (request.arrival_s, request.rid)


def as_admission(admission: "str | AdmissionPolicy | None") -> AdmissionPolicy:
    """Normalise the ``admission`` argument of the serve driver.

    ``None`` means ``fifo``; a string resolves through the admission
    registry; any other object is used as the policy instance.
    """
    if admission is None:
        return FifoAdmission()
    if isinstance(admission, str):
        return get_admission(admission).obj()
    return admission


class RequestQueue:
    """Admission-ordered queue of waiting requests.

    Requests are kept in one list per cell, each sorted by ``(admission
    key, push sequence)``; the next request is the smallest head across the
    cells.  That is the order of one key-sorted list with ties in arrival
    order, but :meth:`peek` and :meth:`pop` scan only the cell heads,
    :meth:`count_matching` is a length and :meth:`take_matching` slices the
    front of one cell's list, so none of them walks the whole queue.  Keys
    need not be monotone within a cell (``slo_aware`` keys change once a
    cell's cost becomes known): pushes insert by bisection.  Every operation
    is deterministic because the push sequence breaks every tie.
    """

    def __init__(self, admission: "str | AdmissionPolicy | None" = None, concurrency: int = 4):
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        self.admission = as_admission(admission)
        self.concurrency = concurrency
        # cell -> [(key, seq, request)] in order; empty cells are dropped.
        self._cells: dict[Any, list[tuple[tuple[Any, ...], int, Request]]] = {}
        self._depth = 0
        self._seq = 0

    def __len__(self) -> int:
        return self._depth

    @property
    def depth(self) -> int:
        return self._depth

    def can_dispatch(self, in_flight: int) -> bool:
        """Whether another execution may start given ``in_flight`` running."""
        return self._depth > 0 and in_flight < self.concurrency

    def offer(self, request: Request, ctx: AdmissionContext | None = None) -> bool:
        """Admit-or-shed entry point: queue the request unless policy rejects it."""
        if not self.admission.admit(request, ctx):
            return False
        self.push(request, ctx)
        return True

    def push(self, request: Request, ctx: AdmissionContext | None = None) -> None:
        # The sequence number is unique, so entries never compare requests.
        entry = (self.admission.key(request, ctx), self._seq, request)
        self._seq += 1
        self._depth += 1
        items = self._cells.get(request.cell)
        if items is None:
            self._cells[request.cell] = [entry]
        else:
            bisect.insort(items, entry)

    def _head(self) -> list[tuple[tuple[Any, ...], int, Request]]:
        """The cell list holding the next request in admission order."""
        best = None
        for items in self._cells.values():
            if best is None or items[0] < best[0]:
                best = items
        return best

    def peek(self) -> Request:
        """The next request in admission order, without removing it."""
        if not self._depth:
            raise IndexError("peek on an empty request queue")
        return self._head()[0][2]

    def pop(self) -> Request:
        """Remove and return the next request in admission order."""
        if not self._depth:
            raise IndexError("pop from an empty request queue")
        items = self._head()
        request = items.pop(0)[2]
        if not items:
            del self._cells[request.cell]
        self._depth -= 1
        return request

    def count_matching(self, cell: Any) -> int:
        """Queued requests sharing ``cell`` (what one batch could coalesce)."""
        items = self._cells.get(cell)
        return len(items) if items is not None else 0

    def queued_work_s(
        self, cost_estimate: "Callable[[RequestCell], float | None]"
    ) -> float:
        """Estimated service seconds represented by the queued requests.

        Cells without an estimate yet (never executed) contribute nothing —
        the estimate is a floor, which keeps shedding conservative.  Each
        cell's estimate is looked up once; the costs are then added in
        admission order, so the float sum is the same as one walk of a
        single key-sorted list.
        """
        costs = {}
        for cell in self._cells:
            cost = cost_estimate(cell)
            if cost is not None:
                costs[cell] = cost
        total = 0.0
        for _, _, request in heapq.merge(*(self._cells[cell] for cell in costs)):
            total += costs[request.cell]
        return total

    def take_matching(self, cell: Any, limit: int) -> list[Request]:
        """Remove up to ``limit`` queued requests with the given cell.

        Used by the batcher to coalesce compatible requests; matches are
        taken in admission order.
        """
        items = self._cells.get(cell)
        if limit <= 0 or items is None:
            return []
        taken = [entry[2] for entry in items[:limit]]
        del items[:limit]
        if not items:
            del self._cells[cell]
        self._depth -= len(taken)
        return taken
