"""Differential test of :class:`RequestQueue` against a one-list model.

The model below is the plain semantics of the serve queue: one list of
``(key, request)`` entries kept sorted by key (new entries go after equal
keys), a linear scan for matching cells, and queued work summed over the
list in order.  Random operation sequences (``push``/``offer``/``peek``/
``pop``/``take_matching``/``count_matching``/``queued_work_s``, plus cost
estimates that appear, change and vanish between pushes) must give the same
results on both, with queued work compared bit for bit.  Profiles are
derandomised, so every run checks the same sequences.
"""

from __future__ import annotations

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.arrivals import Request, RequestCell
from repro.serve.queue import (
    AdmissionContext,
    AdmissionPolicy,
    RequestQueue,
    as_admission,
)

# Four cells; zeppelin appears twice with different overrides.
CELLS = (
    {"strategy": "zeppelin"},
    {"strategy": "te_cp", "priority": 1},
    {"strategy": "llama_cp", "priority": 2},
    {"strategy": "zeppelin", "overrides": {"total_context": 16384}},
)

# Costs whose float sums depend on the order they are added in: 1e-16 is
# below half an ulp of 1.0, so it vanishes when added after 1.0 but not
# when several are added first.
COSTS = (None, 1.0, 1e-16, 1.0 / 3.0)


class CoarseAdmission(AdmissionPolicy):
    """Keys without the rid: many ties, broken only by push order."""

    name = "coarse"

    def key(self, request, ctx=None):
        return (int(request.arrival_s),)


class ListQueue:
    """Reference model: a single key-sorted list."""

    def __init__(self, admission):
        self.admission = admission
        self.items: list[tuple[tuple, Request]] = []

    def __len__(self):
        return len(self.items)

    def offer(self, request, ctx):
        if not self.admission.admit(request, ctx):
            return False
        self.push(request, ctx)
        return True

    def push(self, request, ctx):
        entry = (self.admission.key(request, ctx), request)
        bisect.insort(self.items, entry, key=lambda item: item[0])

    def peek(self):
        if not self.items:
            raise IndexError("peek on an empty request queue")
        return self.items[0][1]

    def pop(self):
        if not self.items:
            raise IndexError("pop from an empty request queue")
        return self.items.pop(0)[1]

    def count_matching(self, cell):
        return sum(1 for _, request in self.items if request.cell == cell)

    def queued_work_s(self, cost_estimate):
        total = 0.0
        for _, request in self.items:
            cost = cost_estimate(request.cell)
            if cost is not None:
                total += cost
        return total

    def take_matching(self, cell, limit):
        if limit <= 0:
            return []
        taken, kept = [], []
        for entry in self.items:
            if len(taken) < limit and entry[1].cell == cell:
                taken.append(entry[1])
            else:
                kept.append(entry)
        self.items = kept
        return taken


# Requests carry one set of cell objects, queries pass another, equal set:
# the queue must match cells by value, not identity.
PUSHED = tuple(RequestCell(**fields) for fields in CELLS)
ASKED = tuple(RequestCell(**fields) for fields in CELLS)


# One operation: (kind, cell index, arrival time, take limit, cost).  Kinds
# are listed with repeats to weight pushes up, so queues grow deep enough to
# interleave cells; each kind reads only the fields it needs.
KINDS = (
    *("push", "push", "offer", "offer"),
    *("peek", "pop", "take", "count", "cost"),
)
operations = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(0, len(CELLS) - 1),
        st.integers(0, 40).map(lambda quarter: quarter / 4),
        st.integers(-1, 5),
        st.sampled_from(COSTS),
    ),
    min_size=20,
    max_size=80,
)


def outcome(call):
    """``call()``'s value, or the type of the exception it raised."""
    try:
        return ("ok", call())
    except IndexError as exc:
        return ("raised", type(exc))


def check(admission, slo_s, ops):
    policy = as_admission(admission() if isinstance(admission, type) else admission)
    queue = RequestQueue(policy)
    model = ListQueue(policy)
    costs: dict[RequestCell, float] = {}
    rid = 0
    for name, index, arrival_s, limit, cost in ops:
        if name in ("push", "offer"):
            request = Request(rid=rid, arrival_s=arrival_s, cell=PUSHED[index])
            rid += 1
            # The queue gets the lazy context the driver builds, the model an
            # eager snapshot of the same state.
            lazy = AdmissionContext(
                queue_depth=len(queue),
                slo_s=slo_s,
                cost_estimate=costs.get,
                queued_work=lambda: queue.queued_work_s(costs.get),
            )
            eager = AdmissionContext(
                queue_depth=len(model),
                queued_work_s=model.queued_work_s(costs.get),
                slo_s=slo_s,
                cost_estimate=costs.get,
            )
            if index % 2:  # read before the push: must equal the snapshot
                assert lazy.queued_work_s.hex() == eager.queued_work_s.hex()
            if name == "push":
                queue.push(request, lazy)
                model.push(request, eager)
            else:
                assert queue.offer(request, lazy) == model.offer(request, eager)
        elif name in ("peek", "pop"):
            got = outcome(getattr(queue, name))
            want = outcome(getattr(model, name))
            assert got == want
        elif name == "take":
            got = queue.take_matching(ASKED[index], limit)
            assert got == model.take_matching(ASKED[index], limit)
        elif name == "count":
            assert queue.count_matching(ASKED[index]) == model.count_matching(
                ASKED[index]
            )
        else:  # a cell's estimate appears, changes or is forgotten
            if cost is None:
                costs.pop(ASKED[index], None)
            else:
                costs[ASKED[index]] = cost
        assert len(queue) == queue.depth == len(model)
        # queued_work_s is checked after every operation, bit for bit.
        work = queue.queued_work_s(costs.get)
        assert work.hex() == model.queued_work_s(costs.get).hex()
    # Drain: the full remaining order must agree too.
    assert [queue.pop() for _ in range(len(queue))] == [
        model.pop() for _ in range(len(model))
    ]


PROFILE = settings(max_examples=100, deadline=None, derandomize=True, database=None)


class TestRequestQueueMatchesListModel:
    @PROFILE
    @given(ops=operations)
    def test_fifo(self, ops):
        check("fifo", None, ops)

    @PROFILE
    @given(ops=operations)
    def test_priority(self, ops):
        check("priority", None, ops)

    @PROFILE
    @given(ops=operations, slo_s=st.sampled_from([0.25, 0.5, 2.0]))
    def test_slo_aware(self, ops, slo_s):
        # Keys change within a cell once its cost is known, and admission
        # reads the queued work through the context.
        check("slo_aware", slo_s, ops)

    @PROFILE
    @given(ops=operations)
    def test_tied_keys_keep_push_order(self, ops):
        check(CoarseAdmission, None, ops)
