"""Scalar ring-attention planning, frozen as the oracle of the vectorised path.

The attention engine counts a ring's causal pairs as one numpy ``G x G``
matrix.  Before that, every (rank, round, sequence) triple called
:func:`~repro.core.attention_engine.causal_pairs_between` from Python.  This
module keeps that scalar path verbatim: ``ScalarRingGroup.round_pairs``,
``ScalarBatchRingGroup``'s per-sequence summation, the emitter that reads them
and Transformer Engine CP's global ring.  :func:`scalar_planning` swaps it in
for the vectorised code, so tests and benchmarks can plan the same batch both
ways and compare the plans.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator
from unittest import mock

from repro.baselines.te_cp import TransformerEngineCPStrategy
from repro.core.attention_engine import _PRIORITY, AttentionEngine, causal_pairs_between
from repro.core.chunking import ChunkAssignment, zigzag_assignment
from repro.core.partitioner import RingSpec
from repro.core.plan import ExecutionPlan, TaskKind
from repro.core.zones import Zone
from repro.data.sampler import Batch
from repro.model.spec import TransformerSpec


@dataclass(frozen=True)
class ScalarRingGroup:
    """A ring specification plus the chunk assignment of each member rank."""

    spec: RingSpec
    assignments: tuple[ChunkAssignment, ...]

    @property
    def group_size(self) -> int:
        return self.spec.group_size

    def tokens_of(self, ring_index: int) -> int:
        return self.assignments[ring_index].tokens

    def query_chunks(self, ring_index: int) -> tuple[tuple[int, int], tuple[int, int]]:
        a = self.assignments[ring_index]
        return (a.head_chunk, a.tail_chunk)

    def round_pairs(self, ring_index: int, round_index: int) -> float:
        """Causal pairs rank ``ring_index`` evaluates in round ``round_index``.

        In round ``k`` the rank holds the KV chunks originally owned by ring
        index ``(ring_index - k) mod G``.
        """
        g = self.group_size
        owner = (ring_index - round_index) % g
        pairs = 0.0
        for q_chunk in self.query_chunks(ring_index):
            for kv_chunk in self.query_chunks(owner):
                pairs += causal_pairs_between(q_chunk, kv_chunk)
        return pairs


@dataclass(frozen=True)
class ScalarBatchRingGroup:
    """A ring executing *all* sequences of a batch together."""

    spec: RingSpec
    per_sequence: tuple[ScalarRingGroup, ...]

    @property
    def group_size(self) -> int:
        return self.spec.group_size

    def tokens_of(self, ring_index: int) -> int:
        return sum(g.tokens_of(ring_index) for g in self.per_sequence)

    def round_pairs(self, ring_index: int, round_index: int) -> float:
        return sum(g.round_pairs(ring_index, round_index) for g in self.per_sequence)


def scalar_emit_ring(
    self: AttentionEngine,
    plan: ExecutionPlan,
    group,
    spec: TransformerSpec,
    compute_factor: float,
    comm_factor: float,
    rank_tasks: dict[int, list[int]],
    initial_deps: tuple[int, ...] = (),
) -> None:
    """The ring emitter, reading pairs and tokens one scalar call at a time."""
    if not hasattr(group, "round_pairs"):
        group = ScalarRingGroup(spec=group.spec, assignments=group.assignments)
    ring = group.spec
    g = ring.group_size
    priority = _PRIORITY[ring.zone]
    kv_per_token = self.comm.kv_chunk_bytes(spec, 1)

    # recv_ready[i] holds the task id after which rank i holds the payload
    # for the *next* round (i.e. the hop into rank i has completed).
    recv_ready: list[int | None] = [None] * g

    for round_index in range(g):
        compute_ids: list[int | None] = [None] * g
        for i, rank in enumerate(ring.ranks):
            pairs = group.round_pairs(i, round_index)
            deps = list(initial_deps) if recv_ready[i] is None else []
            if recv_ready[i] is not None:
                deps.append(recv_ready[i])
            if pairs > 0:
                duration = (
                    self.compute.attention_pairs_time(spec, pairs, num_layers=1)
                    * compute_factor
                )
                compute_ids[i] = plan.add(
                    name=f"attn:{ring.zone.value}:seq{ring.seq_id}:r{round_index}:rank{rank}",
                    kind=TaskKind.ATTENTION,
                    duration_s=duration,
                    resources=(ExecutionPlan.compute_resource(rank),),
                    deps=deps,
                    rank=rank,
                    priority=priority,
                )
                rank_tasks[rank].append(compute_ids[i])

        if round_index == g - 1:
            break

        # Send the payload each rank currently holds to its successor.
        new_recv_ready: list[int | None] = [None] * g
        for i, rank in enumerate(ring.ranks):
            owner = (i - round_index) % g
            payload_tokens = group.tokens_of(owner)
            nbytes = payload_tokens * kv_per_token * comm_factor
            dst_rank = ring.ranks[(i + 1) % g]
            deps = list(initial_deps) if recv_ready[i] is None else []
            if recv_ready[i] is not None:
                deps.append(recv_ready[i])
            hop_end = self._emit_hop(
                plan,
                src_rank=rank,
                dst_rank=dst_rank,
                nbytes=nbytes,
                ring_ranks=ring.ranks,
                deps=deps,
                priority=priority,
                label=f"{ring.zone.value}:seq{ring.seq_id}:r{round_index}",
            )
            new_recv_ready[(i + 1) % g] = hop_end
        recv_ready = new_recv_ready


def scalar_build_global_ring(
    self: TransformerEngineCPStrategy, batch: Batch
) -> ScalarBatchRingGroup:
    """Build the single global ring carrying every sequence of the batch."""
    ranks = self.context.dp_ranks
    group_size = len(ranks)
    zone = Zone.INTER_NODE if self.cluster.num_nodes > 1 else Zone.INTRA_NODE
    per_sequence = []
    for seq in batch:
        spec = RingSpec(
            ring_id=seq.seq_id,
            seq_id=seq.seq_id,
            zone=zone,
            ranks=ranks,
            seq_len=seq.length,
        )
        assignments: tuple[ChunkAssignment, ...] = tuple(
            zigzag_assignment(seq.length, group_size)
        )
        per_sequence.append(ScalarRingGroup(spec=spec, assignments=assignments))
    batch_spec = RingSpec(
        ring_id=0,
        seq_id=0,
        zone=zone,
        ranks=ranks,
        seq_len=batch.total_tokens,
    )
    return ScalarBatchRingGroup(spec=batch_spec, per_sequence=tuple(per_sequence))


def scalar_tokens_per_rank(
    self: TransformerEngineCPStrategy, batch: Batch
) -> dict[int, int]:
    """Even split: every DP rank holds ``total_tokens / world`` tokens."""
    ring = self.build_global_ring(batch)
    return {rank: ring.tokens_of(i) for i, rank in enumerate(self.context.dp_ranks)}


def scalar_te_cp_plan_layer(
    self: TransformerEngineCPStrategy, batch: Batch, phase: str = "forward"
) -> ExecutionPlan:
    plan = ExecutionPlan(name=f"te_cp:{phase}")
    plan.metadata["strategy"] = self.name
    plan.metadata["phase"] = phase
    plan.metadata["total_tokens"] = batch.total_tokens

    ring = self.build_global_ring(batch)
    rank_tasks: dict[int, list[int]] = {r: [] for r in self.cluster.iter_ranks()}
    compute_factor, comm_factor = self.phase_factors(phase)
    self.engine.emit_ring(plan, ring, self.spec, compute_factor, comm_factor, rank_tasks)

    tokens_per_rank = self.tokens_per_rank(batch)
    self.emit_linear(plan, tokens_per_rank, rank_tasks, phase=phase)
    plan.validate()
    return plan


@contextlib.contextmanager
def scalar_planning() -> Iterator[None]:
    """Plan every strategy through the scalar ring path while active."""
    te_cp = TransformerEngineCPStrategy
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(AttentionEngine, "emit_ring", scalar_emit_ring))
        stack.enter_context(
            mock.patch.object(te_cp, "build_global_ring", scalar_build_global_ring)
        )
        stack.enter_context(mock.patch.object(te_cp, "tokens_per_rank", scalar_tokens_per_rank))
        stack.enter_context(mock.patch.object(te_cp, "plan_layer", scalar_te_cp_plan_layer))
        yield


def plan_signature(plan: ExecutionPlan) -> list[tuple]:
    """Every task field a plan's simulation reads, durations as exact hex."""
    return [
        (
            t.task_id,
            t.name,
            t.kind,
            t.duration_s.hex(),
            tuple(t.resources),
            tuple(t.deps),
            t.rank,
            t.priority,
        )
        for t in plan.tasks
    ]
