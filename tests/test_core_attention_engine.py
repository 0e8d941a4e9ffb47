"""Tests for the attention engine: queues, ring rounds, routed hops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attention_engine import (
    AttentionEngine,
    RingGroup,
    causal_pairs_between,
    ring_pair_matrix,
)
from repro.core.chunking import contiguous_assignment, zigzag_assignment
from repro.core.partitioner import SequencePartitioner
from repro.core.plan import ExecutionPlan, TaskKind
from repro.core.routing import RoutingLayer
from repro.core.zones import Zone
from repro.costs.comm import CommCostModel
from repro.costs.compute import ComputeCostModel
from repro.data.sampler import Batch
from repro.sim.engine import Simulator


def make_engine(cluster, routing_enabled=True, balanced=True):
    compute = ComputeCostModel(
        peak_flops=cluster.peak_flops_per_gpu, device_type=cluster.device_type
    )
    comm = CommCostModel(cluster)
    routing = RoutingLayer(cluster=cluster, enabled=routing_enabled)
    return AttentionEngine(
        cluster=cluster,
        compute=compute,
        comm=comm,
        routing=routing,
        balanced_chunking=balanced,
    )


class TestCausalPairsBetween:
    def test_full_visibility(self):
        # Queries after the whole KV range see every key.
        assert causal_pairs_between((10, 5), (0, 5)) == 25

    def test_no_visibility(self):
        # Queries entirely before the KV range see nothing.
        assert causal_pairs_between((0, 5), (10, 5)) == 0

    def test_diagonal_block(self):
        # Same range: the usual lower-triangular count.
        assert causal_pairs_between((0, 4), (0, 4)) == 4 * 5 / 2

    def test_partial_overlap(self):
        # Queries 2..5 against keys 4..7: query 4 sees 1 key, query 5 sees 2.
        assert causal_pairs_between((2, 4), (4, 4)) == 3

    def test_zero_length_ranges(self):
        assert causal_pairs_between((0, 0), (0, 5)) == 0
        assert causal_pairs_between((0, 5), (3, 0)) == 0

    def test_whole_sequence_sums_to_causal_total(self):
        seq = 64
        total = causal_pairs_between((0, seq), (0, seq))
        assert total == seq * (seq + 1) / 2


def _scalar_pair_matrix(assignments):
    chunks = [(a.head_chunk, a.tail_chunk) for a in assignments]
    return [
        [sum(causal_pairs_between(q, kv) for q in mine for kv in theirs) for theirs in chunks]
        for mine in chunks
    ]


class TestRingPairMatrix:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        seq_len=st.integers(min_value=1, max_value=5000),
        group_size=st.integers(min_value=1, max_value=24),
        zigzag=st.booleans(),
    )
    def test_matches_scalar_causal_pairs(self, seq_len, group_size, zigzag):
        assign = zigzag_assignment if zigzag else contiguous_assignment
        assignments = tuple(assign(seq_len, group_size))
        matrix = ring_pair_matrix(assignments)
        assert matrix.shape == (group_size, group_size)
        assert matrix.tolist() == _scalar_pair_matrix(assignments)

    @pytest.mark.parametrize("group_size", [1, 3, 8])
    @pytest.mark.parametrize("seq_len", [1, 2, 5, 15])
    def test_short_sequences_and_single_rank(self, seq_len, group_size):
        # seq_len < 2G leaves zero-length chunks; G = 1 is a one-rank ring.
        for assign in (zigzag_assignment, contiguous_assignment):
            assignments = tuple(assign(seq_len, group_size))
            matrix = ring_pair_matrix(assignments)
            assert matrix.tolist() == _scalar_pair_matrix(assignments)
            assert matrix.sum() == seq_len * (seq_len + 1) / 2

    def test_matrix_is_read_only(self):
        matrix = ring_pair_matrix(tuple(zigzag_assignment(100, 4)))
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_refuses_sequences_too_long_to_count_exactly(self):
        limit = int(np.sqrt(2.0**52))  # 2 * limit**2 == 2**53
        ring_pair_matrix(tuple(zigzag_assignment(limit - 1, 2)))
        with pytest.raises(ValueError, match="exact"):
            ring_pair_matrix(tuple(zigzag_assignment(limit, 2)))

    def test_ring_group_reads_its_assignment(self, cluster_a2):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            Batch.from_lengths([16 * 4096])
        )
        (ring,) = partition.rings
        group = RingGroup(ring, tuple(zigzag_assignment(ring.seq_len, ring.group_size)))
        assert group.tokens == tuple(a.tokens for a in group.assignments)
        assert sum(group.tokens) == ring.seq_len
        assert group.pair_matrix is group.pair_matrix  # computed once per group


class TestQueueConstruction:
    def test_queues_split_by_zone(self, cluster_a2, mixed_batch):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            mixed_batch
        )
        engine = make_engine(cluster_a2)
        queues = engine.build_queues(partition)
        zones_in_partition = {p.zone for ps in partition.placements.values() for p in ps}
        if Zone.LOCAL in zones_in_partition:
            assert queues.local
        assert len(queues.all_rings()) == len(partition.rings)

    def test_ring_group_work_conserves_causal_pairs(self, cluster_a2, mixed_batch, spec_7b):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            mixed_batch
        )
        engine = make_engine(cluster_a2)
        queues = engine.build_queues(partition)
        for group in queues.all_rings():
            seq_len = group.spec.seq_len
            # Every entry is an exact half-integer well below 2**53, so the
            # float sum is exact in any order.
            assert group.pair_matrix.sum() == seq_len * (seq_len + 1) / 2


class TestEmission:
    def test_plan_contains_all_task_kinds(self, cluster_a2, mixed_batch, spec_7b):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            mixed_batch
        )
        engine = make_engine(cluster_a2)
        plan = ExecutionPlan(name="test")
        engine.emit_attention(plan, partition, spec_7b)
        kinds = {t.kind for t in plan.tasks}
        assert TaskKind.ATTENTION in kinds
        assert TaskKind.INTRA_COMM in kinds or TaskKind.INTER_COMM in kinds

    def test_routed_plan_has_dispatch_and_combine(self, cluster_a2, spec_7b):
        # A single cluster-spanning sequence forces inter-node hops.
        batch = Batch.from_lengths([16 * 4096])
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(batch)
        engine = make_engine(cluster_a2, routing_enabled=True)
        plan = ExecutionPlan(name="routed")
        engine.emit_attention(plan, partition, spec_7b)
        kinds = {t.kind for t in plan.tasks}
        assert TaskKind.DISPATCH in kinds
        assert TaskKind.COMBINE in kinds

    def test_unrouted_plan_has_no_dispatch(self, cluster_a2, spec_7b):
        batch = Batch.from_lengths([16 * 4096])
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(batch)
        engine = make_engine(cluster_a2, routing_enabled=False)
        plan = ExecutionPlan(name="direct")
        engine.emit_attention(plan, partition, spec_7b)
        kinds = {t.kind for t in plan.tasks}
        assert TaskKind.DISPATCH not in kinds

    def test_routing_reduces_simulated_makespan(self, cluster_a2, spec_7b):
        batch = Batch.from_lengths([16 * 4096])
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(batch)
        sim = Simulator(record_trace=False)

        def makespan(routed):
            engine = make_engine(cluster_a2, routing_enabled=routed)
            plan = ExecutionPlan(name=f"routing={routed}")
            engine.emit_attention(plan, partition, spec_7b)
            return sim.run(plan).makespan_s

        assert makespan(True) < makespan(False)

    def test_local_only_batch_emits_no_communication(self, cluster_a2, short_batch, spec_7b):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            short_batch
        )
        engine = make_engine(cluster_a2)
        plan = ExecutionPlan(name="local")
        engine.emit_attention(plan, partition, spec_7b)
        comm_time = sum(
            t.duration_s for t in plan.tasks if t.kind.is_communication
        )
        assert comm_time == 0.0

    def test_backward_phase_is_heavier_than_forward(self, cluster_a2, mixed_batch, spec_7b):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            mixed_batch
        )
        engine = make_engine(cluster_a2)
        fwd = ExecutionPlan(name="fwd")
        bwd = ExecutionPlan(name="bwd")
        engine.emit_attention(fwd, partition, spec_7b, phase="forward")
        engine.emit_attention(bwd, partition, spec_7b, phase="backward")
        fwd_total = sum(t.duration_s for t in fwd.tasks)
        bwd_total = sum(t.duration_s for t in bwd.tasks)
        assert bwd_total > fwd_total

    def test_rank_tasks_attributed_to_placement_holders(self, cluster_a2, mixed_batch, spec_7b):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            mixed_batch
        )
        engine = make_engine(cluster_a2)
        plan = ExecutionPlan(name="attr")
        rank_tasks = engine.emit_attention(plan, partition, spec_7b)
        for rank, task_ids in rank_tasks.items():
            has_placement = bool(partition.placements.get(rank))
            if task_ids:
                assert has_placement

    def test_invalid_phase_rejected(self, cluster_a2, mixed_batch, spec_7b):
        partition = SequencePartitioner(cluster=cluster_a2, token_budget=4096).partition(
            mixed_batch
        )
        engine = make_engine(cluster_a2)
        with pytest.raises(ValueError):
            engine.emit_attention(ExecutionPlan(), partition, spec_7b, phase="sideways")
