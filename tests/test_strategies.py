"""Tests for the Zeppelin strategy and the baseline strategies."""

import pytest

from repro.baselines.hybrid_dp import HybridDPStrategy
from repro.baselines.llama_cp import LlamaCPStrategy
from repro.baselines.packing import PackingStrategy
from repro.baselines.te_cp import TransformerEngineCPStrategy
from repro.core.plan import TaskKind
from repro.core.strategy import StrategyContext
from repro.core.zeppelin import ZeppelinStrategy
from repro.data.sampler import Batch
from repro.sim.engine import Simulator


def makespan(strategy, batch, phase="forward"):
    return Simulator(record_trace=False).run(strategy.plan_layer(batch, phase)).makespan_s


class TestStrategyContext:
    def test_dp_ranks_without_tp(self, context_16):
        assert context_16.dp_ranks == tuple(range(16))
        assert context_16.dp_world_size == 16

    def test_dp_ranks_with_tp(self, cluster_a2, spec_7b):
        ctx = StrategyContext(
            cluster=cluster_a2, spec=spec_7b, token_budget=8192, tensor_parallel=2
        )
        assert ctx.dp_ranks == tuple(range(0, 16, 2))
        assert ctx.dp_world_size == 8

    def test_tp_must_fit_in_a_node(self, cluster_a2, spec_7b):
        with pytest.raises(ValueError):
            StrategyContext(
                cluster=cluster_a2, spec=spec_7b, token_budget=4096, tensor_parallel=16
            )

    def test_world_must_divide_by_tp(self, tiny_cluster, spec_7b):
        with pytest.raises(ValueError):
            StrategyContext(
                cluster=tiny_cluster, spec=spec_7b, token_budget=4096, tensor_parallel=3
            )


class TestTransformerEngineCP:
    def test_tokens_split_evenly(self, context_16, mixed_batch):
        strategy = TransformerEngineCPStrategy(context_16)
        tokens = strategy.tokens_per_rank(mixed_batch)
        values = list(tokens.values())
        assert sum(values) == mixed_batch.total_tokens
        assert max(values) - min(values) <= 2 * mixed_batch.num_sequences

    def test_global_ring_sums_every_sequence_exactly(self, context_16, mixed_batch):
        ring = TransformerEngineCPStrategy(context_16).build_global_ring(mixed_batch)
        assert ring.pair_matrix.shape == (16, 16)
        assert ring.pair_matrix.sum() == sum(n * (n + 1) / 2 for n in mixed_batch.lengths)
        assert sum(ring.tokens) == mixed_batch.total_tokens

    def test_global_ring_is_built_once_per_batch_content(self, context_16, mixed_batch):
        first = TransformerEngineCPStrategy(context_16).build_global_ring(mixed_batch)
        # A fresh strategy and an equal (not identical) batch hit the same build.
        again = TransformerEngineCPStrategy(context_16).build_global_ring(
            Batch.from_lengths(mixed_batch.lengths)
        )
        assert again.pair_matrix is first.pair_matrix
        other = Batch.from_lengths(mixed_batch.lengths[:-1])
        assert (
            TransformerEngineCPStrategy(context_16).build_global_ring(other).pair_matrix
            is not first.pair_matrix
        )

    def test_refuses_batches_too_long_to_count_exactly(self, context_16):
        strategy = TransformerEngineCPStrategy(context_16)
        with pytest.raises(ValueError, match="exact"):
            strategy.plan_layer(Batch.from_lengths([2**25, 2**25]))

    def test_plan_contains_ring_communication(self, context_16, mixed_batch):
        strategy = TransformerEngineCPStrategy(context_16)
        plan = strategy.plan_layer(mixed_batch)
        kinds = {t.kind for t in plan.tasks}
        assert TaskKind.INTER_COMM in kinds
        assert TaskKind.ATTENTION in kinds
        assert TaskKind.LINEAR in kinds

    def test_routing_variant_is_faster(self, context_16, mixed_batch):
        base = TransformerEngineCPStrategy(context_16)
        routed = TransformerEngineCPStrategy(context_16, use_routing=True)
        assert makespan(routed, mixed_batch) < makespan(base, mixed_batch)
        assert "Routing" in routed.name

    def test_backward_slower_than_forward(self, context_16, mixed_batch):
        strategy = TransformerEngineCPStrategy(context_16)
        assert makespan(strategy, mixed_batch, "backward") > makespan(
            strategy, mixed_batch, "forward"
        )


class TestLlamaCP:
    def test_allgather_is_on_the_critical_path(self, context_16, mixed_batch):
        strategy = LlamaCPStrategy(context_16)
        plan = strategy.plan_layer(mixed_batch)
        allgathers = [t for t in plan.tasks if t.kind == TaskKind.ALLGATHER]
        attentions = [t for t in plan.tasks if t.kind == TaskKind.ATTENTION]
        assert allgathers and attentions
        allgather_ids = {t.task_id for t in allgathers}
        assert all(set(t.deps) & allgather_ids for t in attentions)

    def test_faster_than_te_cp_on_mixed_batch(self, context_16, mixed_batch):
        te = TransformerEngineCPStrategy(context_16)
        llama = LlamaCPStrategy(context_16)
        assert makespan(llama, mixed_batch) < makespan(te, mixed_batch)

    def test_linear_tokens_balanced(self, context_16, mixed_batch):
        strategy = LlamaCPStrategy(context_16)
        plan = strategy.plan_layer(mixed_batch)
        linear = [t for t in plan.tasks if t.kind == TaskKind.LINEAR]
        durations = [t.duration_s for t in linear]
        assert max(durations) / min(durations) < 1.5


class TestHybridDP:
    def test_long_sequences_get_cp_groups(self, context_16):
        strategy = HybridDPStrategy(context_16)
        batch = Batch.from_lengths([40000, 2000, 2000, 1500, 1000])
        assignment = strategy.assign(batch)
        assert assignment.num_cp_groups >= 1
        cp_seq_ids = {
            seq.seq_id for mb in assignment.micro_batches for seq, _ in mb.cp_groups
        }
        assert 0 in cp_seq_ids  # the 40k sequence

    def test_short_only_batch_uses_plain_dp(self, context_16, short_batch):
        strategy = HybridDPStrategy(context_16)
        assignment = strategy.assign(short_batch)
        assert assignment.num_cp_groups == 0
        assert assignment.num_micro_batches == 1

    def test_tokens_conserved_across_micro_batches(self, context_16, mixed_batch):
        strategy = HybridDPStrategy(context_16)
        assignment = strategy.assign(mixed_batch)
        totals = assignment.tokens_per_rank(context_16.dp_ranks)
        # Ring chunking rounds down per rank; allow a small remainder loss.
        assert sum(totals.values()) >= mixed_batch.total_tokens - 64

    def test_plan_simulates(self, context_16, mixed_batch):
        strategy = HybridDPStrategy(context_16)
        assert makespan(strategy, mixed_batch) > 0

    def test_moe_inflates_linear_time(self, cluster_a2, spec_moe, spec_3b, mixed_batch):
        ctx_moe = StrategyContext(cluster=cluster_a2, spec=spec_moe, token_budget=4096)
        ctx_dense = StrategyContext(cluster=cluster_a2, spec=spec_3b, token_budget=4096)
        moe_plan = HybridDPStrategy(ctx_moe).plan_layer(mixed_batch)
        dense_plan = HybridDPStrategy(ctx_dense).plan_layer(mixed_batch)
        assert moe_plan.metadata["num_micro_batches"] >= 1
        assert dense_plan.metadata["num_micro_batches"] >= 1


class TestPackingStrategy:
    def test_buffers_cover_all_tokens(self, context_16, mixed_batch):
        strategy = PackingStrategy(context_16)
        per_rank = strategy.pack(mixed_batch)
        total = sum(b.used for buffers in per_rank.values() for b in buffers)
        assert total == mixed_batch.total_tokens

    def test_cross_sequence_attention_costs_more(self, context_16, short_batch):
        naive = PackingStrategy(context_16, cross_sequence_attention=True)
        masked = PackingStrategy(context_16, cross_sequence_attention=False)
        assert makespan(naive, short_batch) >= makespan(masked, short_batch)

    def test_ulysses_variant_adds_all_to_all(self, context_16, short_batch):
        strategy = PackingStrategy(context_16, ulysses_degree=8)
        plan = strategy.plan_layer(short_batch)
        assert any(t.kind == TaskKind.ALLGATHER for t in plan.tasks)
        assert "Ulysses" in strategy.name


class TestZeppelinStrategy:
    def test_full_zeppelin_beats_all_baselines(self, context_16, mixed_batch):
        zeppelin = ZeppelinStrategy(context_16)
        others = [
            TransformerEngineCPStrategy(context_16),
            LlamaCPStrategy(context_16),
            HybridDPStrategy(context_16),
        ]
        z = makespan(zeppelin, mixed_batch)
        for other in others:
            assert z <= makespan(other, mixed_batch) * 1.05

    def test_plan_contains_remapping_when_enabled(self, context_16, mixed_batch):
        zeppelin = ZeppelinStrategy(context_16, use_remapping=True)
        plan = zeppelin.plan_layer(mixed_batch)
        assert any(t.kind == TaskKind.REMAP for t in plan.tasks)
        assert "remap_plan" in plan.metadata

    def test_no_remapping_variant(self, context_16, mixed_batch):
        zeppelin = ZeppelinStrategy(context_16, use_remapping=False)
        plan = zeppelin.plan_layer(mixed_batch)
        assert not any(t.kind == TaskKind.REMAP for t in plan.tasks)
        assert "no remap" in zeppelin.name

    def test_routing_disabled_emits_no_dispatch(self, context_16):
        batch = Batch.from_lengths([16 * 4096])
        zeppelin = ZeppelinStrategy(context_16, use_routing=False)
        plan = zeppelin.plan_layer(batch)
        assert not any(t.kind == TaskKind.DISPATCH for t in plan.tasks)

    def test_component_ablation_ordering(self, context_3b_16, mixed_batch):
        """Each added component must not slow the system down (Fig. 11 trend)."""
        bare = ZeppelinStrategy(context_3b_16, use_routing=False, use_remapping=False)
        routed = ZeppelinStrategy(context_3b_16, use_routing=True, use_remapping=False)
        full = ZeppelinStrategy(context_3b_16, use_routing=True, use_remapping=True)
        t_bare = makespan(bare, mixed_batch)
        t_routed = makespan(routed, mixed_batch)
        t_full = makespan(full, mixed_batch)
        assert t_routed <= t_bare * 1.01
        assert t_full <= t_routed * 1.05

    def test_local_only_batch_has_zero_inter_node_comm(self, context_16, short_batch):
        zeppelin = ZeppelinStrategy(context_16)
        plan = zeppelin.plan_layer(short_batch)
        inter = [t for t in plan.tasks if t.kind == TaskKind.INTER_COMM]
        assert sum(t.duration_s for t in inter) == 0.0

    def test_partition_exposed_for_inspection(self, context_16, mixed_batch):
        zeppelin = ZeppelinStrategy(context_16)
        partition = zeppelin.partition(mixed_batch)
        assert partition.total_tokens() == mixed_batch.total_tokens

    def test_plan_metadata(self, context_16, mixed_batch):
        plan = ZeppelinStrategy(context_16).plan_layer(mixed_batch)
        assert plan.metadata["total_tokens"] == mixed_batch.total_tokens
        assert plan.metadata["phase"] == "forward"
