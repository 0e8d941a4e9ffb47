"""Vectorised ring planning produces exactly the scalar oracle's plans.

Every registered strategy (plus the ring-path ablations) plans the same
batches twice, once as shipped and once through the frozen scalar ring path
in ``_scalar_rings``; the plans must agree task for task, with durations
compared as exact hex floats.
"""

import pytest
from _scalar_rings import plan_signature, scalar_planning

from repro.api import Session, SessionConfig
from repro.registry import available_strategies, get_strategy

PHASES = ("forward", "backward")
SEEDS = (0, 1)
GPUS = (16, 32, 64)

# Registered strategies with default knobs, plus the knobs that change which
# ring path runs: routed hops on te_cp's global ring, contiguous chunking.
VARIANTS = [(name, {}) for name in available_strategies()] + [
    ("te_cp", {"use_routing": True}),
    ("zeppelin", {"balanced_chunking": False}),
]


def _config(gpus: int, seed: int) -> SessionConfig:
    return SessionConfig(
        model="7b",
        cluster_preset="A",
        num_gpus=gpus,
        total_context=gpus * 4096,
        dataset="arxiv",
        num_steps=1,
        seed=seed,
    )


def _plans(session: Session, name: str, kwargs: dict) -> list:
    strategy = get_strategy(name).obj(session.context, **kwargs)
    return [
        (plan.metadata, plan_signature(plan))
        for batch in session.batches
        for phase in PHASES
        for plan in [strategy.plan_layer(batch, phase=phase)]
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("gpus", GPUS)
def test_plans_match_scalar_oracle(gpus, seed):
    session = Session(_config(gpus, seed))
    for name, kwargs in VARIANTS:
        vectorised = _plans(session, name, kwargs)
        with scalar_planning():
            scalar = _plans(session, name, kwargs)
        assert vectorised == scalar, (name, kwargs)
        assert all(tasks for _, tasks in vectorised)


def test_scalar_planning_is_active_inside_the_context():
    from repro.core.attention_engine import AttentionEngine

    shipped = AttentionEngine.emit_ring
    with scalar_planning():
        assert AttentionEngine.emit_ring is not shipped
    assert AttentionEngine.emit_ring is shipped
