"""Benchmark of cold Transformer Engine CP planning as the cluster grows.

te_cp runs every sequence of a batch over one global ring, so planning one
layer emits ``G`` compute rounds on ``G`` ranks and counts the causal pairs
of every (rank, round, sequence).  The attention engine counts them as one
exact numpy pair matrix per ring; the frozen scalar path in
``tests/_scalar_rings.py`` counts them one Python call at a time.

The benchmark prints the ``(gpus, seconds)`` scaling table of cold
``plan_layer`` (forward plus backward, fresh strategy, empty ring cache) at
16-128 GPUs.  At 64 GPUs it also plans through the scalar oracle: the plans
must be identical, and the vectorised path must stay ``MIN_SPEEDUP`` ahead.
The gate is a ratio on the same machine, not an absolute floor.  CI runs this
file as a perf smoke step and uploads the table.
"""

import sys
import time
from pathlib import Path

from repro.api import Session, SessionConfig
from repro.baselines import te_cp
from repro.registry import get_strategy

# The scalar oracle lives with the tests it was frozen for.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from _scalar_rings import plan_signature, scalar_planning  # noqa: E402

GPUS = (16, 32, 64, 128)
GATE_GPUS = 64
PHASES = ("forward", "backward")

# Measured ~7x at 64 GPUs on a 2-vCPU container (both paths share the
# plan.add emission cost, which the pair counting no longer dwarfs); 3x
# leaves headroom for noisy CI machines.
MIN_SPEEDUP = 3.0
REPEATS = 2


def _session(gpus: int) -> Session:
    return Session(
        SessionConfig(
            model="7b",
            cluster_preset="A",
            num_gpus=gpus,
            total_context=gpus * 4096,
            dataset="arxiv",
            num_steps=1,
            seed=3,
        )
    )


def _cold_plan(session: Session) -> tuple[float, list]:
    """Seconds to plan both phases of the session's batch from cold."""
    te_cp._global_ring_work.cache_clear()
    strategy = get_strategy("te_cp").obj(session.context)
    (batch,) = session.batches
    start = time.perf_counter()
    plans = [strategy.plan_layer(batch, phase=phase) for phase in PHASES]
    return time.perf_counter() - start, plans


def _best(session: Session) -> tuple[float, list]:
    runs = [_cold_plan(session) for _ in range(REPEATS)]
    return min(seconds for seconds, _ in runs), runs[0][1]


def test_te_cp_cold_planning_scales_and_beats_scalar_oracle():
    rows = []
    gate = None
    for gpus in GPUS:
        session = _session(gpus)
        seconds, plans = _best(session)
        tasks = sum(plan.num_tasks for plan in plans)
        rows.append((gpus, seconds, tasks))
        if gpus == GATE_GPUS:
            with scalar_planning():
                scalar_s, scalar_plans = _best(session)
            assert [plan_signature(p) for p in plans] == [
                plan_signature(p) for p in scalar_plans
            ]
            gate = (scalar_s, seconds)

    print("\n\nCold te_cp plan_layer (forward + backward, one batch, 7b, 4096 tok/GPU)")
    print(f"{'gpus':>6}  {'seconds':>9}  {'tasks':>8}  {'tasks/s':>10}")
    for gpus, seconds, tasks in rows:
        print(f"{gpus:>6}  {seconds:>9.3f}  {tasks:>8}  {tasks / seconds:>10.0f}")
    scalar_s, vector_s = gate
    speedup = scalar_s / vector_s
    print(
        f"scalar oracle at {GATE_GPUS} GPUs: {scalar_s:.3f}s, "
        f"vectorised {vector_s:.3f}s, speedup {speedup:.1f}x (gate >= {MIN_SPEEDUP}x)"
    )
    assert speedup >= MIN_SPEEDUP, f"vectorised planning only {speedup:.1f}x the scalar"
