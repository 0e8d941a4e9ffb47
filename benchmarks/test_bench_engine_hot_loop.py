"""Benchmark of the simulation engine's hot loop at cluster scale.

Builds a 512-rank plan shaped like one context-parallel layer — per-rank
attention compute, fanned-out inter-node transfers contending for NICs shared
by two GPUs, and a per-rank reduction — then times:

* the *cold* path: compiling the plan (resource interning, CSR adjacency)
  plus one simulation, and
* the *warm* path: re-simulating with the :class:`CompiledPlan` cached on the
  plan, the case sweeps and resilience iterations hit.

The frozen pre-refactor engine (``tests/_reference_engine.py``) runs the same
plan under identical (exact) drain semantics, so the benchmark doubles as a
regression guard: results must stay bit-identical, and warm events/sec must
stay at least ``MIN_SPEEDUP`` ahead of the reference.  CI runs this file as a
perf smoke step and prints the events/sec table in the job log.
"""

import sys
import time
from pathlib import Path

from repro.core.plan import ExecutionPlan, TaskKind
from repro.sim.engine import Simulator

# The frozen reference engine lives with the tests it was frozen for.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from _reference_engine import ReferenceSimulator  # noqa: E402

NUM_RANKS = 512
ROUNDS = 3
FANOUT = 4
GPUS_PER_NIC = 2

# The refactor's floor: warm re-simulation must beat the pre-refactor engine
# by at least this factor on the contended cluster-scale plan (measured ~30x
# on the reference hardware; 3x leaves headroom for slow CI machines).
MIN_SPEEDUP = 3.0

# Generous wall-time budget for one warm simulation, so a catastrophic engine
# regression fails loudly even if the reference comparison is skipped.
WARM_BUDGET_S = 10.0


def _build_cluster_scale_plan() -> ExecutionPlan:
    """One layer at 512 ranks: compute -> fanned-out NIC transfers -> reduce."""
    plan = ExecutionPlan()
    last = [None] * NUM_RANKS
    for rnd in range(ROUNDS):
        for rank in range(NUM_RANKS):
            deps = [last[rank]] if last[rank] is not None else []
            compute = plan.add(
                f"attn:{rnd}:{rank}",
                TaskKind.ATTENTION,
                0.001 + (rank % 7) * 1.3e-4 + rnd * 1e-5,
                (f"compute:{rank}",),
                deps=deps,
                rank=rank,
                priority=2,
            )
            sends = []
            for k in range(FANOUT):
                peer = (rank + (rnd * FANOUT + k) * 37 + 1) % NUM_RANKS
                sends.append(
                    plan.add(
                        f"send:{rnd}:{rank}:{peer}",
                        TaskKind.INTER_COMM,
                        0.0004 + ((rank + k) % 5) * 7e-5,
                        (
                            f"nic:{rank // GPUS_PER_NIC}:tx",
                            f"nic:{peer // GPUS_PER_NIC}:rx",
                        ),
                        deps=[compute],
                        rank=rank,
                        priority=k % 2,
                    )
                )
            last[rank] = plan.add(
                f"reduce:{rnd}:{rank}",
                TaskKind.LINEAR,
                0.0008 + (rank % 3) * 1e-4,
                (f"compute:{rank}",),
                deps=sends,
                rank=rank,
                priority=3,
            )
    return plan


def _time(fn, repeats=3):
    """Best-of-``repeats`` wall time of ``fn()`` plus its last return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def test_bench_engine_hot_loop(benchmark, printed_results):
    plan = _build_cluster_scale_plan()
    n = plan.num_tasks
    sim = Simulator(record_trace=False)

    # Cold: compile (interning + CSR flattening) plus the first simulation.
    plan._compiled = None
    compile_s, compiled = _time(lambda: plan.compiled(), repeats=1)
    cold_s, result = _time(lambda: sim.run(plan), repeats=1)
    assert compiled is plan.compiled()

    # Warm: the cached-compile path every re-simulation takes (this is what
    # the pytest-benchmark harness records).
    benchmark.pedantic(lambda: sim.run(plan), rounds=3, iterations=1)
    warm_s, warm_result = _time(lambda: sim.run(plan))
    assert warm_s < WARM_BUDGET_S

    # The frozen pre-refactor engine on the same plan, same drain semantics:
    # results must be bit-identical and the hot loop must be MIN_SPEEDUP ahead.
    reference = ReferenceSimulator(record_trace=False, exact_drain=True)
    ref_s, ref_result = _time(lambda: reference.run(plan), repeats=1)
    assert warm_result.makespan_s == ref_result.makespan_s
    assert warm_result.start_times == ref_result.start_times
    assert warm_result.end_times == ref_result.end_times
    assert result.makespan_s == warm_result.makespan_s

    speedup = ref_s / warm_s
    assert speedup >= MIN_SPEEDUP, (
        f"hot-loop regression: warm {n / warm_s:,.0f} events/s is only "
        f"{speedup:.1f}x the reference engine's {n / ref_s:,.0f} events/s"
    )

    printed_results.append(
        "\n".join(
            [
                "Engine hot loop (512-rank contended plan, "
                f"{n} tasks, makespan {warm_result.makespan_s * 1e3:.2f} ms)",
                f"  compile (cold)        : {compile_s * 1e3:9.2f} ms",
                f"  simulate (cold)       : {cold_s * 1e3:9.2f} ms "
                f"({n / cold_s:,.0f} events/s)",
                f"  simulate (warm)       : {warm_s * 1e3:9.2f} ms "
                f"({n / warm_s:,.0f} events/s)",
                f"  pre-refactor reference: {ref_s * 1e3:9.2f} ms "
                f"({n / ref_s:,.0f} events/s)",
                f"  warm speedup          : {speedup:.1f}x (floor {MIN_SPEEDUP}x)",
            ]
        )
    )
