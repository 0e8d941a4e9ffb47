"""Benchmark of the batched lane-parallel kernel vs sequential simulation.

Builds a 64-rank contended plan shaped like one context-parallel layer with
rng-jittered durations (no coincidental same-instant ties, the regime real
strategy plans live in), then times a 64-lane duration-varying batch —
every lane the base durations under a different scalar, the sweep/resilience
shape — against the same 64 variants run sequentially through
:meth:`Simulator.run` on the warm compiled plan.

The batch must be bit-identical per lane and at least ``MIN_SPEEDUP`` ahead
in warm lanes/sec: the kernel's schedule replay reduces each lane after the
pilot to one add (or divide) per task, so on this plan nearly all 64 lanes
replay.  A jitter-lane batch (per-task noise, breaking replay groupings)
bounds the kernel's worst case: every lane is a schedule-capturing engine
run plus a failed replay attempt, so its ratio to plain engine runs must
stay at least ``MIN_JITTER_RATIO``.  CI runs this file in the perf-smoke job
and prints the lanes/sec table.
"""

import dataclasses
import random
import time

from repro.core.plan import ExecutionPlan, TaskKind
from repro.sim.batch import Lane, simulate_batch
from repro.sim.engine import Simulator

NUM_RANKS = 64
ROUNDS = 3
FANOUT = 4
GPUS_PER_NIC = 2
NUM_LANES = 64

# The kernel's floor on the duration-varying batch (measured ~10x on the
# reference hardware; 3x leaves headroom for slow CI machines).
MIN_SPEEDUP = 3.0

# The floor on the jitter batch, where replay never succeeds: what schedule
# capture and the failed replay attempts cost over plain engine runs
# (measured ~1.0x on a 2-vCPU container).
MIN_JITTER_RATIO = 0.65


def _build_contended_plan() -> ExecutionPlan:
    """One layer at 64 ranks: compute -> NIC-contended sends -> reduce.

    Durations carry multiplicative rng jitter so distinct completion
    instants never coincide by decimal accident — same-instant groups come
    only from genuine structure, as in strategy-generated plans.
    """
    rng = random.Random(7)
    plan = ExecutionPlan()
    last = [None] * NUM_RANKS
    for rnd in range(ROUNDS):
        for rank in range(NUM_RANKS):
            deps = [last[rank]] if last[rank] is not None else []
            compute = plan.add(
                f"attn:{rnd}:{rank}",
                TaskKind.ATTENTION,
                0.001 * (1.0 + rng.random() * 0.35),
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
                        0.0004 * (1.0 + rng.random() * 0.5),
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
                0.0008 * (1.0 + rng.random() * 0.4),
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


def test_bench_batch_sim(benchmark, printed_results):
    plan = _build_contended_plan()
    cp = plan.compiled()
    n = cp.num_tasks
    base = cp.durations

    # The sweep/resilience shape: one structure, 64 scalar duration variants.
    scalar_lanes = [
        Lane(durations=tuple(d * (0.75 + 0.011 * k) for d in base))
        for k in range(NUM_LANES)
    ]
    # Worst case for replay: per-task noise regroups completion instants.
    rng = random.Random(13)
    jitter_lanes = [
        Lane(durations=tuple(d * (0.8 + rng.random() * 0.4) for d in base))
        for _ in range(NUM_LANES)
    ]

    sim = Simulator(record_trace=False)

    def sequential(lanes):
        return [
            sim.run(dataclasses.replace(cp, durations=lane.durations))
            for lane in lanes
        ]

    # Warm everything once, and pin bit-identity per lane before timing.
    batch_results = simulate_batch(cp, scalar_lanes)
    for lane, got, want in zip(
        scalar_lanes, batch_results, sequential(scalar_lanes)
    ):
        assert got.makespan_s == want.makespan_s
        assert got.start_times == want.start_times
        assert got.end_times == want.end_times
    for got, want in zip(
        simulate_batch(cp, jitter_lanes), sequential(jitter_lanes)
    ):
        assert got.makespan_s == want.makespan_s
        assert got.end_times == want.end_times

    benchmark.pedantic(
        lambda: simulate_batch(cp, scalar_lanes), rounds=3, iterations=1
    )
    batch_s, _ = _time(lambda: simulate_batch(cp, scalar_lanes))
    seq_s, _ = _time(lambda: sequential(scalar_lanes))
    jitter_batch_s, _ = _time(lambda: simulate_batch(cp, jitter_lanes))
    jitter_seq_s, _ = _time(lambda: sequential(jitter_lanes))

    speedup = seq_s / batch_s
    assert speedup >= MIN_SPEEDUP, (
        f"batch-kernel regression: {NUM_LANES / batch_s:,.0f} lanes/s is only "
        f"{speedup:.1f}x sequential's {NUM_LANES / seq_s:,.0f} lanes/s"
    )
    jitter_ratio = jitter_seq_s / jitter_batch_s
    assert jitter_ratio >= MIN_JITTER_RATIO, (
        f"no-replay regression: jitter lanes run at {jitter_ratio:.2f}x "
        f"sequential (floor {MIN_JITTER_RATIO}x)"
    )

    printed_results.append(
        "\n".join(
            [
                f"Batched simulation ({NUM_RANKS}-rank contended plan, "
                f"{n} tasks, {NUM_LANES} lanes)",
                f"  sequential            : {seq_s * 1e3:9.2f} ms "
                f"({NUM_LANES / seq_s:,.0f} lanes/s)",
                f"  batched (scalar lanes): {batch_s * 1e3:9.2f} ms "
                f"({NUM_LANES / batch_s:,.0f} lanes/s)",
                f"  batch speedup         : {speedup:.1f}x "
                f"(floor {MIN_SPEEDUP}x)",
                f"  jitter lanes (no replay): {jitter_batch_s * 1e3:9.2f} ms "
                f"batched vs {jitter_seq_s * 1e3:9.2f} ms sequential "
                f"({jitter_ratio:.2f}x, floor {MIN_JITTER_RATIO}x)",
            ]
        )
    )
