"""Golden identity of serving runs: results must match recorded SHA-256s.

Each case is one :class:`~repro.serve.ServeSpec` run on a seeded session;
``tests/fixtures/serve_golden.json`` holds ``sha256(ServeResult.to_json())``
plus the request, shed and simulation counts of every case, as produced by
the original key-sorted-list request queue with eagerly computed queued work.
Any change to the serve loop's data structures must leave every record
byte-identical.

The cases cover the three admission policies (``slo_aware`` at a 0.5 s SLO)
with and without a coalescing window, open-loop Poisson traffic from
under-load to 16x overload, the closed-loop ``slo_aware`` run of the serving
benchmark, and an autoscaled run that grows and shrinks its capacity.

Regenerate the records (only when a result change is intended) with::

    PYTHONPATH=src python tests/test_serve_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import Session
from repro.serve.arrivals import RequestCell
from repro.serve.spec import ServeSpec

FIXTURE = Path(__file__).parent / "fixtures" / "serve_golden.json"

SEEDS = (0, 1, 2)

# Three cells with distinct priorities, so priority admission reorders.
MIX = (
    RequestCell("zeppelin", weight=2.0),
    RequestCell("te_cp", priority=1),
    RequestCell("llama_cp", priority=2),
)

ADMISSIONS = {
    "fifo": {"admission": "fifo"},
    "priority": {"admission": "priority"},
    "slo_aware": {"admission": "slo_aware", "slo_s": 0.5},
}

OPEN_RATES = (100.0, 400.0, 1600.0)
COALESCE = (0.0, 0.01)

# The closed-loop spec of benchmarks/test_bench_serve_throughput.py.
CLOSED = ServeSpec(
    mix={"zeppelin": 2.0, "te_cp": 1.0, "llama_cp": 1.0},
    arrival="closed",
    clients=64,
    think_time_s=0.2,
    duration_s=10.0,
    concurrency=4,
    slo_s=2.0,
    admission="slo_aware",
)

AUTOSCALE = ServeSpec(
    mix={"zeppelin": 1.0},
    arrival="closed",
    clients=64,
    think_time_s=0.05,
    duration_s=20.0,
    scale_policy="queue_depth",
    min_gpus=16,
    max_gpus=64,
)


def cases() -> dict[str, ServeSpec]:
    """Every golden case by id (the fixture's keys, minus the seed)."""
    out: dict[str, ServeSpec] = {}
    for name, knobs in ADMISSIONS.items():
        for coalesce_s in COALESCE:
            for rate in OPEN_RATES:
                out[f"open-{name}-c{coalesce_s:g}-r{rate:g}"] = ServeSpec(
                    mix=MIX,
                    rate=rate,
                    duration_s=0.25,
                    coalesce_s=coalesce_s,
                    **knobs,
                )
    out["closed-slo_aware"] = CLOSED
    out["autoscale-queue_depth"] = AUTOSCALE
    return out


def session(seed: int) -> Session:
    return Session(
        model="3b",
        num_gpus=16,
        dataset="arxiv",
        total_context=32 * 1024,
        num_steps=1,
        seed=seed,
    )


def record(result) -> dict:
    return {
        "sha256": hashlib.sha256(result.to_json().encode("utf-8")).hexdigest(),
        "num_requests": result.num_requests,
        "shed_count": result.shed_count,
        "simulations": result.simulations,
    }


def run_all() -> dict[str, dict]:
    """Run every case on one session per seed, in a fixed order."""
    specs = cases()
    out: dict[str, dict] = {}
    for seed in SEEDS:
        sess = session(seed)
        for case_id, spec in specs.items():
            out[f"{case_id}-s{seed}"] = record(sess.serve(spec))
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def observed() -> dict[str, dict]:
    return run_all()


def test_fixture_covers_every_case(golden):
    expected = {f"{case}-s{seed}" for seed in SEEDS for case in cases()}
    assert set(golden) == expected


def test_cases_exercise_what_they_claim(golden):
    # Overload and tight SLOs must actually shed, and slo_aware must not shed
    # everything; autoscaled runs differ from a fixed-capacity run.
    shed = {k: v["shed_count"] for k, v in golden.items()}
    assert all(shed[k] == 0 for k in shed if "-fifo-" in k or "-priority-" in k)
    assert any(shed[k] > 0 for k in shed if k.startswith("open-slo_aware-"))
    assert all(
        v["shed_count"] < v["num_requests"] for v in golden.values()
    )


@pytest.mark.parametrize(
    "case_id", [f"{case}-s{seed}" for seed in SEEDS for case in cases()]
)
def test_serve_result_matches_golden(case_id, golden, observed):
    assert observed[case_id] == golden[case_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_serve_golden.py --write")
    FIXTURE.write_text(
        json.dumps(run_all(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {FIXTURE}")
