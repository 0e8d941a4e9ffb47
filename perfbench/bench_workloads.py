"""The benchmark's three workloads: set-up, one timed operation, output checks.

Every operation is a *cold* step followed by a *warm* step that repeats the
same work on the objects the cold step warmed, ``warm_repeats`` times.  Each
step is timed in scaled seconds (``bench_speed``).  The workloads:

* ``compare_cold_64g`` — a cold ``Session.compare`` on a fresh session, then
  the same compare on that session (plan cache warm).
* ``sweep_resilience_32g`` — a pass over a fresh result-cache directory, then
  passes over the same directory (all reads).
* ``serve_open_4x`` — a serving run on a session whose plans were warmed in
  set-up, then the same run again.

Each step's answer is checked against the set-up run and against earlier
repeats; a mismatch raises :class:`CheckFailed`.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any

import repro.exec.sweep as sweep_module
from repro.api import Session, SessionConfig
from repro.dynamics.models import PerturbationConfig
from repro.exec.cache import ResultCache
from repro.exec.spec import SweepSpec
from repro.exec.worker import SessionPool
from repro.registry import get_strategy
from repro.serve.driver import ServeSimulation
from repro.serve.spec import ServeSpec

from bench_speed import ZERO, Timing, timed

COMPARE = ("te_cp", "llama_cp", "hybrid_dp", "zeppelin")
SERVE_MIX = {"zeppelin": 2, "te_cp": 1, "llama_cp": 1}
PHASES = ("forward", "backward")


class CheckFailed(Exception):
    """An operation's output differs from what the benchmark expects."""


@dataclass
class OpResult:
    cold: Timing
    warm: Timing  # all warm repeats together
    cold_items: int
    warm_items: int  # over all warm repeats
    attempted: int
    failed: int


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    """Base: one workload, with inputs drawn from the benchmark seed."""

    name = ""
    item = ""  # what the cold/warm rates count
    # Modules whose import time is part of set-up (timed in a child process).
    modules: tuple[str, ...] = ("repro.api",)
    strategies: tuple[str, ...] = COMPARE
    warm_repeats = 1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def inputs(self) -> list[Any]:
        raise NotImplementedError

    def warm_up(self, inp: Any) -> Any:
        """Set-up for one input; returns the state :meth:`op` runs on."""
        raise NotImplementedError

    def op(self, state: Any) -> OpResult:
        raise NotImplementedError

    def trace_extras(
        self, state: Any, untraced: OpResult
    ) -> dict[str, tuple[float, str]]:
        """Per-layer figures the traced run adds for this workload."""
        return {}

    def aliases(self, ops: list[OpResult]) -> dict[str, tuple[float, str, int]]:
        """The workload's figures under the names used in the README."""
        return {}


# -- compare_cold_64g ---------------------------------------------------------


# More inputs than a run gets through: every operation plans another input.
COMPARE_INPUTS = 12


class CompareCold(Workload):
    name = "compare_cold_64g"
    item = "strategy evaluations"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.references: dict[int, str] = {}

    def inputs(self) -> list[Any]:
        return [
            _compare_config(64, COMPARE_INPUTS * self.seed + k)
            for k in range(COMPARE_INPUTS)
        ]

    def warm_up(self, inp: SessionConfig) -> SessionConfig:
        return inp  # set-up is the imports alone: every operation plans cold

    def op(self, config: SessionConfig) -> OpResult:
        session = Session(config)
        cold, cold_t = timed(session.compare, COMPARE)
        cold_doc = cold.to_json()
        warm_t = ZERO
        for _ in range(self.warm_repeats):
            warm, t = timed(session.compare, COMPARE)
            warm_t += t
            _require(warm.to_json() == cold_doc, "warm compare differs from cold")
        zeppelin = cold.get("zeppelin").tokens_per_second
        te_cp = cold.get("te_cp").tokens_per_second
        _require(
            zeppelin > te_cp,
            f"zeppelin {zeppelin:.1f} tok/s does not beat te_cp {te_cp:.1f} tok/s",
        )
        reference = self.references.setdefault(config.seed, cold_doc)
        _require(cold_doc == reference, "compare differs from the first of its input")
        n = len(COMPARE)
        repeats = self.warm_repeats
        return OpResult(cold_t, warm_t, n, n * repeats, n * (1 + repeats), 0)

    def trace_extras(
        self, state: Any, untraced: OpResult
    ) -> dict[str, tuple[float, str]]:
        # The planning scaling curve: cold planning of every strategy, every
        # batch and both phases, at the same tokens per GPU.
        out = {}
        for gpus in (16, 32, 64):
            session = Session(_compare_config(gpus, state.seed))
            _, t = timed(_plan_all, session)
            out[f"plan.s.{gpus}g"] = (t.host_s, "s")
        return out

    def aliases(self, ops: list[OpResult]) -> dict[str, tuple[float, str, int]]:
        return {"compare_cold_s": (median(o.cold.scaled_s for o in ops), "s", len(ops))}


def _plan_all(session: Session) -> None:
    for name in COMPARE:
        strategy = get_strategy(name).obj(session.context)
        for batch in session.batches:
            for phase in PHASES:
                strategy.plan_layer(batch, phase=phase)


def _compare_config(gpus: int, seed: int) -> SessionConfig:
    return SessionConfig(
        model="7b",
        cluster_preset="A",
        num_gpus=gpus,
        total_context=gpus * 4096,
        dataset="arxiv",
        num_steps=3,
        seed=seed,
    )


# -- sweep_resilience_32g -------------------------------------------------------


RECOVERIES = ("checkpoint_restart", "elastic")
MTTF_S = (None, 60.0, 15.0)
SEEDS_PER_GRID = 4
REPLICAS = 200


class SweepResilience(Workload):
    name = "sweep_resilience_32g"
    item = "points"
    warm_repeats = 2
    modules = ("repro.api", "repro.exec.sweep", "repro.dynamics.recovery")

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        seeds = tuple(SEEDS_PER_GRID * seed + i for i in range(SEEDS_PER_GRID))
        # run_sweep raises on the first point that fails, so the grid runs as
        # one call per (strategy, recovery, MTTF) slice, and every point of a
        # call that raises counts as failed.
        self.slices = {
            (strategy, recovery, mttf): SweepSpec(
                base={
                    "model": "3b",
                    "num_gpus": 32,
                    "dataset": "arxiv",
                    "total_context": 64 * 1024,
                    "num_steps": 2,
                    "num_iterations": 24,
                    "strategy": strategy,
                    "recovery": recovery,
                    "mttf_s": mttf,
                    "perturbation": PerturbationConfig(
                        mttf_s=mttf, straggler_frac=0.125, max_failures=2
                    ).to_dict(),
                },
                axes={"seed": seeds, "replica": tuple(range(REPLICAS))},
            )
            for mttf in MTTF_S
            for recovery in RECOVERIES
            for strategy in COMPARE
        }
        self.sizes = {key: len(spec.points()) for key, spec in self.slices.items()}
        self.num_points = sum(self.sizes.values())
        self.reference: dict[tuple, str] | None = None
        self.repeats: dict[str, dict[tuple, str]] = {}

    def inputs(self) -> list[Any]:
        return [None]

    def _pass(self, pool: SessionPool, cache: Any) -> dict[tuple, Any]:
        """One pass over every slice: a SweepResult, or what the call raised."""
        out: dict[tuple, Any] = {}
        for key, spec in self.slices.items():
            try:
                out[key] = sweep_module.run_sweep(
                    spec, backend="serial", cache=cache, pool=pool
                )
            except Exception as exc:  # counted as failed points, never hidden
                out[key] = exc
        return out

    @staticmethod
    def _results_doc(outcome: Any) -> str:
        if isinstance(outcome, Exception):
            return f"raised {type(outcome).__name__}: {outcome}"
        return json.dumps([r.to_dict() for r in outcome.results], sort_keys=True)

    def warm_up(self, inp: Any) -> SessionPool:
        """Plan everything with a pass that uses no cache: the reference run."""
        pool = SessionPool()
        docs = {k: self._results_doc(v) for k, v in self._pass(pool, False).items()}
        if self.reference is None:
            self.reference = docs
        _require(docs == self.reference, "set-up pass differs from the first one")
        return pool

    def _check_pass(self, label: str, outcome: dict[tuple, Any]) -> int:
        """Check one pass against the set-up run; returns its failed points."""
        reference = self.reference or {}
        failed = 0
        repeats = self.repeats.setdefault(label, {})
        for key, result in outcome.items():
            _require(
                self._results_doc(result) == reference.get(key),
                f"{label} pass, slice {key}: results differ from the set-up run",
            )
            if isinstance(result, Exception):
                failed += self.sizes[key]
                continue
            meta = {k: v for k, v in result.meta.items() if k != "timing"}
            meta = json.dumps(meta, sort_keys=True)
            _require(
                repeats.setdefault(key, meta) == meta,
                f"{label} pass, slice {key}: sweep meta differs between repeats",
            )
            if label == "warm":
                _require(
                    result.meta["cache_hits"] == self.sizes[key],
                    f"warm pass, slice {key}: {result.meta['cache_hits']} cache hits "
                    f"of {self.sizes[key]} points",
                )
        return failed

    def op(self, pool: SessionPool) -> OpResult:
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        try:
            cache = ResultCache(cache_dir)
            cold, cold_t = timed(self._pass, pool, cache)
            warm_t = ZERO
            warm = []
            for _ in range(self.warm_repeats):
                outcome, t = timed(self._pass, pool, cache)
                warm.append(outcome)
                warm_t += t
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        cold_failed = self._check_pass("cold", cold)
        warm_failed = sum(self._check_pass("warm", outcome) for outcome in warm)
        n = self.num_points
        repeats = self.warm_repeats
        return OpResult(
            cold_t, warm_t, n - cold_failed, n * repeats - warm_failed,
            n * (1 + repeats), cold_failed + warm_failed,
        )

    def aliases(self, ops: list[OpResult]) -> dict[str, tuple[float, str, int]]:
        cold, warm = rates(ops)
        return {
            "sweep_cold_points_per_s": (cold, "1/s", len(ops)),
            "sweep_warm_points_per_s": (warm, "1/s", len(ops)),
        }


# -- serve_open_4x ----------------------------------------------------------------


class ServeOpen4x(Workload):
    name = "serve_open_4x"
    item = "requests"
    modules = ("repro.api", "repro.serve.driver")
    strategies = tuple(SERVE_MIX)
    num_inputs = 16
    spec = ServeSpec(
        mix=SERVE_MIX,
        arrival="poisson",
        rate=400.0,
        duration_s=0.5,
        admission="fifo",
        concurrency=4,
    )
    base_rate = 100.0  # the 1x load of the overload ratio

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.references: dict[int, str] = {}

    def inputs(self) -> list[Any]:
        return [
            SessionConfig(
                model="3b",
                num_gpus=16,
                total_context=32 * 1024,
                dataset="arxiv",
                num_steps=1,
                seed=self.num_inputs * self.seed + k,
            )
            for k in range(self.num_inputs)
        ]

    def warm_up(self, config: SessionConfig) -> Session:
        """Plan every cell of the mix."""
        session = Session(config)
        for strategy in SERVE_MIX:
            session.run(strategy)
        return session

    def _serve(self, session: Session, spec: ServeSpec) -> tuple[Any, Timing]:
        (sim, result), timing = timed(_serve_run, session, spec)
        # One simulation per distinct cell: every other dispatch of a cell
        # joins its in-flight execution or hits the in-run cache.
        cells = {execution.cell for execution in sim.executions}
        _require(
            result.simulations == len(cells),
            f"{result.simulations} simulations for {len(cells)} distinct cells",
        )
        _require(
            result.completed + result.shed_count == result.num_requests,
            f"completed {result.completed} + shed {result.shed_count} "
            f"!= requests {result.num_requests}",
        )
        return result, timing

    def op(self, session: Session) -> OpResult:
        cold, cold_t = self._serve(session, self.spec)
        warm, warm_t = self._serve(session, self.spec)
        doc = cold.to_json()
        _require(warm.to_json() == doc, "repeated serve run differs")
        reference = self.references.setdefault(session.config.seed, doc)
        _require(doc == reference, "serve run differs from the first run of its input")
        n = cold.num_requests
        return OpResult(cold_t, warm_t, n, n, 2 * n, 0)

    def trace_extras(
        self, state: Session, untraced: OpResult
    ) -> dict[str, tuple[float, str]]:
        # Host seconds per request at 4x over the same at 1x, same window.
        per_request_4x = median(
            (
                untraced.cold.scaled_s / untraced.cold_items,
                untraced.warm.scaled_s / untraced.warm_items,
            )
        )
        base = self.spec.replace(rate=self.base_rate)
        samples = []
        for _ in range(5):
            result, timing = self._serve(state, base)
            samples.append(timing.scaled_s / result.num_requests)
        ratio = per_request_4x / median(samples)
        return {"serve.overload_cost_ratio": (ratio, "ratio")}

    def aliases(self, ops: list[OpResult]) -> dict[str, tuple[float, str, int]]:
        return {"serve_host_rps": (rates(ops)[0], "1/s", len(ops))}


def _serve_run(session: Session, spec: ServeSpec) -> tuple[ServeSimulation, Any]:
    sim = ServeSimulation(session, spec=spec)
    return sim, sim.run()


def rates(ops: list[OpResult]) -> tuple[float, float]:
    """Cold and warm items per scaled second over all of a run's operations."""
    cold = sum(o.cold_items for o in ops) / sum(o.cold.scaled_s for o in ops)
    warm = sum(o.warm_items for o in ops) / sum(o.warm.scaled_s for o in ops)
    return cold, warm


WORKLOADS = {w.name: w for w in (CompareCold, SweepResilience, ServeOpen4x)}
