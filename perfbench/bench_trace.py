"""Span tracing of the program's layers, installed from outside the program.

The traced run wraps the public functions of each layer in ``src/repro`` with
a recording wrapper, so the program itself is measured without changing a line
of it.  Every wrapped call becomes a span (name, start, end, the span that
caused it); a layer's *self time* is its span time minus the part covered by
its child spans.  Spans stay in memory and are written out once at the end.

A few very hot calls (``Batcher.cost_estimate``, ``Simulator.run``) are only
counted, not timed: a timed wrapper would add more cost to them than they
spend, and their time already shows as the self time of the span around them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

# (metric stem, module, qualified attribute, timed).  Functions are rebound in
# every loaded ``repro`` module that imported them by name.
TARGETS = (
    ("data.batches", "repro.data.datasets", "SyntheticDataset.batches", True),
    ("core.partition", "repro.core.partitioner", "SequencePartitioner.partition", True),
    (
        "core.emit_attention",
        "repro.core.attention_engine",
        "AttentionEngine.emit_attention",
        True,
    ),
    ("core.route", "repro.core.routing", "RoutingLayer.route", True),
    ("core.remap", "repro.core.remapping", "RemappingLayer.plan", True),
    ("compile", "repro.sim.compile", "compile_plan", True),
    ("sim.simulate_many", "repro.sim.batch", "simulate_many", True),
    ("sim.engine_run", "repro.sim.engine", "Simulator.run", False),
    (
        "training.measure_throughput",
        "repro.training.throughput",
        "measure_throughput",
        True,
    ),
    ("dynamics.run_resilient", "repro.dynamics.recovery", "run_resilient", True),
    ("dynamics.scale_session", "repro.dynamics.recovery", "scale_session", True),
    ("worker.execute", "repro.exec.worker", "execute_payload", True),
    ("sweep.run_sweep", "repro.exec.sweep", "run_sweep", True),
    ("sweep.point_key", "repro.exec.cache", "point_key", True),
    ("cache.get", "repro.exec.cache", "ResultCache.get", True),
    ("cache.put", "repro.exec.cache", "ResultCache.put", True),
    ("serve.offer", "repro.serve.queue", "RequestQueue.offer", True),
    ("serve.queued_work", "repro.serve.queue", "RequestQueue.queued_work_s", True),
    ("serve.cost_estimate", "repro.serve.batcher", "Batcher.cost_estimate", False),
    ("serve.collect", "repro.serve.batcher", "Batcher.collect", True),
    ("serve.execute", "repro.serve.batcher", "Batcher.execute", True),
    ("serve.rescale", "repro.serve.batcher", "Batcher.rescale", True),
    ("serve.run", "repro.serve.driver", "ServeSimulation.run", True),
)

# Strategies whose ``plan_layer`` is traced as ``plan.<name>``.
PLAN_STRATEGIES = ("te_cp", "llama_cp", "hybrid_dp", "zeppelin")


def _num_tasks(plan: Any) -> int:
    """Task count of an ExecutionPlan or a CompiledPlan."""
    count = getattr(plan, "num_tasks", None)
    return count if isinstance(count, int) else len(plan.tasks)


class Tracer:
    """In-memory span recorder with parent links and per-name totals."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.serve_results: list[Any] = []
        self._stack: list[list[Any]] = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._restore: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------------

    def timed(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                self._stack.pop()
                elapsed = end - start
                if self._stack:
                    self._stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - frame[1]
                self.spans.append((span_id, parent, name, start, end))
                if hook is not None:
                    hook(self, args, result if ok else None, ok)
            return result

        return wrapper

    def counted(
        self, name: str, fn: Callable, hook: Callable | None = None
    ) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.calls[name] += 1
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result, True)
            return result

        return wrapper

    # -- installation ------------------------------------------------------------

    def _patch_attr(self, owner: Any, attr: str, replacement: Any) -> None:
        had = attr in vars(owner)
        original = vars(owner).get(attr)
        setattr(owner, attr, replacement)
        if had:
            self._restore.append(lambda: setattr(owner, attr, original))
        else:
            self._restore.append(lambda: delattr(owner, attr))

    def _patch_function(self, module: Any, attr: str, replacement: Any) -> None:
        original = getattr(module, attr)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or loaded is None:
                continue
            if vars(loaded).get(attr) is original:
                self._patch_attr(loaded, attr, replacement)

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        from repro.registry import get_strategy

        for name, module_name, qualname, timed in TARGETS:
            module = importlib.import_module(module_name)
            hook = _HOOKS.get(name)
            wrap = self.timed if timed else self.counted
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(module, cls_name)
                self._patch_attr(owner, attr, wrap(name, getattr(owner, attr), hook))
            else:
                self._patch_function(
                    module, qualname, wrap(name, getattr(module, qualname), hook)
                )
        # Read every original first: a strategy class that inherits another's
        # plan_layer must not wrap the other's already-patched wrapper.
        classes = [(s, get_strategy(s).obj) for s in PLAN_STRATEGIES]
        originals = [cls.plan_layer for _, cls in classes]
        for (strategy, cls), original in zip(classes, originals):
            self._patch_attr(
                cls,
                "plan_layer",
                self.timed(f"plan.{strategy}", original, _count_plan_tasks),
            )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line (id, parent, name, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in sorted(self.spans):
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


# -- per-call hooks -------------------------------------------------------------


def _count_plan_tasks(tracer: Tracer, args: tuple, result: Any, ok: bool) -> None:
    if ok:
        tracer.counts["plan.tasks"] += len(result.tasks)


def _count_sim_requests(tracer: Tracer, args: tuple, result: Any, ok: bool) -> None:
    requests = args[0]
    tracer.counts["sim.requests"] += len(requests)
    tracer.counts["sim.tasks"] += sum(_num_tasks(r.plan) for r in requests)


def _count_sweep(tracer: Tracer, args: tuple, result: Any, ok: bool) -> None:
    if ok:
        tracer.counts["sweep.deduped"] += result.meta["deduped"]
    else:
        tracer.counts["sweep.failed_points"] += len(args[0].points())


def _keep_serve_result(tracer: Tracer, args: tuple, result: Any, ok: bool) -> None:
    if ok:
        tracer.serve_results.append(result)


_HOOKS = {
    "sim.simulate_many": _count_sim_requests,
    "sweep.run_sweep": _count_sweep,
    "serve.run": _keep_serve_result,
}


# -- the per-layer table --------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, counters: dict[str, int]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans and the telemetry hub's counters.

    ``.s`` values are self times; ``counters`` are the ``repro.obs``
    counters (``batch_lanes*``, ``sweep_cache_*``) of the traced region.
    """
    out: dict[str, tuple[float, str]] = {}

    def span(stem: str, key: str | None = None, calls: bool = True) -> None:
        key = key or stem
        out[f"{stem}.s"] = (tracer.self_s.get(key, 0.0), "s")
        if calls:
            out[f"{stem}.calls"] = (tracer.calls.get(key, 0), "count")

    span("data.batches")
    for strategy in PLAN_STRATEGIES:
        span(f"plan.{strategy}")
    out["plan.tasks"] = (int(tracer.counts["plan.tasks"]), "count")
    for call in ("partition", "emit_attention", "route", "remap"):
        span(f"core.{call}")
    span("compile")
    span("sim.simulate_many")
    out["sim.requests"] = (int(tracer.counts["sim.requests"]), "count")
    simulate_s = tracer.total_s.get("sim.simulate_many", 0.0)
    out["sim.tasks_per_s"] = (_ratio(tracer.counts["sim.tasks"], simulate_s), "1/s")
    lanes = counters.get("batch_lanes", 0)
    out["sim.lanes"] = (lanes, "count")
    replayed = counters.get("batch_lanes_replayed", 0)
    deduped = counters.get("batch_lanes_deduped", 0)
    out["sim.replay_ratio"] = (_ratio(replayed, lanes), "frac")
    out["sim.dedup_ratio"] = (_ratio(deduped, lanes), "frac")
    out["sim.engine_run.calls"] = (tracer.calls.get("sim.engine_run", 0), "count")
    span("training.measure_throughput")
    span("dynamics.run_resilient")
    span("dynamics.scale_session")
    span("worker.execute")
    span("sweep.self", "sweep.run_sweep")
    span("sweep.point_key")
    out["sweep.deduped"] = (int(tracer.counts["sweep.deduped"]), "count")
    out["sweep.failed_points"] = (int(tracer.counts["sweep.failed_points"]), "count")
    span("cache.get")
    span("cache.put")
    hits = counters.get("sweep_cache_hits", 0)
    misses = counters.get("sweep_cache_misses", 0)
    out["cache.hit_ratio"] = (_ratio(hits, hits + misses), "frac")
    span("serve.queued_work")
    out["serve.cost_estimate.calls"] = (
        tracer.calls.get("serve.cost_estimate", 0),
        "count",
    )
    span("serve.offer")
    span("serve.execute")
    out["serve.collect.s"] = (tracer.self_s.get("serve.collect", 0.0), "s")
    out["serve.rescale.calls"] = (tracer.calls.get("serve.rescale", 0), "count")
    span("serve.run")
    results = tracer.serve_results
    requests = sum(r.num_requests for r in results)
    out["serve.sims"] = (sum(r.simulations for r in results), "count")
    out["serve.result_cache_hit_ratio"] = (
        _ratio(sum(r.cache_hits for r in results), sum(r.completed for r in results)),
        "frac",
    )
    out["serve.queue_depth_max"] = (
        max((r.max_queue_depth for r in results), default=0),
        "count",
    )
    out["serve.queue_depth_mean"] = (
        _ratio(sum(r.mean_queue_depth for r in results), len(results)),
        "count",
    )
    shed = sum(r.shed_count for r in results)
    out["serve.shed_frac"] = (_ratio(shed, requests), "frac")
    return out
