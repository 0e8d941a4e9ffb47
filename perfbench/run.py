"""Run one benchmark workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload compare_cold_64g --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Runs from the root of a checkout; the program under test is the checkout's
own ``src/`` tree, imported in-process on the ``serial`` backend (no process
pool, no cluster backend).  ``--trace 0`` times the end-to-end metrics with
tracing off; ``--trace 1`` makes the traced run that gives the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable table with sample counts.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SPANS_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = (
    "compare_cold_64g",
    "sweep_resilience_32g",
    "serve_open_4x",
)
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_seconds(modules: tuple[str, ...], strategies: tuple[str, ...]) -> float:
    """Import time of the workload's modules, measured in a fresh interpreter."""
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        + "".join(f"import {m}\n" for m in modules)
        + "from repro.registry import get_strategy\n"
        + "".join(f"get_strategy({s!r})\n" for s in strategies)
        + "print(time.perf_counter() - t0)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Bookkeeping of one benchmark run: operations, failures, problems."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.ops = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, state):
        from bench_workloads import CheckFailed

        try:
            result = self.workload.op(state)
        except CheckFailed as exc:
            self.problems.append(f"check failed: {exc}")
        except Exception:  # an operation that raises counts as failed
            self.problems.append("operation raised:\n" + traceback.format_exc())
        else:
            self.ops.append(result)
            self.attempted += result.attempted
            self.failed += result.failed
            return result
        self.attempted += 1
        self.failed += 1
        return None


def _timed(workload, seconds: float, out: list[str]) -> tuple[Run, dict]:
    from bench_speed import timed
    from bench_workloads import rates

    # Every time below is in scaled seconds (see bench_speed).  The child
    # reports its own import time; the speed sampled meanwhile gives the scale.
    imports = []
    for _ in range(IMPORT_SAMPLES):
        child_s, t = timed(_import_seconds, workload.modules, workload.strategies)
        imports.append(child_s * t.scaled_s / t.host_s)
    warm = []
    states = []
    for inp in workload.inputs():
        state, t = timed(workload.warm_up, inp)
        states.append(state)
        warm.append(t.scaled_s)
    setup_s = median(imports) + median(warm)
    gc.collect()

    # Operations cycle over the inputs; another one starts only while at
    # least half of one still fits in the time left.
    run = Run(workload)
    start = time.perf_counter()
    i = 0
    while True:
        op_start = time.perf_counter()
        run.op(states[i % len(states)])
        i += 1
        now = time.perf_counter()
        if now - start + (now - op_start) / 2 >= seconds:
            break
    n = len(run.ops)
    # With no operation that passed its checks the run is not correct; the
    # rates then read 0.
    cold, hot = rates(run.ops) if run.ops else (0.0, 0.0)
    metrics = {
        "setup_s": (setup_s, "s", f"{len(imports)} imports x {len(warm)} warm-ups"),
        "peak_rss_mb": (_peak_rss_mb(), "MB", "1"),
        "ops_ok_frac": (
            1.0 - run.failed / max(run.attempted, 1), "frac", str(run.attempted)
        ),
        "cold_items_per_s": (cold, "1/s", str(n)),
        "warm_items_per_s": (hot, "1/s", str(n)),
    }
    out.append(f"operations: {i} ({n} passed checks), {workload.item} per step")
    out.append("  times are scaled seconds, host seconds in brackets")
    for k, o in enumerate(run.ops):
        out.append(
            f"  op {k}: cold {o.cold_items} in {o.cold.scaled_s:.4f} s "
            f"({o.cold.host_s:.4f}), warm {o.warm_items} in "
            f"{o.warm.scaled_s:.4f} s ({o.warm.host_s:.4f})"
        )
    if run.ops:
        for alias, (value, unit, count) in workload.aliases(run.ops).items():
            out.append(f"  alias {alias:<28} {value:14.6g} {unit:<6} n={count}")
    return run, metrics


def _traced(workload, out: list[str]) -> tuple[Run, dict]:
    from bench_trace import Tracer, layer_metrics
    from repro.obs.core import Telemetry, telemetry_scope

    inp = workload.inputs()[0]
    run = Run(workload)
    state = workload.warm_up(inp)
    untraced = run.op(state)
    hub = Telemetry()
    tracer = Tracer()
    with telemetry_scope(hub), tracer:
        traced_state = workload.warm_up(inp)
        traced = run.op(traced_state)
    layers = layer_metrics(tracer, hub.counters)
    metrics = {k: (v, u, "1") for k, (v, u) in layers.items()}
    for name in ("plan.s.16g", "plan.s.32g", "plan.s.64g"):
        metrics[name] = (0.0, "s", "0")
    metrics["serve.overload_cost_ratio"] = (0.0, "ratio", "0")
    overhead = 0.0
    if untraced is not None and traced is not None:
        traced_s = (traced.cold + traced.warm).scaled_s
        overhead = traced_s / (untraced.cold + untraced.warm).scaled_s - 1
        for k, (v, u) in workload.trace_extras(state, untraced).items():
            metrics[k] = (v, u, "1")
    metrics["bench.trace_overhead_frac"] = (overhead, "frac", "1")
    path = SPANS_DIR / f"{workload.name}-seed{workload.seed}.spans.jsonl"
    tracer.write(path)
    out.append(
        f"traced run: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}"
    )
    return run, metrics


def run_one(args: argparse.Namespace) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: nothing to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: repro came from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}"]
        if args.trace:
            run, metrics = _traced(workload, lines)
        else:
            run, metrics = _timed(workload, args.seconds, lines)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, (value, unit, count) in metrics.items():
        lines.append(f"  {name:<34} {value:14.6g} {unit:<6} n={count}")
    for problem in run.problems:
        print(problem, file=sys.stderr)
    correct = not run.problems and run.attempted > 0
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
