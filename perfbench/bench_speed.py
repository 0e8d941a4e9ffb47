"""Host-speed reference: time measured on a shared host, scaled to one speed.

On a shared host the same work runs up to ~2x slower for seconds at a time,
as neighbours contend for the core, and the slowdown shows in process CPU
time as much as in wall time, so neither clock alone gives figures that
compare across runs.  While a step is measured, a timer signal every
``SAMPLE_EVERY_S`` runs a fixed pure-Python kernel that never touches the
program under test and times it.  Each sample says how fast the host is at
that moment; the step's host seconds are scaled by ``REFERENCE_S`` times the
mean of ``1 / kernel time`` over the step's samples.  A scaled second is the
time the step would take on a host that runs the kernel in ``REFERENCE_S``,
about the kernel's median on the 2-vCPU 2.1 GHz Xeon host where the bounds
were set.  Work the program does, or stops doing, moves scaled seconds exactly
as it moves host seconds; the kernel adds about 1% to each step.

The correction is not exact, because the program and the kernel do not slow
down by the same factor under every kind of contention.  On back-to-back
steps of one input, the spread (IQR/median) of window medians was 0.15-0.27
in host seconds and 0.015-0.04 in scaled seconds on cold ``compare_cold_64g``
compares (30 s windows), 0.11-0.22 and 0.05-0.14 on ``serve_open_4x`` runs
(15 s windows).  A kernel that adds random reads from a 48 MB buffer tracked
serving better (0.03-0.04) and compares worse (0.07-0.13); it is not used.
"""

from __future__ import annotations

import gc
import signal
import time
from dataclasses import dataclass
from statistics import fmean
from typing import Any, Callable

# About the median time of one ``_kernel()`` call on the reference host.
REFERENCE_S = 0.0004
SAMPLE_EVERY_S = 0.05


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: float) -> None:
        self.a = a
        self.b = b


def _kernel() -> None:
    """Object allocation, dict and list traffic, a sort: the interpreter's mix."""
    table = {}
    rows = []
    for i in range(400):
        p = _Point(i, i * 1.5)
        table[(i % 97, i % 13)] = p
        rows.append((p.a + p.b, str(i % 50)))
    rows.sort()


def _sample() -> float:
    """Seconds of one kernel call now.

    The collector is off meanwhile, so the size of the program's heap does
    not leak into the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass
class Timing:
    host_s: float
    scaled_s: float

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(self.host_s + other.host_s, self.scaled_s + other.scaled_s)


ZERO = Timing(0.0, 0.0)


def timed(fn: Callable[..., Any], *args: Any) -> tuple[Any, Timing]:
    """Run ``fn(*args)`` while sampling the host's speed; result and timing."""
    samples = [_sample()]

    def on_alarm(signum: int, frame: Any) -> None:
        samples.append(_sample())

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    finally:
        host_s = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    samples.append(_sample())
    speed = fmean(REFERENCE_S / k for k in samples)
    return out, Timing(host_s, host_s * speed)
