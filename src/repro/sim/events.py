"""Event primitives for the discrete-event engine.

:class:`ResourceEvent` is the engine-level vocabulary of
:mod:`repro.dynamics`; :func:`compile_resource_events` lowers a schedule of
them onto a plan's interned resource ids (dropping resources the plan never
mentions) so the engine's hot loop only ever touches dense integers.

Within one simulated timestamp the engine settles task completions before
it applies the resource events timed at that instant, so a task finishing
exactly when its resource dies counts as completed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence


@dataclass(frozen=True)
class ResourceEvent:
    """A timed change to the state of one or more simulator resources.

    This is the engine-level vocabulary of :mod:`repro.dynamics`: cluster-level
    perturbations (GPU stragglers, NIC degradation, node failures) compile down
    to resource events before the simulator sees them.

    Attributes
    ----------
    time_s:
        Absolute time the change takes effect.  The simulator converts it to
        plan-local time via its ``start_time_s`` argument; events at or before
        the start of the simulation set the initial resource state.
    resources:
        Resource names affected (``compute:3``, ``nic:1:tx``...).  Names not
        used by the simulated plan are ignored.
    factor:
        New speed factor of the resources (1.0 = healthy, 0.5 = half speed).
        ``None`` means the resources *fail*: tasks holding them are aborted
        and tasks requiring them can never start.
    """

    time_s: float
    resources: tuple[str, ...]
    factor: float | None = 1.0

    def __post_init__(self) -> None:
        if self.factor is not None and not 0.0 < self.factor:
            raise ValueError("speed factor must be positive (use factor=None for failure)")
        if not self.resources:
            raise ValueError("a resource event must name at least one resource")

    @property
    def is_failure(self) -> bool:
        return self.factor is None


def compile_resource_events(
    events: Sequence[ResourceEvent],
    resource_index: Mapping[str, int],
    start_time_s: float,
) -> tuple[
    list[tuple[float | None, tuple[int, ...]]],
    list[tuple[float, float | None, tuple[int, ...]]],
]:
    """Lower resource events onto a compiled plan's dense resource ids.

    Returns ``(initial, timed)``: ``initial`` holds ``(factor, resource_ids)``
    for events at or before the simulation start (they set the initial
    speed/alive state), ``timed`` holds ``(plan_local_time, factor,
    resource_ids)`` sorted by time.  ``factor is None`` means failure.
    Events naming only resources the plan never mentions are dropped.
    """
    initial: list[tuple[float | None, tuple[int, ...]]] = []
    timed: list[tuple[float, float | None, tuple[int, ...]]] = []
    for event in sorted(events, key=lambda e: e.time_s):
        rids = tuple(
            resource_index[r] for r in event.resources if r in resource_index
        )
        if not rids:
            continue
        local = event.time_s - start_time_s
        if local <= 0.0:
            initial.append((event.factor, rids))
        else:
            timed.append((local, event.factor, rids))
    return initial, timed
