"""Declarative sweep grids: :class:`SweepSpec` and :class:`SweepPoint`.

A :class:`SweepSpec` names the axes of a parameter sweep (strategies, cluster
presets, model specs, sequence-length distributions, perturbation configs...)
and expands to a deterministic sequence of :class:`SweepPoint`\\ s — the
cartesian product of the axes, with three escape hatches so grids need not be
full cross-products:

* ``zip_axes`` — groups of axes iterated in lockstep (e.g. the (model,
  context, gpus) triples of Fig. 8's bar groups),
* ``where`` — a predicate dropping unwanted combinations, and
* ``derived`` — per-point computed fields (e.g. ``total_context`` from a
  fixed tokens-per-GPU times the ``num_gpus`` axis), materialised into the
  point so caching and remote execution see plain values.

Expansion order is deterministic: axes nest in declaration order with the
rightmost axis fastest; a zip group occupies the slot of its first axis.
Points are plain frozen mappings — :mod:`repro.exec.worker` interprets the
well-known session/run fields, everything else rides along as inert tags.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import product
from types import MappingProxyType
from typing import Any

# Point fields consumed when building the Session a point executes under.
SESSION_FIELDS = (
    "model",
    "cluster_preset",
    "num_gpus",
    "dataset",
    "total_context",
    "tensor_parallel",
    "num_steps",
    "seed",
)

# Point fields consumed by Session.run() for the point's measurement.
RUN_FIELDS = (
    "strategy",
    "strategy_kwargs",
    "label",
    "perturbation",
    "recovery",
    "num_iterations",
)

_EXECUTION_FIELDS = frozenset(SESSION_FIELDS) | frozenset(RUN_FIELDS)


def _canonical(value: Any) -> Any:
    """Normalise a point value into canonical JSON-safe form."""
    # Scalars first: they are most values, and the abc check is the slow one.
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    raise TypeError(
        f"sweep point values must be JSON-representable, got {type(value).__name__}: "
        f"{value!r}"
    )


@dataclass(frozen=True)
class SweepPoint:
    """One expanded cell of a sweep: an immutable axis-name -> value mapping.

    The well-known fields (:data:`SESSION_FIELDS`, :data:`RUN_FIELDS`) drive
    execution; any other key is a tag that is carried through to the results
    but does not affect execution or the cache identity.
    """

    values: Mapping[str, Any]

    def __post_init__(self) -> None:
        if not isinstance(self.values, MappingProxyType):
            object.__setattr__(self, "values", MappingProxyType(dict(self.values)))

    def __getitem__(self, key: str) -> Any:
        return self.values[key]

    def __contains__(self, key: str) -> bool:
        return key in self.values

    def get(self, key: str, default: Any = None) -> Any:
        return self.values.get(key, default)

    def keys(self):
        return self.values.keys()

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-safe dict of every field (tags included)."""
        return {k: _canonical(v) for k, v in self.values.items()}

    def session_fields(self) -> dict[str, Any]:
        """The subset of fields that select the planning session."""
        return {k: self.values[k] for k in SESSION_FIELDS if k in self.values}

    def run_fields(self) -> dict[str, Any]:
        """The subset of fields that configure the measurement."""
        return {k: self.values[k] for k in RUN_FIELDS if k in self.values}

    def tags(self) -> dict[str, Any]:
        """Fields that ride along without affecting execution."""
        return {
            k: v for k, v in self.values.items() if k not in _EXECUTION_FIELDS
        }

    def canonical_json(self) -> str:
        """Canonical JSON of the execution-relevant fields (tags excluded).

        This string is the point's content identity: equal canonical JSON
        means equal simulation outcome, so it is what the result cache hashes.
        """
        payload = {
            k: _canonical(v)
            for k, v in self.values.items()
            if k in _EXECUTION_FIELDS
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.values.items())
        return f"SweepPoint({inner})"


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep grid.

    Attributes
    ----------
    axes:
        Axis name -> sequence of values.  Declaration order is nesting order
        (rightmost fastest), so row ordering is part of the spec.
    base:
        Constant fields merged into every point (overridden by axes).
    zip_axes:
        Groups of axis names iterated in lockstep instead of crossed; all
        axes of a group must have equal length.
    where:
        Optional predicate over the fully-assembled point values (base, axes
        and derived fields); combinations it rejects are dropped.
    derived:
        Field name -> function of the point values, evaluated per point after
        axis assignment and materialised into the point.
    """

    axes: Mapping[str, Sequence[Any]]
    base: Mapping[str, Any] = field(default_factory=dict)
    zip_axes: tuple[tuple[str, ...], ...] = ()
    where: Callable[[Mapping[str, Any]], bool] | None = None
    derived: Mapping[str, Callable[[Mapping[str, Any]], Any]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        for name, values in self.axes.items():
            if isinstance(values, str):
                raise ValueError(
                    f"axis {name!r} is a bare string {values!r}; wrap single "
                    f"values in a sequence: ({values!r},)"
                )
        axes = {str(k): tuple(v) for k, v in self.axes.items()}
        if not axes:
            raise ValueError("a sweep needs at least one axis")
        for name, values in axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")
        object.__setattr__(self, "axes", MappingProxyType(axes))
        object.__setattr__(
            self, "base", MappingProxyType(dict(self.base))
        )
        zip_groups = tuple(tuple(group) for group in self.zip_axes)
        seen: set[str] = set()
        for group in zip_groups:
            if len(group) < 2:
                raise ValueError("a zip group needs at least two axes")
            lengths = set()
            for name in group:
                if name not in axes:
                    raise ValueError(f"zip group names unknown axis {name!r}")
                if name in seen:
                    raise ValueError(f"axis {name!r} appears in two zip groups")
                seen.add(name)
                lengths.add(len(axes[name]))
            if len(lengths) != 1:
                raise ValueError(
                    f"zipped axes {group} have mismatched lengths {sorted(lengths)}"
                )
        object.__setattr__(self, "zip_axes", zip_groups)
        derived = dict(self.derived)
        for name in derived:
            if name in axes or name in self.base:
                raise ValueError(
                    f"derived field {name!r} collides with an axis or base field"
                )
        object.__setattr__(self, "derived", MappingProxyType(derived))

    # -- expansion ---------------------------------------------------------------

    def _slots(self) -> list[tuple[tuple[str, ...], list[tuple[Any, ...]]]]:
        """Iteration slots: zipped groups collapse into their first axis' slot."""
        group_of = {name: group for group in self.zip_axes for name in group}
        slots: list[tuple[tuple[str, ...], list[tuple[Any, ...]]]] = []
        placed: set[str] = set()
        for name in self.axes:
            if name in placed:
                continue
            group = group_of.get(name, (name,))
            values = list(zip(*(self.axes[n] for n in group)))
            slots.append((group, values))
            placed.update(group)
        return slots

    def points(self) -> tuple[SweepPoint, ...]:
        """Expand the grid to its points, in deterministic order."""
        slots = self._slots()
        names = [slot[0] for slot in slots]
        points = []
        for combo in product(*(slot[1] for slot in slots)):
            values = dict(self.base)
            for group, assignment in zip(names, combo):
                values.update(zip(group, assignment))
            for field_name, fn in self.derived.items():
                values[field_name] = fn(values)
            if self.where is not None and not self.where(values):
                continue
            points.append(SweepPoint(values))
        return tuple(points)

    def __iter__(self) -> Iterator[SweepPoint]:
        return iter(self.points())

    def __len__(self) -> int:
        return len(self.points())

    def describe(self) -> str:
        """One-line summary of the grid shape."""
        axes = " x ".join(f"{name}[{len(vals)}]" for name, vals in self.axes.items())
        return f"SweepSpec({axes} -> {len(self)} points)"
