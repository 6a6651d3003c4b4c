"""``repro.core.plan`` — the declarative experiment IR.

Every paper-scale experiment (Figs. 15–23, Tables I–III, the extension
studies) has the same shape: *enumerate design points × workloads,
simulate each point, reduce to a figure*.  Instead of each driver
hand-rolling that loop, a driver now declares the grid:

* :class:`AxisSpec` — one named axis of a grid: design configs,
  workloads, batch sizes (or a batch *policy*), cell libraries, or
  free parameters that only label points;
* :class:`Grid` — a cartesian product of axes (the last axis varies
  fastest, exactly like the nested loops it replaces), either a
  ``"simulate"`` grid (each point is one cycle-level simulation) or an
  ``"estimate"`` grid (each point needs only the architecture estimate);
* :class:`ExperimentPlan` — one or more named grids plus a stable
  content hash (:meth:`ExperimentPlan.plan_hash`) covering every axis
  value, so two plans that would simulate different things always hash
  differently;
* :func:`lower` — compiles a plan into index columns, one per axis of
  each grid, and each simulation point's distinct task (one
  :class:`~repro.core.jobs.SimTask` per distinct content); its
  :class:`PlanPoint`\\ s and tasks are built when first read;
* :func:`execute` — runs a lowered plan through the ambient (or given)
  :class:`~repro.core.jobs.JobRunner`, inheriting the cache, parallel
  fan-out, retry/timeout handling, and resume from the cache for
  free, and returns a :class:`ResultSet` of provenance-stamped
  :class:`PlanResult` records, each built when first read.  The
  :class:`ResultSet` is the one way to read them: ``select``, ``one``,
  ``mean`` and ``column`` answer from the lowered grids' offsets and
  labels, a selection builds only the results it returns, and ``mean``
  and ``column`` read the runs' charge-pass totals without building
  them.  A grid-shaped array is ``column`` reshaped:
  ``np.array(rs.column(m, grid=g), float).reshape(shape)``.

Identical tasks inside one plan are deduplicated before submission (the
payload-materialization guarantee of the job layer makes reusing a
result bitwise-identical to re-running it), so a plan never simulates
the same content twice in one run.  Deduplication compares the texts a
key hashes, not keys: a point's key, and so a result's, is computed the
first time it is read.

Plan activity is exported through ``repro.obs`` as the
``plan.points_total`` / ``plan.points_cached`` / ``plan.points_executed``
counter family, and every executed plan's ``(name, hash)`` is recorded
for run manifests (:func:`recent_plans`).

The named registry (:func:`named_plans` / :func:`plan_by_name`) maps
each figure/table grid to a ready-made plan, surfaced by the CLI as
``supernpu plan list|show|run``.
"""

from __future__ import annotations

import importlib
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.baselines.scalesim import CMOSNPUConfig
from repro.core.batching import batch_for, derived_batch, paper_batch
from repro.canonical import canonical_json
from repro.core.jobs import (
    BuiltOnRead,
    RunResults,
    SimTask,
    _sha256,
    _task_key,
    config_signature,
    config_text,
    estimate_content,
    estimate_key,
    get_runner,
    library_fingerprint,
    library_text,
    task_content,
    workload_signature,
    workload_text,
)
from repro.device.cells import CellLibrary, Technology, library_for
from repro.errors import ConfigError
from repro.estimator.arch_level import NPUEstimate
from repro.simulator.results import SimulationResult
from repro.uarch.config import NPUConfig
from repro.workloads.models import Network

#: Bump when the plan signature layout changes meaning.
PLAN_SCHEMA_VERSION = 1

#: Axis kinds a grid may be built from.
AXIS_KINDS = ("config", "workload", "batch", "library", "param")

#: Grid kinds: full cycle-level simulation vs architecture estimate only.
GRID_KINDS = ("simulate", "estimate")

#: Batch-axis policies (besides literal ints):
#: ``"derived"`` — the capacity-derived rule (Figs. 20–22 sweeps);
#: ``"paper"``   — Table II verbatim, erroring on unnamed designs;
#: ``"auto"``    — Table II for named designs, derived otherwise.
BATCH_POLICIES = ("derived", "paper", "auto")

ConfigLike = Union[NPUConfig, CMOSNPUConfig]
BatchLike = Union[int, str]


# -- axes ------------------------------------------------------------------

@dataclass(frozen=True)
class AxisSpec:
    """One axis of a grid: a name, a kind, and its ordered values.

    ``labels`` name the values in point coordinates (and must be unique
    within the axis); they default to the value's natural label — the
    config/workload name, the technology, the batch literal/policy — and
    must be given explicitly when natural labels would collide (e.g. a
    config axis sweeping one design's bandwidth field).
    """

    name: str
    kind: str
    values: Tuple[Any, ...]
    labels: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in AXIS_KINDS:
            raise ConfigError(f"unknown axis kind {self.kind!r}; known: {AXIS_KINDS}",
                              code="plan.unknown_axis_kind", axis=self.name)
        if not self.values:
            raise ConfigError(f"axis {self.name!r} has no values",
                              code="plan.empty_axis", axis=self.name)
        if not self.labels:
            object.__setattr__(self, "labels",
                               tuple(self._natural_label(v) for v in self.values))
        if len(self.labels) != len(self.values):
            raise ConfigError(
                f"axis {self.name!r} has {len(self.values)} values but "
                f"{len(self.labels)} labels",
                code="plan.label_mismatch", axis=self.name)
        if len(set(self.labels)) != len(self.labels):
            raise ConfigError(
                f"axis {self.name!r} has duplicate labels {list(self.labels)}; "
                "pass explicit unique labels",
                code="plan.duplicate_labels", axis=self.name)
        if self.kind == "batch":
            for value in self.values:
                if isinstance(value, bool) or not (
                    isinstance(value, int) and value >= 1
                    or value in BATCH_POLICIES
                ):
                    raise ConfigError(
                        f"batch axis value {value!r} is neither a positive int "
                        f"nor one of {BATCH_POLICIES}",
                        code="plan.invalid_batch_value", axis=self.name)

    def _natural_label(self, value: Any) -> str:
        if self.kind in ("config", "workload"):
            return str(getattr(value, "name", value))
        if self.kind == "library":
            if value is None:
                return "default"
            return value.technology.value
        return str(value)

    def value_signature(self, value: Any) -> Any:
        """The cache-relevant content of one axis value (JSON-able)."""
        if self.kind == "config":
            # config_signature omits default technology fields so plan
            # hashes of pre-registry plans are unchanged.
            return {"cmos": not isinstance(value, NPUConfig),
                    "fields": config_signature(value)}
        if self.kind == "workload":
            return workload_signature(value)
        if self.kind == "library":
            return None if value is None else library_fingerprint(value)
        return value  # batch literals / policies, free params

    def value_text(self, value: Any) -> str:
        """Canonical JSON of :meth:`value_signature`, spliced from the
        configs', networks' and libraries' kept texts."""
        if self.kind == "config":
            cmos = "false" if isinstance(value, NPUConfig) else "true"
            return f'{{"cmos":{cmos},"fields":{config_text(value)}}}'
        if self.kind == "workload":
            return workload_text(value)
        if self.kind == "library":
            return library_text(value)
        return canonical_json(value)

    def signature_text(self) -> str:
        """Canonical JSON of ``{kind, labels, name, values}``."""
        values = ",".join(self.value_text(v) for v in self.values)
        return (f'{{"kind":{canonical_json(self.kind)},'
                f'"labels":{canonical_json(list(self.labels))},'
                f'"name":{canonical_json(self.name)},"values":[{values}]}}')


def config_axis(values: Sequence[ConfigLike], name: str = "config",
                labels: Sequence[str] = ()) -> AxisSpec:
    """An axis of design points (SFQ ``NPUConfig`` or CMOS baseline)."""
    return AxisSpec(name, "config", tuple(values), tuple(labels))


def workload_axis(values: Sequence[Network], name: str = "workload") -> AxisSpec:
    """An axis of benchmark networks."""
    return AxisSpec(name, "workload", tuple(values))


def batch_axis(values: Sequence[BatchLike], name: str = "batch") -> AxisSpec:
    """An axis of batch sizes — literal ints and/or named policies."""
    return AxisSpec(name, "batch", tuple(values))


def library_axis(values: Sequence[Optional[CellLibrary]], name: str = "library",
                 labels: Sequence[str] = ()) -> AxisSpec:
    """An axis of cell libraries (``None`` = the runner's default RSFQ)."""
    return AxisSpec(name, "library", tuple(values), tuple(labels))


def param_axis(name: str, values: Sequence[Any]) -> AxisSpec:
    """A free parameter axis: labels points but does not change the task."""
    return AxisSpec(name, "param", tuple(values))


def technology_axis(base: NPUConfig, technologies: Sequence[str],
                    name: str = "memory_technology",
                    field_name: str = "memory_technology") -> AxisSpec:
    """A config axis sweeping one design across registered technologies.

    Each value is ``base`` with ``field_name`` (``memory_technology`` or
    ``link_technology``) replaced; points are labeled by the technology
    name, since every value shares the base design's name.
    """
    if field_name not in ("memory_technology", "link_technology"):
        raise ConfigError(
            f"technology axis field must be memory_technology or "
            f"link_technology, not {field_name!r}",
            code="plan.invalid_technology_field", axis=name)
    configs = tuple(base.with_updates(**{field_name: technology})
                    for technology in technologies)
    return AxisSpec(name, "config", configs, tuple(technologies))


# -- grids -----------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """A named cartesian product of axes; the last axis varies fastest."""

    name: str
    axes: Tuple[AxisSpec, ...]
    kind: str = "simulate"

    def __post_init__(self) -> None:
        if self.kind not in GRID_KINDS:
            raise ConfigError(f"unknown grid kind {self.kind!r}; known: {GRID_KINDS}",
                              code="plan.unknown_grid_kind", grid=self.name)
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ConfigError(f"grid {self.name!r} has duplicate axis names {names}",
                              code="plan.duplicate_axes", grid=self.name)
        counts = {kind: sum(1 for a in self.axes if a.kind == kind)
                  for kind in AXIS_KINDS}
        if counts["config"] != 1:
            raise ConfigError(
                f"grid {self.name!r} needs exactly one config axis, has "
                f"{counts['config']}", code="plan.config_axis", grid=self.name)
        for kind in ("workload", "batch", "library"):
            if counts[kind] > 1:
                raise ConfigError(
                    f"grid {self.name!r} has {counts[kind]} {kind} axes "
                    "(at most one allowed)", code="plan.axis_arity", grid=self.name)
        if self.kind == "simulate" and counts["workload"] != 1:
            raise ConfigError(
                f"simulate grid {self.name!r} needs exactly one workload axis",
                code="plan.workload_axis", grid=self.name)

    @property
    def num_points(self) -> int:
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def signature_text(self) -> str:
        """Canonical JSON of ``{axes, kind, name}``."""
        axes = ",".join(axis.signature_text() for axis in self.axes)
        return (f'{{"axes":[{axes}],"kind":{canonical_json(self.kind)},'
                f'"name":{canonical_json(self.name)}}}')


# -- plans -----------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentPlan:
    """A named set of grids — the whole declarative experiment."""

    name: str
    grids: Tuple[Grid, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.grids:
            raise ConfigError(f"plan {self.name!r} has no grids",
                              code="plan.empty", plan=self.name)
        names = [grid.name for grid in self.grids]
        if len(set(names)) != len(names):
            raise ConfigError(f"plan {self.name!r} has duplicate grid names {names}",
                              code="plan.duplicate_grids", plan=self.name)

    @property
    def num_points(self) -> int:
        return sum(grid.num_points for grid in self.grids)

    def signature_text(self) -> str:
        """Canonical JSON of the plan's full content: ``{grids, plan,
        schema}``, each axis value given by :meth:`AxisSpec.value_signature`."""
        grids = ",".join(grid.signature_text() for grid in self.grids)
        return (f'{{"grids":[{grids}],"plan":{canonical_json(self.name)},'
                f'"schema":{PLAN_SCHEMA_VERSION}}}')

    def plan_hash(self) -> str:
        """sha256 (hex) of the canonical plan signature."""
        return _sha256(self.signature_text())

    def lower(self) -> "LoweredPlan":
        return lower(self)

    def describe(self) -> str:
        """A terminal-friendly summary: grids, axes, counts, hash."""
        lines = [f"plan {self.name}: {self.num_points} points "
                 f"(hash {self.plan_hash()[:12]})"]
        if self.description:
            lines.append(f"  {self.description}")
        for grid in self.grids:
            lines.append(f"  grid {grid.name} [{grid.kind}]: {grid.num_points} points")
            for axis in grid.axes:
                shown = ", ".join(axis.labels[:6])
                if len(axis.labels) > 6:
                    shown += f", ... ({len(axis.labels)} total)"
                lines.append(f"    {axis.name} ({axis.kind}, {len(axis.values)}): {shown}")
        return "\n".join(lines)


# -- lowering --------------------------------------------------------------

class _Labeled:
    """Axis-label and param lookups over a point's ``coords`` and ``params``."""

    def coord(self, axis: str) -> str:
        for name, label in self.coords:
            if name == axis:
                return label
        raise KeyError(f"{self._noun} has no axis {axis!r}; axes: "
                       f"{[name for name, _ in self.coords]}")

    def param(self, name: str) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(f"{self._noun} has no param {name!r}")


@dataclass(frozen=True)
class PlanPoint(_Labeled):
    """One fully-resolved grid point.

    Simulation points carry a content-addressed :class:`SimTask`, one
    object shared by every point of the plan with the same content;
    estimate points carry the ``(config, library)`` request.
    """

    _noun = "point"
    grid: str
    kind: str
    index: int
    coords: Tuple[Tuple[str, str], ...]
    config: ConfigLike
    network: Optional[Network] = None
    batch: Optional[int] = None
    library: Optional[CellLibrary] = None
    params: Tuple[Tuple[str, Any], ...] = ()
    task: Optional[SimTask] = None
    _key: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    @property
    def key(self) -> str:
        """The point's content key: its task's, or its estimate request's
        cache key.  Computed on first read and kept."""
        if self.task is not None:
            return _task_key(self.task)
        if self._key is None:
            object.__setattr__(self, "_key", estimate_key(self.config, _library(self)))
        return self._key


#: One grid's points as index columns, ``(grid, offset, indices)``: point
#: ``q`` of the grid (the plan's point ``offset + q``) takes
#: ``axis.values[column[q]]`` of each axis and its column in ``indices``.
LoweredGrid = Tuple[Grid, int, Tuple[List[int], ...]]


class LoweredPlan:
    """A plan compiled to index columns (grids in order, last axis fastest).

    ``tasks`` holds each simulation point's position in the distinct tasks,
    in first-seen order (-1 for an estimate point).  :attr:`points` and the
    tasks are built on first read.
    """

    def __init__(self, plan: ExperimentPlan, plan_hash: str, grids: Sequence[LoweredGrid],
                 specs: Sequence[Tuple[ConfigLike, Network, int, Optional[CellLibrary]]],
                 tasks: Sequence[int]) -> None:
        self.plan, self.plan_hash = plan, plan_hash
        self.grids = tuple(grids)
        self.tasks = tasks
        self._specs = specs
        self.points: Sequence[PlanPoint] = BuiltOnRead(len(tasks), self._point)

    @cached_property
    def _tasks(self) -> List[SimTask]:
        return [SimTask(*spec) for spec in self._specs]

    def _point(self, index: int) -> PlanPoint:
        grid, offset, indices = next(g for g in reversed(self.grids) if g[1] <= index)
        values: Dict[str, Any] = {}
        coords, params = [], []
        for axis, column in zip(grid.axes, indices):
            position = column[index - offset]
            coords.append((axis.name, axis.labels[position]))
            if axis.kind == "param":
                params.append((axis.name, axis.values[position]))
            else:
                values[axis.kind] = axis.values[position]
        task = self._tasks[self.tasks[index]] if self.tasks[index] >= 0 else None
        return PlanPoint(
            grid=grid.name, kind=grid.kind, index=index,
            coords=tuple(coords), config=values["config"],
            network=None if task is None else values["workload"],
            batch=None if task is None else task.batch,
            library=values.get("library"), params=tuple(params), task=task)

    def task_keys(self) -> List[str]:
        """Every point's content key, in point order."""
        return [point.key for point in self.points]

    def unique_tasks(self) -> List[SimTask]:
        """The distinct simulation tasks, in first-seen order; reads no
        key.  Lowering gave points of equal content one task, so a task's
        identity stands for its content."""
        return list(self._tasks)

    def sim_tasks(self) -> "OrderedDict[str, SimTask]":
        """Unique simulation tasks by key, in first-seen order; reads
        every task's key."""
        return OrderedDict((_task_key(task), task) for task in self._tasks)


def _library(point: PlanPoint) -> CellLibrary:
    """An estimate point's library, the default RSFQ one if it names none."""
    return point.library or library_for(Technology.RSFQ)


def _batch_rule(value: BatchLike) -> Callable[[ConfigLike, Network], int]:
    """How a batch axis value resolves for a (config, network) pair."""
    if isinstance(value, int):
        return lambda config, network: value
    if value == "derived":
        return derived_batch
    if value == "paper":
        return lambda config, network: paper_batch(config.name, network.name)
    return batch_for  # "auto" (validated by AxisSpec)


def lower(plan: ExperimentPlan) -> LoweredPlan:
    """Compile a plan into ordered, content-addressed points.

    Deterministic by construction: the same plan content always lowers
    to the same point order and the same task keys.  Points whose tasks
    have equal :func:`~repro.core.jobs.task_content` share one task; each text is read once per axis value, a batch policy is
    resolved once per (config, network) pair, and nothing is hashed but
    the plan.
    """
    grids: List[LoweredGrid] = []
    specs: List[Tuple[ConfigLike, Network, int, Optional[CellLibrary]]] = []
    unique: Dict[Tuple[str, str, str, str, int], int] = {}
    tasks: List[int] = []
    for grid in plan.grids:
        dims = [len(axis.values) for axis in grid.axes]
        indices = tuple(np.indices(dims).reshape(len(dims), -1).tolist())
        grids.append((grid, len(tasks), indices))
        if grid.kind == "estimate":
            tasks.extend([-1] * grid.num_points)
            continue
        axes = {axis.kind: (axis.values, column) for axis, column in zip(grid.axes, indices)}
        zeros = [0] * grid.num_points
        configs, config_at = axes["config"]
        networks, network_at = axes["workload"]
        batch_values, batch_at = axes.get("batch", (("auto",), zeros))
        rules = [_batch_rule(value) for value in batch_values]
        libraries, library_at = axes.get("library", ((None,), zeros))
        # Each axis value's part of a task's content, and each (config,
        # network, batch value)'s batch.
        config_parts = [(not isinstance(config, NPUConfig), config_text(config))
                        for config in configs]
        network_texts = [workload_text(network) for network in networks]
        library_texts = [library_text(library or library_for(Technology.RSFQ))
                         for library in libraries]
        resolved = [[[rule(config, network) for rule in rules] for network in networks]
                    for config in configs]
        for c, w, b, l in zip(config_at, network_at, batch_at, library_at):
            batch = resolved[c][w][b]
            content = task_content(*config_parts[c], network_texts[w], library_texts[l], batch)
            position = unique.setdefault(content, len(specs))
            if position == len(specs):
                specs.append((configs[c], networks[w], batch, libraries[l]))
            tasks.append(position)
    return LoweredPlan(plan, plan.plan_hash(), grids, specs, tasks)


# -- results ---------------------------------------------------------------

@dataclass(frozen=True)
class PlanResult(_Labeled):
    """One point's outcome, stamped with its provenance; ``key`` is its
    point's key, computed when first read."""

    _noun = "result"
    plan: str
    plan_hash: str
    grid: str
    coords: Tuple[Tuple[str, str], ...]
    cached: bool
    point: PlanPoint = field(repr=False, compare=False)
    batch: Optional[int] = None
    run: Optional[SimulationResult] = None
    estimate: Optional[NPUEstimate] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def key(self) -> str:
        return self.point.key

    @property
    def result(self) -> Union[SimulationResult, NPUEstimate]:
        return self.run if self.run is not None else self.estimate

    def record(self) -> Dict[str, Any]:
        """A flat JSON-able provenance record of this point."""
        record: Dict[str, Any] = {
            "plan": self.plan,
            "plan_hash": self.plan_hash,
            "grid": self.grid,
            "key": self.key,
            "cached": self.cached,
        }
        record.update({f"coord_{name}": label for name, label in self.coords})
        if self.run is not None:
            record.update({
                "design": self.run.design,
                "workload": self.run.network,
                "batch": self.run.batch,
                "mac_per_s": self.run.mac_per_s,
                "latency_s": self.run.latency_s,
                "total_cycles": self.run.total_cycles,
            })
        elif self.estimate is not None:
            record.update({
                "design": self.estimate.config.name,
                "frequency_ghz": self.estimate.frequency_ghz,
                "peak_tmacs": self.estimate.peak_tmacs,
                "area_mm2": self.estimate.area_mm2,
            })
        return record


class ResultSet:
    """All of one plan execution's results, in point order.

    Every read is answered from the lowered plan: a grid's offset, its
    shape and its axes' labels give the positions a selection names, and
    only the :class:`PlanResult`\\ s a call returns are built (each on
    first read, then kept).  The ``value`` it is made with reads point
    ``position``'s metric (None where it has none) without building its
    result; :meth:`mean` and :meth:`column` read through it.
    """

    def __init__(self, lowered: LoweredPlan, build: Callable[[int], PlanResult],
                 value: Callable[[int, str], Any],
                 points_cached: int, points_executed: int) -> None:
        self.plan = lowered.plan
        self.plan_hash = lowered.plan_hash
        self.results: Sequence[PlanResult] = BuiltOnRead(len(lowered.tasks), build)
        self.points_total = len(self.results)
        self.points_cached = points_cached
        self.points_executed = points_executed
        self._grids = lowered.grids
        self._value = value

    def __iter__(self) -> Iterator[PlanResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def _positions(self, grid: Optional[str], coords: Dict[str, str]) -> List[int]:
        """The positions of the points of ``grid`` (``None``: any grid)
        whose axes carry every label in ``coords``, in point order."""
        positions: List[int] = []
        for planned, offset, _ in self._grids:
            axes = {axis.name: axis.labels for axis in planned.axes}
            if grid not in (None, planned.name) or not all(
                    label in axes.get(name, ()) for name, label in coords.items()):
                continue
            # Points run last axis fastest, so a C-order block of the
            # grid's positions indexed by label is the selection in order.
            block = np.arange(offset, offset + planned.num_points).reshape(
                [len(labels) for labels in axes.values()])
            at = tuple(labels.index(coords[name]) if name in coords else slice(None)
                       for name, labels in axes.items())
            positions.extend(block[at].ravel().tolist())
        return positions

    def select(self, grid: Optional[str] = None, **coords: str) -> List[PlanResult]:
        """Results matching a grid and/or axis labels, in point order."""
        return [self.results[position] for position in self._positions(grid, coords)]

    def one(self, grid: Optional[str] = None, **coords: str) -> PlanResult:
        """Exactly one matching result, or a ConfigError."""
        positions = self._positions(grid, coords)
        if len(positions) != 1:
            raise ConfigError(
                f"expected exactly one result for grid={grid!r} {coords}, "
                f"got {len(positions)}", code="plan.ambiguous_selection",
                plan=self.plan.name, matches=len(positions))
        return self.results[positions[0]]

    def runs(self, grid: Optional[str] = None, **coords: str) -> List[SimulationResult]:
        return [result.run for result in self.select(grid=grid, **coords)]

    def mean(self, metric: str = "mac_per_s", grid: Optional[str] = None,
             **coords: str) -> float:
        """Mean of one metric over a selection (summed in point order),
        read as :meth:`column` reads it."""
        positions = self._positions(grid, coords)
        if not positions:
            raise ConfigError(f"nothing selected for grid={grid!r} {coords}",
                              code="plan.empty_selection", plan=self.plan.name)
        return sum(self._value(position, metric) for position in positions) / len(positions)

    def column(self, metric: str = "mac_per_s", grid: Optional[str] = None) -> List[Any]:
        """``metric`` of every point's result in point order, or of one
        grid's points; None where a result has no such metric.  A run not
        built yet answers its totals' metrics (``mac_per_s``,
        ``total_cycles``, ...) from its charge pass without being built."""
        return [self._value(position, metric) for position in self._span(grid)]

    def _span(self, grid: Optional[str]) -> range:
        """The positions of ``grid``'s points (``None``: every point)."""
        if grid is None:
            return range(len(self.results))
        for planned, offset, _ in self._grids:
            if planned.name == grid:
                return range(offset, offset + planned.num_points)
        raise ConfigError(f"plan {self.plan.name!r} has no grid {grid!r}",
                          code="plan.unknown_grid", plan=self.plan.name)

    def records(self) -> List[Dict[str, Any]]:
        return [result.record() for result in self.results]

    def describe(self) -> str:
        return (f"plan {self.plan.name}: {self.points_total} points "
                f"({self.points_cached} cached, {self.points_executed} executed)")


# -- execution -------------------------------------------------------------

#: ``(name, hash)`` of plans executed in this process, most recent last;
#: the CLI embeds these in run manifests.
_RECENT_PLANS: List[Tuple[str, str]] = []
_RECENT_LIMIT = 64


def recent_plans() -> List[Tuple[str, str]]:
    """``(name, hash)`` of plans executed in this process, oldest first."""
    return list(_RECENT_PLANS)


def execute(plan: ExperimentPlan) -> ResultSet:
    """Lower and run a plan through the ambient job runner.

    Unique simulation tasks go to the runner as one list (so ``jobs > 1``
    fans the entire plan out at once and every point is individually
    cached); estimate points resolve through
    ``runner.estimate``.  Returns provenance-stamped per-point results in
    lowering order, each built when first read.
    """
    runner = get_runner()
    lowered = lower(plan)

    unique_tasks = lowered.unique_tasks()
    with obs.trace_span(f"plan/{plan.name}", points=len(lowered.points),
                        hash=lowered.plan_hash[:12]):
        # Whether each unique task / estimate was cached comes from the
        # runner's own lookups, so a damaged entry that was re-simulated
        # counts as executed.
        ran = runner.run(unique_tasks) if unique_tasks else RunResults([], [])
        estimates: Dict[Tuple[str, str], Tuple[NPUEstimate, bool]] = {}
        requests: Dict[int, Tuple[str, str]] = {}
        for position, unique in enumerate(lowered.tasks):
            if unique < 0:
                point = lowered.points[position]
                library = _library(point)
                content = requests[position] = estimate_content(point.config, library)
                if content not in estimates:
                    estimates[content] = runner.lookup_estimate(point.config, library)

    def result(position: int) -> PlanResult:
        point, unique = lowered.points[position], lowered.tasks[position]
        estimate, cached = (estimates[requests[position]] if unique < 0
                            else (None, ran.cached[unique]))
        return PlanResult(
            plan=plan.name, plan_hash=lowered.plan_hash, grid=point.grid,
            coords=point.coords, point=point, cached=cached, batch=point.batch,
            params=point.params, run=None if unique < 0 else ran[unique], estimate=estimate)

    def value(position: int, metric: str) -> Any:
        unique = lowered.tasks[position]
        if unique < 0:
            return getattr(estimates[requests[position]][0], metric, None)
        return ran.value(unique, metric)

    flags = [*ran.cached, *(cached for _, cached in estimates.values())]
    points_cached = sum(flags)
    points_executed = len(flags) - points_cached
    obs.counter("plan.points_total").add(len(lowered.points))
    obs.counter("plan.points_cached").add(points_cached)
    obs.counter("plan.points_executed").add(points_executed)
    _RECENT_PLANS.append((plan.name, lowered.plan_hash))
    del _RECENT_PLANS[:-_RECENT_LIMIT]
    return ResultSet(lowered, result, value,
                     points_cached=points_cached, points_executed=points_executed)


# -- the named registry ----------------------------------------------------

def _builder(module: str, name: str, *args: Callable[[], Any]) -> Callable[[], ExperimentPlan]:
    """A registry entry: ``module.name(*(arg() for arg in args))``, imported
    when called (the builders' modules import this one)."""
    def build() -> Any:
        return getattr(importlib.import_module(module), name)(*(arg() for arg in args))
    return build


_SUPERNPU = _builder("repro.core.designs", "supernpu")

#: Every figure/table grid as a ready-made plan (builders run with the
#: paper's default workloads and library).
PLAN_BUILDERS: Dict[str, Callable[[], ExperimentPlan]] = {
    "fig15_breakdown": _builder("repro.core.experiments", "fig15_plan"),
    "fig20_buffers": _builder("repro.core.optimizer", "buffer_plan"),
    "fig21_resources": _builder("repro.core.optimizer", "resource_plan"),
    "fig22_registers": _builder("repro.core.optimizer", "register_plan"),
    "fig23_evaluate": _builder("repro.core.evaluate", "evaluate_plan"),
    "table3_power": _builder("repro.core.evaluate", "table3_plan"),
    "search_grid": _builder("repro.core.search", "search_plan"),
    "ablation": _builder("repro.core.ablate", "ablation_plan"),
    "batch_knee": _builder("repro.simulator.batch_sweep", "batch_plan", _SUPERNPU,
                           _builder("repro.workloads.models", "resnet50")),
    "bandwidth_sensitivity": _builder("repro.core.sensitivity", "bandwidth_plan"),
    "cooling_sensitivity": _builder("repro.core.sensitivity", "cooling_plan"),
    "process_scaling": _builder("repro.core.scaling", "scaling_plan", _SUPERNPU),
    "memory_technologies": _builder("repro.components.study", "memory_technology_plan"),
}


def named_plans() -> List[str]:
    """The registered plan names, in registry order."""
    return list(PLAN_BUILDERS)


def plan_by_name(name: str) -> ExperimentPlan:
    """Build a registered plan (paper-default axes)."""
    try:
        builder = PLAN_BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown plan {name!r}",
            code="config.unknown_plan",
            hint=f"known plans: {', '.join(PLAN_BUILDERS)}",
            name=name,
        ) from None
    return builder()
