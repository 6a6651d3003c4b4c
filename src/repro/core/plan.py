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
* :func:`lower` — compiles a plan into ordered :class:`PlanPoint`\\ s
  whose simulation points carry content-addressed
  :class:`~repro.core.jobs.SimTask`\\ s;
* :func:`execute` — runs a lowered plan through the ambient (or given)
  :class:`~repro.core.jobs.JobRunner`, inheriting the cache, parallel
  fan-out, retry/timeout handling, and resume from the cache for
  free, and returns a :class:`ResultSet` of provenance-stamped
  :class:`PlanResult` records;
* :func:`evaluate_grid` — :func:`execute` plus a dense axis-shaped
  result surface per grid (:class:`EvaluatedGrid`), for figure code
  that wants ``grid.array("mac_per_s")`` instead of per-point loops.

Identical tasks inside one plan are deduplicated before submission (the
payload-materialization guarantee of the job layer makes reusing a
result bitwise-identical to re-running it), so a plan never simulates
the same content twice in one run.

Plan activity is exported through ``repro.obs`` as the
``plan.points_total`` / ``plan.points_cached`` / ``plan.points_executed``
counter family, and every executed plan's ``(name, hash)`` is recorded
for run manifests (:func:`recent_plans`).

The named registry (:func:`named_plans` / :func:`plan_by_name`) maps
each figure/table grid to a ready-made plan, surfaced by the CLI as
``supernpu plan list|show|run``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.baselines.scalesim import CMOSNPUConfig
from repro.core.batching import batch_for, derived_batch, paper_batch
from repro.canonical import canonical_json
from repro.core.jobs import (
    SimTask,
    _sha256,
    config_signature,
    config_text,
    estimate_key,
    get_runner,
    library_fingerprint,
    library_text,
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
            cmos = canonical_json(not isinstance(value, NPUConfig))
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

@dataclass(frozen=True)
class PlanPoint:
    """One fully-resolved grid point.

    Simulation points carry a content-addressed :class:`SimTask` (and its
    precomputed ``key``); estimate points carry the ``(config, library)``
    request and its estimate-cache key.
    """

    grid: str
    kind: str
    index: int
    coords: Tuple[Tuple[str, str], ...]
    config: ConfigLike
    key: str
    network: Optional[Network] = None
    batch: Optional[int] = None
    library: Optional[CellLibrary] = None
    params: Tuple[Tuple[str, Any], ...] = ()
    task: Optional[SimTask] = None

    def coord(self, axis: str) -> str:
        for name, label in self.coords:
            if name == axis:
                return label
        raise KeyError(f"point has no axis {axis!r}; axes: "
                       f"{[name for name, _ in self.coords]}")

    def param(self, name: str) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(f"point has no param {name!r}")


@dataclass(frozen=True)
class LoweredPlan:
    """A plan compiled to ordered points (grids in order, last axis fastest)."""

    plan: ExperimentPlan
    plan_hash: str
    points: Tuple[PlanPoint, ...]

    def task_keys(self) -> List[str]:
        """Every point's content key, in point order."""
        return [point.key for point in self.points]

    def sim_tasks(self) -> "OrderedDict[str, SimTask]":
        """Unique simulation tasks, keyed by content, in first-seen order."""
        unique: "OrderedDict[str, SimTask]" = OrderedDict()
        for point in self.points:
            if point.task is not None and point.key not in unique:
                unique[point.key] = point.task
        return unique


def _resolve_batch(value: BatchLike, config: ConfigLike, network: Network) -> int:
    if isinstance(value, int):
        return value
    if value == "derived":
        return derived_batch(config, network)
    if value == "paper":
        return paper_batch(config.name, network.name)
    return batch_for(config, network)  # "auto" (validated by AxisSpec)


def lower(plan: ExperimentPlan) -> LoweredPlan:
    """Compile a plan into ordered, content-addressed points.

    Deterministic by construction: the same plan content always lowers
    to the same point order and the same task keys.
    """
    points: List[PlanPoint] = []
    for grid in plan.grids:
        for combo in product(*(range(len(axis.values)) for axis in grid.axes)):
            coords: List[Tuple[str, str]] = []
            params: List[Tuple[str, Any]] = []
            config: Optional[ConfigLike] = None
            network: Optional[Network] = None
            batch_value: BatchLike = "auto"
            library: Optional[CellLibrary] = None
            have_batch_axis = False
            for axis, position in zip(grid.axes, combo):
                value = axis.values[position]
                coords.append((axis.name, axis.labels[position]))
                if axis.kind == "config":
                    config = value
                elif axis.kind == "workload":
                    network = value
                elif axis.kind == "batch":
                    batch_value = value
                    have_batch_axis = True
                elif axis.kind == "library":
                    library = value
                else:
                    params.append((axis.name, value))
            assert config is not None  # Grid validation guarantees one config axis
            if grid.kind == "estimate":
                resolved_library = library or library_for(Technology.RSFQ)
                points.append(PlanPoint(
                    grid=grid.name, kind=grid.kind, index=len(points),
                    coords=tuple(coords), config=config,
                    key=estimate_key(config, resolved_library),
                    library=library, params=tuple(params),
                ))
                continue
            batch = _resolve_batch(batch_value, config, network)
            if not have_batch_axis and not isinstance(config, NPUConfig):
                # CMOS baselines default to Table II like the SFQ side does
                # via batch_for; nothing extra needed — batch_for reads .name.
                pass
            task = SimTask(config, network, batch, library)
            points.append(PlanPoint(
                grid=grid.name, kind=grid.kind, index=len(points),
                coords=tuple(coords), config=config, key=task.key(),
                network=network, batch=batch, library=library,
                params=tuple(params), task=task,
            ))
    return LoweredPlan(plan=plan, plan_hash=plan.plan_hash(), points=tuple(points))


# -- results ---------------------------------------------------------------

@dataclass(frozen=True)
class PlanResult:
    """One point's outcome, stamped with its provenance."""

    plan: str
    plan_hash: str
    grid: str
    coords: Tuple[Tuple[str, str], ...]
    key: str
    cached: bool
    batch: Optional[int] = None
    run: Optional[SimulationResult] = None
    estimate: Optional[NPUEstimate] = None
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def result(self) -> Union[SimulationResult, NPUEstimate]:
        return self.run if self.run is not None else self.estimate

    def coord(self, axis: str) -> str:
        for name, label in self.coords:
            if name == axis:
                return label
        raise KeyError(f"result has no axis {axis!r}")

    def param(self, name: str) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(f"result has no param {name!r}")

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


#: A :class:`ResultSet` index key: ``(grid, axis, label)``, with ``None``
#: for "any grid", and ``(grid, None, None)`` for a whole grid.
_IndexKey = Tuple[Optional[str], Optional[str], Optional[str]]


class ResultSet:
    """All of one plan execution's results, in point order."""

    def __init__(self, plan: ExperimentPlan, plan_hash: str,
                 results: Sequence[PlanResult],
                 points_cached: int, points_executed: int) -> None:
        self.plan = plan
        self.plan_hash = plan_hash
        self.results: List[PlanResult] = list(results)
        self.points_total = len(self.results)
        self.points_cached = points_cached
        self.points_executed = points_executed
        self._index: Optional[Dict[_IndexKey, List[int]]] = None

    def __iter__(self) -> Iterator[PlanResult]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def select(self, grid: Optional[str] = None, **coords: str) -> List[PlanResult]:
        """Results matching a grid and/or axis labels, in point order.

        Answered from an index of each ``(grid, axis, label)`` to its
        point positions, built on the first call, so callers that select
        once per design never rescan the whole set.
        """
        if self._index is None:
            self._index = self._build_index()
        if coords:
            keys = [(grid, axis, label) for axis, label in coords.items()]
        elif grid is not None:
            keys = [(grid, None, None)]
        else:
            return list(self.results)
        matches = sorted((self._index.get(key, []) for key in keys), key=len)
        others = [set(positions) for positions in matches[1:]]
        return [self.results[position] for position in matches[0]
                if all(position in other for other in others)]

    def _build_index(self) -> Dict[_IndexKey, List[int]]:
        index: Dict[_IndexKey, List[int]] = {}
        for position, result in enumerate(self.results):
            index.setdefault((result.grid, None, None), []).append(position)
            for axis, label in dict(result.coords).items():
                index.setdefault((result.grid, axis, label), []).append(position)
                index.setdefault((None, axis, label), []).append(position)
        return index

    def one(self, grid: Optional[str] = None, **coords: str) -> PlanResult:
        """Exactly one matching result, or a ConfigError."""
        selected = self.select(grid=grid, **coords)
        if len(selected) != 1:
            raise ConfigError(
                f"expected exactly one result for grid={grid!r} {coords}, "
                f"got {len(selected)}", code="plan.ambiguous_selection",
                plan=self.plan.name, matches=len(selected))
        return selected[0]

    def runs(self, grid: Optional[str] = None, **coords: str) -> List[SimulationResult]:
        return [result.run for result in self.select(grid=grid, **coords)]

    def mean(self, metric: str = "mac_per_s", grid: Optional[str] = None,
             **coords: str) -> float:
        """Mean of one run metric over a selection (summed in point order)."""
        selected = self.select(grid=grid, **coords)
        if not selected:
            raise ConfigError(f"nothing selected for grid={grid!r} {coords}",
                              code="plan.empty_selection", plan=self.plan.name)
        return sum(getattr(r.run, metric) for r in selected) / len(selected)

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
    lowering order.
    """
    runner = get_runner()
    lowered = lower(plan)

    unique_tasks = lowered.sim_tasks()
    with obs.trace_span(f"plan/{plan.name}", points=len(lowered.points),
                        hash=lowered.plan_hash[:12]):
        # Whether each unique task / estimate was cached comes from the
        # runner's own lookups, so a damaged entry that was re-simulated
        # counts as executed.
        runs_by_key: Dict[str, SimulationResult] = {}
        cached_by_key: Dict[str, bool] = {}
        if unique_tasks:
            runs = runner.run(list(unique_tasks.values()))
            for key, run, cached in zip(unique_tasks, runs, runs.cached):
                runs_by_key[key] = run
                cached_by_key[key] = cached

        results: List[PlanResult] = []
        estimates: Dict[str, Tuple[NPUEstimate, bool]] = {}
        for point in lowered.points:
            if point.kind == "estimate":
                if point.key not in estimates:
                    estimates[point.key] = runner.lookup_estimate(point.config,
                                                                  point.library)
                estimate, cached = estimates[point.key]
                results.append(PlanResult(
                    plan=plan.name, plan_hash=lowered.plan_hash,
                    grid=point.grid, coords=point.coords, key=point.key,
                    cached=cached, params=point.params, estimate=estimate,
                ))
            else:
                results.append(PlanResult(
                    plan=plan.name, plan_hash=lowered.plan_hash,
                    grid=point.grid, coords=point.coords, key=point.key,
                    cached=cached_by_key[point.key], batch=point.batch,
                    params=point.params, run=runs_by_key[point.key],
                ))

    flags = [*cached_by_key.values(), *(cached for _, cached in estimates.values())]
    points_cached = sum(flags)
    points_executed = len(flags) - points_cached
    obs.counter("plan.points_total").add(len(lowered.points))
    obs.counter("plan.points_cached").add(points_cached)
    obs.counter("plan.points_executed").add(points_executed)
    _RECENT_PLANS.append((plan.name, lowered.plan_hash))
    del _RECENT_PLANS[:-_RECENT_LIMIT]
    return ResultSet(plan, lowered.plan_hash, results,
                     points_cached=points_cached, points_executed=points_executed)


# -- grid-shaped evaluation ------------------------------------------------

@dataclass(frozen=True, eq=False)
class EvaluatedGrid:
    """One grid's results, reshaped onto its axes.

    ``results`` is an object ndarray of :class:`PlanResult` shaped by the
    axis lengths; because lowering emits points with the last axis
    varying fastest, a plain C-order reshape is exact.  :meth:`array`
    turns any scalar result attribute into a dense float array ready for
    figure code — the vectorized surface the per-point loop never had.
    """

    name: str
    kind: str
    axis_names: Tuple[str, ...]
    axis_labels: Tuple[Tuple[str, ...], ...]
    results: "np.ndarray"

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.results.shape

    def array(self, metric: str = "mac_per_s") -> "np.ndarray":
        """Dense metric array over the grid (``nan`` where undefined).

        ``metric`` names an attribute of the point's result object — a
        :class:`~repro.simulator.results.SimulationResult` for simulate
        grids (``mac_per_s``, ``latency_s``, ``total_cycles``, ...) or an
        :class:`~repro.estimator.arch_level.NPUEstimate` for estimate
        grids (``frequency_ghz``, ``peak_tmacs``, ``area_mm2``, ...).
        """
        values = []
        for result in self.results.ravel():
            source = result.run if result.run is not None else result.estimate
            value = getattr(source, metric, None)
            values.append(float(value) if value is not None else float("nan"))
        return np.array(values, dtype=float).reshape(self.results.shape)

    def result(self, **coords: str) -> PlanResult:
        """The one point at the given axis labels (every axis required)."""
        index = []
        remaining = dict(coords)
        for name, labels in zip(self.axis_names, self.axis_labels):
            if name not in remaining:
                raise ConfigError(
                    f"grid {self.name!r} needs a label for axis {name!r}; "
                    f"axes: {list(self.axis_names)}",
                    code="plan.missing_axis", grid=self.name, axis=name)
            label = remaining.pop(name)
            try:
                index.append(labels.index(label))
            except ValueError:
                raise ConfigError(
                    f"axis {name!r} of grid {self.name!r} has no label "
                    f"{label!r}; labels: {list(labels)}",
                    code="plan.unknown_label", grid=self.name, axis=name,
                ) from None
        if remaining:
            raise ConfigError(
                f"grid {self.name!r} has no axes {sorted(remaining)}; "
                f"axes: {list(self.axis_names)}",
                code="plan.unknown_axis", grid=self.name)
        return self.results[tuple(index)]


class GridEvaluation:
    """:func:`evaluate_grid`'s output: each grid of a plan, axis-shaped."""

    def __init__(self, resultset: ResultSet,
                 grids: "OrderedDict[str, EvaluatedGrid]") -> None:
        self.resultset = resultset
        self.plan = resultset.plan
        self.plan_hash = resultset.plan_hash
        self.grids = grids

    def __iter__(self) -> Iterator[EvaluatedGrid]:
        return iter(self.grids.values())

    def __getitem__(self, name: str) -> EvaluatedGrid:
        try:
            return self.grids[name]
        except KeyError:
            raise ConfigError(
                f"plan {self.plan.name!r} has no grid {name!r}; "
                f"grids: {list(self.grids)}",
                code="plan.unknown_grid", plan=self.plan.name) from None

    def grid(self, name: Optional[str] = None) -> EvaluatedGrid:
        """One grid — by name, or the only one when the plan has just one."""
        if name is not None:
            return self[name]
        if len(self.grids) != 1:
            raise ConfigError(
                f"plan {self.plan.name!r} has {len(self.grids)} grids; "
                f"name one of {list(self.grids)}",
                code="plan.ambiguous_grid", plan=self.plan.name)
        return next(iter(self.grids.values()))


def evaluate_grid(plan: ExperimentPlan) -> GridEvaluation:
    """Execute a plan and reshape its points onto dense per-grid arrays.

    The whole plan still goes through :func:`execute` as one deduplicated
    submission (per-point caching, parallel fan-out, retries, and
    resume from the cache all apply unchanged); what this adds is the dense
    grid-shaped result surface — ``evaluation.grid().array("mac_per_s")``
    instead of a hand-rolled loop over :meth:`ResultSet.select`.
    """
    resultset = execute(plan)
    grids: "OrderedDict[str, EvaluatedGrid]" = OrderedDict()
    cursor = 0
    for grid in plan.grids:
        dims = tuple(len(axis.values) for axis in grid.axes)
        count = 1
        for dim in dims:
            count *= dim
        block = np.empty(count, dtype=object)
        block[:] = resultset.results[cursor:cursor + count]
        cursor += count
        grids[grid.name] = EvaluatedGrid(
            name=grid.name,
            kind=grid.kind,
            axis_names=tuple(axis.name for axis in grid.axes),
            axis_labels=tuple(axis.labels for axis in grid.axes),
            results=block.reshape(dims),
        )
    return GridEvaluation(resultset, grids)


# -- the named registry ----------------------------------------------------

def _plan_fig15() -> ExperimentPlan:
    from repro.core.experiments import fig15_plan

    return fig15_plan()


def _plan_fig20() -> ExperimentPlan:
    from repro.core.optimizer import buffer_plan

    return buffer_plan()


def _plan_fig21() -> ExperimentPlan:
    from repro.core.optimizer import resource_plan

    return resource_plan()


def _plan_fig22() -> ExperimentPlan:
    from repro.core.optimizer import register_plan

    return register_plan()


def _plan_fig23() -> ExperimentPlan:
    from repro.core.evaluate import evaluate_plan

    return evaluate_plan()


def _plan_table3() -> ExperimentPlan:
    from repro.core.evaluate import table3_plan

    return table3_plan()


def _plan_search() -> ExperimentPlan:
    from repro.core.search import search_plan

    return search_plan()


def _plan_ablation() -> ExperimentPlan:
    from repro.core.ablate import ablation_plan

    return ablation_plan()


def _plan_batch_knee() -> ExperimentPlan:
    from repro.core.designs import supernpu
    from repro.simulator.batch_sweep import batch_plan
    from repro.workloads.models import resnet50

    return batch_plan(supernpu(), resnet50())


def _plan_bandwidth() -> ExperimentPlan:
    from repro.core.sensitivity import bandwidth_plan

    return bandwidth_plan()


def _plan_cooling() -> ExperimentPlan:
    from repro.core.sensitivity import cooling_plan

    return cooling_plan()


def _plan_scaling() -> ExperimentPlan:
    from repro.core.designs import supernpu
    from repro.core.scaling import scaling_plan

    return scaling_plan(supernpu())


def _plan_memory_technologies() -> ExperimentPlan:
    from repro.components.study import memory_technology_plan

    return memory_technology_plan()


#: Every figure/table grid as a ready-made plan (builders run with the
#: paper's default workloads and library).
PLAN_BUILDERS: Dict[str, Callable[[], ExperimentPlan]] = {
    "fig15_breakdown": _plan_fig15,
    "fig20_buffers": _plan_fig20,
    "fig21_resources": _plan_fig21,
    "fig22_registers": _plan_fig22,
    "fig23_evaluate": _plan_fig23,
    "table3_power": _plan_table3,
    "search_grid": _plan_search,
    "ablation": _plan_ablation,
    "batch_knee": _plan_batch_knee,
    "bandwidth_sensitivity": _plan_bandwidth,
    "cooling_sensitivity": _plan_cooling,
    "process_scaling": _plan_scaling,
    "memory_technologies": _plan_memory_technologies,
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
