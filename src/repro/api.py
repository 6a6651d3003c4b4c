"""``repro.api`` — the canonical typed entry points of the framework.

One facade instead of five scattered imports: resolve a design, estimate
it, simulate it, evaluate the paper suite, or compare arbitrary design
points, with uniform input handling everywhere:

* **designs** — a named design point (``"supernpu"``), a path to a JSON
  config file, a plain config dict, or an :class:`NPUConfig`;
* **workloads** — a benchmark name (``"resnet50"``) or a
  :class:`~repro.workloads.models.Network`;
* **technology** — ``"rsfq"`` / ``"ersfq"`` (or a
  :class:`~repro.device.cells.CellLibrary` for custom libraries).

Every verb gets its runner one way: from the ambient job runner
(:mod:`repro.core.jobs`), so parallelism and result caching apply
uniformly.  The ambient runner is per thread: a :func:`session` or
:func:`use_runner` block installs one for the calling thread only::

    from repro import api

    config = api.design("supernpu")
    print(api.estimate(config).frequency_ghz)           # 52.6
    run = api.simulate(config, "resnet50", batch=30)

    with api.session(jobs=4, cache_dir="~/.cache/supernpu"):
        suite = api.evaluate()                          # Fig. 23, fanned out

Execution knobs (fan-out, cache, retries, timeouts, progress) are
:func:`session` arguments; host-time profiling wraps the block in a
:class:`HotspotProfiler`.  Plans evaluate either point-by-point
(:func:`run_plan`) or as dense axis-shaped grids (:func:`evaluate_grid`).

The CLI commands and the ``serve`` endpoints are thin wrappers over
these functions.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.baselines.scalesim import TPU_CORE, CMOSNPUConfig
from repro.components import (
    ComponentEstimator,
    CrossTemperatureReport,
    all_components,
    component_by_name,
    cross_temperature_report,
)
from repro.core.ablate import AblationRow, ablation_study
from repro.core.batching import batch_for
from repro.core.compare import ComparisonColumn, compare as _compare
from repro.core.config_io import config_from_dict, load as _load_config
from repro.core.designs import design_by_name
from repro.core.evaluate import EvaluationSuite, evaluate_suite
from repro.core.jobs import (
    JobRunner,
    ResultCache,
    SimTask,
    get_runner,
    session,
    use_runner,
)
from repro.core.plan import (
    EvaluatedGrid,
    ExperimentPlan,
    GridEvaluation,
    ResultSet,
    evaluate_grid as _evaluate_grid,
    execute as _execute_plan,
    named_plans,
    plan_by_name,
)
from repro.device.cells import CellLibrary, Technology, library_for
from repro.errors import ConfigError, InvalidSpecError, InvalidWorkloadSpecError
from repro.estimator.arch_level import NPUEstimate
from repro.obs.hotspot import HotspotProfile, HotspotProfiler
from repro.obs.progress import ProgressReporter
from repro.obs.registry import RunRegistry
from repro.obs.timeline import CycleTimeline
from repro.simulator.results import SimulationResult
from repro.uarch.config import NPUConfig
from repro.workloads.models import Network, all_workloads, by_name

#: Anything :func:`design` accepts.
DesignLike = Union[str, Path, Dict[str, object], NPUConfig]
#: Anything :func:`workload` accepts.
WorkloadLike = Union[str, Network]
#: Anything :func:`library` accepts.
TechnologyLike = Union[str, Technology, CellLibrary]

__all__ = [
    "DesignLike",
    "WorkloadLike",
    "TechnologyLike",
    "design",
    "workload",
    "library",
    "component",
    "components",
    "cross_temperature",
    "estimate",
    "simulate",
    "evaluate",
    "evaluate_grid",
    "compare",
    "ablate",
    "plans",
    "plan",
    "run_plan",
    "serve",
    "ComponentEstimator",
    "CrossTemperatureReport",
    "EvaluatedGrid",
    "ExperimentPlan",
    "GridEvaluation",
    "ResultSet",
    "HotspotProfile",
    "HotspotProfiler",
    "JobRunner",
    "ProgressReporter",
    "ResultCache",
    "RunRegistry",
    "SimTask",
    "get_runner",
    "session",
    "use_runner",
]


def design(spec: DesignLike) -> NPUConfig:
    """Resolve any design description to an :class:`NPUConfig`.

    Accepts an ``NPUConfig`` (returned as-is), a config dict, a path to
    a JSON config file (``Path``, or a string naming an existing file /
    ending in ``.json``), or a named paper design point.
    """
    if isinstance(spec, NPUConfig):
        return spec
    if isinstance(spec, dict):
        return config_from_dict(spec)
    if isinstance(spec, Path):
        return _load_config(spec)
    if isinstance(spec, str):
        if spec.endswith(".json") or Path(spec).is_file():
            return _load_config(spec)
        return design_by_name(spec)
    raise InvalidSpecError(
        f"cannot resolve a design from {type(spec).__name__}; "
        "expected a name, dict, path, or NPUConfig",
        got=type(spec).__name__,
    )


def workload(spec: WorkloadLike) -> Network:
    """Resolve a benchmark name (or pass a Network through)."""
    if isinstance(spec, Network):
        return spec
    if isinstance(spec, str):
        return by_name(spec)
    raise InvalidWorkloadSpecError(
        f"cannot resolve a workload from {type(spec).__name__}; "
        "expected a name or Network",
        got=type(spec).__name__,
    )


def library(technology: TechnologyLike = "rsfq") -> CellLibrary:
    """Resolve a technology name / enum (or pass a CellLibrary through)."""
    if isinstance(technology, CellLibrary):
        return technology
    if isinstance(technology, Technology):
        return library_for(technology)
    if isinstance(technology, str):
        try:
            resolved = Technology(technology)
        except ValueError:
            raise ConfigError(
                f"unknown technology {technology!r}; "
                f"known: {[t.value for t in Technology]}",
                code="config.unknown_technology", name=technology,
            ) from None
        return library_for(resolved)
    raise InvalidSpecError(
        f"cannot resolve a cell library from {type(technology).__name__}; "
        "expected 'rsfq' / 'ersfq', a Technology, or a CellLibrary",
        got=type(technology).__name__,
    )


def component(name: str, kind: Optional[str] = None) -> ComponentEstimator:
    """Look up a registered component estimator by name.

    ``kind`` optionally restricts the lookup (``"memory"`` / ``"link"``);
    unknown names raise a :class:`ConfigError` listing the registry.
    """
    return component_by_name(name, kind=kind)


def components(kind: Optional[str] = None) -> List[ComponentEstimator]:
    """Every registered component, in registration order."""
    return all_components(kind=kind)


def cross_temperature(run: SimulationResult,
                      estimate_result: NPUEstimate) -> CrossTemperatureReport:
    """Per-stage dissipation + ladder-charged wall power of one run."""
    return cross_temperature_report(run, estimate_result)


def estimate(design_spec: DesignLike, *,
             technology: TechnologyLike = "rsfq") -> NPUEstimate:
    """Frequency / power / area estimation of one design point."""
    return get_runner().estimate(design(design_spec), library(technology))


def simulate(design_spec: DesignLike, workload_spec: WorkloadLike, *,
             batch: Optional[int] = None,
             technology: TechnologyLike = "rsfq",
             timeline: Optional[CycleTimeline] = None) -> SimulationResult:
    """Cycle-level simulation of one workload on one design.

    ``batch=None`` applies the paper's Table II policy (named designs)
    or the capacity-derived rule (custom configs).  A ``timeline`` run
    bypasses the runner — the timeline is filled by live simulation, so
    it cannot come from the cache or another process.
    """
    config = design(design_spec)
    network = workload(workload_spec)
    lib = library(technology)
    resolved_batch = batch if batch is not None else batch_for(config, network)
    runner = get_runner()
    if timeline is None:
        return runner.run_one(SimTask(config, network, resolved_batch, lib))
    from repro.simulator.engine import simulate as engine_simulate

    return engine_simulate(config, network, batch=resolved_batch,
                           estimate=runner.estimate(config, lib), timeline=timeline)


def evaluate(designs: Optional[Sequence[DesignLike]] = None,
             workloads: Optional[Sequence[WorkloadLike]] = None, *,
             technology: TechnologyLike = "rsfq",
             tpu: CMOSNPUConfig = TPU_CORE) -> EvaluationSuite:
    """The Fig. 23 suite: TPU baseline + design points x workloads."""
    return evaluate_suite(
        designs=None if designs is None else [design(d) for d in designs],
        workloads=None if workloads is None
        else [workload(w) for w in workloads],
        library=library(technology),
        tpu=tpu,
    )


def compare(designs: Sequence[DesignLike],
            workloads: Optional[Sequence[WorkloadLike]] = None, *,
            technology: TechnologyLike = "rsfq") -> List[ComparisonColumn]:
    """Side-by-side scorecards for any set of design points."""
    return _compare(
        [design(d) for d in designs],
        workloads=None if workloads is None
        else [workload(w) for w in workloads],
        library=library(technology),
    )


def ablate(base: Optional[DesignLike] = None,
           workloads: Optional[Sequence[WorkloadLike]] = None, *,
           technology: TechnologyLike = "rsfq") -> List[AblationRow]:
    """One-factor-at-a-time ablation of a design (default: SuperNPU)."""
    return ablation_study(
        workloads=None if workloads is None
        else [workload(w) for w in workloads],
        library=library(technology),
        base=None if base is None else design(base),
    )


def plans() -> List[str]:
    """The registered experiment plans (one per figure/table grid)."""
    return named_plans()


def plan(name: str) -> ExperimentPlan:
    """Build a registered plan by name (``ConfigError`` if unknown)."""
    return plan_by_name(name)


def run_plan(plan_or_name: Union[str, ExperimentPlan]) -> ResultSet:
    """Execute a plan (or a registered plan name) through the job engine.

    Inherits the ambient runner's cache, parallel fan-out, retry/timeout
    handling, and resume from the cache; returns provenance-stamped
    per-point results.
    """
    resolved = plan_by_name(plan_or_name) if isinstance(plan_or_name, str) \
        else plan_or_name
    return _execute_plan(resolved)


def evaluate_grid(plan_or_name: Union[str, ExperimentPlan]) -> GridEvaluation:
    """Run a plan and return dense, axis-shaped per-grid result arrays.

    The lowered design points still execute through the job engine as
    one deduplicated submission (cache, fan-out, retries and resume all
    apply); the returned :class:`GridEvaluation` adds the vectorized
    result surface — ``evaluation.grid().array("mac_per_s")`` is the
    whole grid as one numpy array, shaped by the grid's axes, instead of
    a hand-rolled loop over per-point records.
    """
    resolved = plan_by_name(plan_or_name) if isinstance(plan_or_name, str) \
        else plan_or_name
    return _evaluate_grid(resolved)


def paper_workloads() -> List[Network]:
    """The six benchmark CNNs, in canonical order."""
    return all_workloads()


def serve(**config_kwargs):
    """Construct the evaluation daemon (``repro.serve.EvalDaemon``).

    Keyword arguments are :class:`repro.serve.ServeConfig` fields
    (``cache_dir``, ``jobs``, ``quota_rate_per_s``, ...).  Call
    ``.run()`` on the result to block until SIGTERM, or use
    ``repro.serve.daemon_in_thread`` to host one inside a test.  The
    import is lazy because :mod:`repro.serve` resolves requests through
    this facade.
    """
    from repro.serve import EvalDaemon, ServeConfig

    return EvalDaemon(ServeConfig(**config_kwargs))
