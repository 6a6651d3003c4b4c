"""End-to-end evaluation pipeline (paper Section VI).

Runs the six CNN workloads on the TPU baseline and on the four SFQ design
points, with Table II batch sizes, and produces the speedup comparison of
Fig. 23 (:func:`evaluate_suite`, one ``fig23_evaluate`` plan) and the
power-efficiency rows of Table III (:func:`table3_rows`, read from one
executed ``table3_power`` plan, which holds Fig. 23's grids too, so
:func:`suite_from` reads both figures from one execution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.scalesim import CMOSNPUConfig, TPU_CORE
from repro.cooling.cryocooler import PAPER_COOLER
from repro.errors import UnknownDesignError
from repro.core.designs import all_designs, design_by_name
from repro.core.jobs import get_runner
from repro.core.metrics import EfficiencyRow, efficiency_row
from repro.core.plan import (
    ExperimentPlan,
    Grid,
    ResultSet,
    batch_axis,
    config_axis,
    execute,
    library_axis,
    workload_axis,
)
from repro.device.cells import CellLibrary, Technology, library_for
from repro.estimator.arch_level import NPUEstimate
from repro.simulator.power import PowerReport, power_report
from repro.simulator.results import SimulationResult
from repro.uarch.config import NPUConfig
from repro.workloads.models import Network, all_workloads


@dataclass
class DesignEvaluation:
    """All per-workload results for one design point."""

    config: NPUConfig
    estimate: NPUEstimate
    runs: Dict[str, SimulationResult] = field(default_factory=dict)
    power: Dict[str, PowerReport] = field(default_factory=dict)

    @property
    def mean_mac_per_s(self) -> float:
        if not self.runs:
            return 0.0
        return sum(run.mac_per_s for run in self.runs.values()) / len(self.runs)

    def speedup_vs(self, reference: Dict[str, SimulationResult]) -> Dict[str, float]:
        """Per-workload throughput normalized to a reference design."""
        speedups = {}
        for name, run in self.runs.items():
            ref = reference[name]
            speedups[name] = run.mac_per_s / ref.mac_per_s
        if speedups:
            speedups["Average"] = sum(speedups.values()) / len(speedups)
        return speedups


@dataclass
class EvaluationSuite:
    """Fig. 23: TPU baseline plus the four SFQ designs on six workloads."""

    tpu_config: CMOSNPUConfig
    tpu_runs: Dict[str, SimulationResult]
    designs: List[DesignEvaluation]

    def speedups(self) -> Dict[str, Dict[str, float]]:
        """{design name: {workload: speedup vs TPU, ..., 'Average': x}}."""
        return {d.config.name: d.speedup_vs(self.tpu_runs) for d in self.designs}

    def design(self, name: str) -> DesignEvaluation:
        for evaluation in self.designs:
            if evaluation.config.name == name:
                return evaluation
        raise UnknownDesignError(
            f"design {name!r} not in suite",
            name=name, known=[d.config.name for d in self.designs],
        )


def evaluate_plan(
    designs: Optional[List[NPUConfig]] = None,
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
    tpu: CMOSNPUConfig = TPU_CORE,
) -> ExperimentPlan:
    """Fig. 23's grids: the TPU baseline plus every SFQ design point."""
    library = library or library_for(Technology.RSFQ)
    workloads = tuple(workloads if workloads is not None else all_workloads())
    configs = tuple(designs) if designs is not None else tuple(all_designs())
    grids = (
        Grid("tpu", (
            config_axis((tpu,)),
            workload_axis(workloads),
            batch_axis(("paper",)),
        )),
        Grid("designs", (
            config_axis(configs),
            workload_axis(workloads),
            batch_axis(("auto",)),
            library_axis((library,)),
        )),
    )
    return ExperimentPlan(
        "fig23_evaluate", grids,
        description="Fig. 23: TPU baseline vs the four SFQ designs",
    )


def evaluate_suite(
    designs: Optional[List[NPUConfig]] = None,
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
    tpu: CMOSNPUConfig = TPU_CORE,
) -> EvaluationSuite:
    """Run the whole Fig. 23 comparison.

    The TPU-baseline and SFQ design-point grids lower onto one plan whose
    tasks reach the runner as a single list, so ``jobs > 1`` parallelizes
    the entire design x workload grid at once.
    """
    return suite_from(execute(evaluate_plan(designs, workloads, library, tpu)))


def _values(resultset: ResultSet, grid: str, kind: str) -> Tuple[Any, ...]:
    """The values of ``grid``'s axis of ``kind`` in an executed plan."""
    planned = next(each for each in resultset.plan.grids if each.name == grid)
    return next(axis.values for axis in planned.axes if axis.kind == kind)


def suite_from(resultset: ResultSet) -> EvaluationSuite:
    """The Fig. 23 suite read from an executed plan's ``tpu`` and
    ``designs`` grids (:func:`evaluate_plan`'s or :func:`table3_plan`'s)."""
    (tpu,) = _values(resultset, "tpu", "config")
    (library,) = _values(resultset, "designs", "library")
    tpu_runs = {result.run.network: result.run for result in resultset.select(grid="tpu")}
    design_evals = []
    for config in _values(resultset, "designs", "config"):
        estimate = get_runner().estimate(config, library)
        evaluation = DesignEvaluation(config=config, estimate=estimate)
        for result in resultset.select(grid="designs", config=config.name):
            evaluation.runs[result.run.network] = result.run
            evaluation.power[result.run.network] = power_report(result.run, estimate)
        design_evals.append(evaluation)
    return EvaluationSuite(tpu_config=tpu, tpu_runs=tpu_runs, designs=design_evals)


#: The design Table III rates in both technologies.
TABLE3_DESIGN = "SuperNPU"


def table3_plan(
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
) -> ExperimentPlan:
    """Table III's grids: the Fig. 23 suite (its designs on ``library``)
    plus the RSFQ and ERSFQ runs of :data:`TABLE3_DESIGN`."""
    suite = evaluate_plan(workloads=workloads, library=library)
    technologies = Grid("technologies", (
        config_axis((design_by_name(TABLE3_DESIGN),)),
        workload_axis(tuple(workloads if workloads is not None else all_workloads())),
        batch_axis(("auto",)),
        library_axis((library_for(Technology.RSFQ),
                      library_for(Technology.ERSFQ))),
    ))
    return ExperimentPlan(
        "table3_power", suite.grids + (technologies,),
        description="Table III: perf/W of TPU vs RSFQ/ERSFQ SuperNPU",
    )


def table3_rows(resultset: ResultSet) -> List[EfficiencyRow]:
    """Table III from one executed :func:`table3_plan`: TPU vs RSFQ/ERSFQ
    SuperNPU, with and without the paper's cryocooler.

    Chip power per technology is static + simulated dynamic power averaged
    over the workloads.
    """
    tpu_perf = resultset.mean("mac_per_s", grid="tpu")
    rows = [efficiency_row("TPU", TPU_CORE.average_power_w, tpu_perf, cooler=None)]
    config = design_by_name(TABLE3_DESIGN)
    for technology in (Technology.RSFQ, Technology.ERSFQ):
        estimate = get_runner().estimate(config, library_for(technology))
        runs = resultset.runs(grid="technologies", library=technology.value)
        chip_power = sum(power_report(run, estimate).total_w for run in runs) / len(runs)
        mean_perf = resultset.mean("mac_per_s", grid="technologies", library=technology.value)
        label = f"{technology.value.upper()}-{TABLE3_DESIGN}"
        for cooling, free in (("w/o", True), ("w/", False)):
            rows.append(efficiency_row(f"{label} ({cooling} cooling)", chip_power, mean_perf,
                                       cooler=PAPER_COOLER, free_cooling=free))
    return rows
