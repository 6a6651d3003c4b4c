"""End-to-end evaluation pipeline (paper Section VI).

Runs the six CNN workloads on the TPU baseline and on the four SFQ design
points, with Table II batch sizes, and produces the speedup comparison of
Fig. 23, the setup rows of Table I and the power-efficiency rows of
Table III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.scalesim import CMOSNPUConfig, TPU_CORE
from repro.cooling.cryocooler import PAPER_COOLER, Cryocooler
from repro.errors import UnknownDesignError
from repro.core.designs import all_designs, design_by_name
from repro.core.jobs import get_runner
from repro.core.metrics import EfficiencyRow, efficiency_row
from repro.core.plan import (
    ExperimentPlan,
    Grid,
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


def design_plan(
    config: NPUConfig,
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
) -> ExperimentPlan:
    """One design point x every workload (Table II batches)."""
    library = library or library_for(Technology.RSFQ)
    workloads = tuple(workloads if workloads is not None else all_workloads())
    grid = Grid("design", (
        config_axis((config,)),
        workload_axis(workloads),
        batch_axis(("auto",)),
        library_axis((library,)),
    ))
    return ExperimentPlan(
        f"evaluate_{config.name}", (grid,),
        description=f"all workloads on {config.name}",
    )


def evaluate_design(
    config: NPUConfig,
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
) -> DesignEvaluation:
    """Simulate every workload on one design point (Table II batches)."""
    library = library or library_for(Technology.RSFQ)
    workloads = workloads if workloads is not None else all_workloads()
    estimate = get_runner().estimate(config, library)
    evaluation = DesignEvaluation(config=config, estimate=estimate)
    resultset = execute(design_plan(config, workloads, library))
    for network, result in zip(workloads, resultset):
        evaluation.runs[network.name] = result.run
        evaluation.power[network.name] = power_report(result.run, estimate)
    return evaluation


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
    library = library or library_for(Technology.RSFQ)
    workloads = workloads if workloads is not None else all_workloads()
    configs = list(designs) if designs is not None else all_designs()

    resultset = execute(evaluate_plan(configs, workloads, library, tpu))
    tpu_runs = {
        network.name: result.run
        for network, result in zip(workloads, resultset.select(grid="tpu"))
    }
    design_evals = []
    for config in configs:
        estimate = get_runner().estimate(config, library)
        evaluation = DesignEvaluation(config=config, estimate=estimate)
        for result in resultset.select(grid="designs", config=config.name):
            evaluation.runs[result.run.network] = result.run
            evaluation.power[result.run.network] = power_report(result.run, estimate)
        design_evals.append(evaluation)
    return EvaluationSuite(tpu_config=tpu, tpu_runs=tpu_runs, designs=design_evals)


def table3_plan(design_name: str = "SuperNPU") -> ExperimentPlan:
    """Table III's grids: the Fig. 23 suite plus RSFQ/ERSFQ chip runs."""
    suite = evaluate_plan()
    workloads = tuple(all_workloads())
    config = design_by_name(design_name)
    technologies = Grid("technologies", (
        config_axis((config,)),
        workload_axis(workloads),
        batch_axis(("auto",)),
        library_axis((library_for(Technology.RSFQ),
                      library_for(Technology.ERSFQ))),
    ))
    return ExperimentPlan(
        "table3_power", suite.grids + (technologies,),
        description="Table III: perf/W of TPU vs RSFQ/ERSFQ SuperNPU",
    )


def table3_rows(
    suite: EvaluationSuite,
    cooler: Cryocooler = PAPER_COOLER,
    design_name: str = "SuperNPU",
) -> List[EfficiencyRow]:
    """Table III: TPU vs RSFQ/ERSFQ SuperNPU, with and without cooling.

    Chip power per technology is static + simulated dynamic power averaged
    over the six workloads.
    """
    tpu_mean = sum(run.mac_per_s for run in suite.tpu_runs.values()) / len(suite.tpu_runs)
    rows = [efficiency_row("TPU", suite.tpu_config.average_power_w, tpu_mean, cooler=None)]
    design = suite.design(design_name)
    for technology in (Technology.RSFQ, Technology.ERSFQ):
        evaluation = evaluate_design(
            design.config, _networks_of(suite), library_for(technology)
        )
        chip_power = sum(p.total_w for p in evaluation.power.values()) / len(evaluation.power)
        mean_perf = evaluation.mean_mac_per_s
        label = f"{technology.value.upper()}-{design_name}"
        rows.append(
            efficiency_row(f"{label} (w/o cooling)", chip_power, mean_perf,
                           cooler=cooler, free_cooling=True)
        )
        rows.append(
            efficiency_row(f"{label} (w/ cooling)", chip_power, mean_perf,
                           cooler=cooler, free_cooling=False)
        )
    return rows


def _networks_of(suite: EvaluationSuite) -> List[Network]:
    from repro.workloads.models import by_name

    return [by_name(name) for name in suite.tpu_runs]
