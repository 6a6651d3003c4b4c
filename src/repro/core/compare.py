"""Side-by-side comparison of arbitrary design points.

The evaluation pipeline compares the paper's five named designs; users
exploring their own configurations need the same view for *any* set of
configs: clock, peak, area, power, and per-workload throughput in one
record.  This powers ``supernpu compare``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.jobs import get_runner
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
from repro.errors import ConfigError
from repro.simulator.attribution import PHASE_ORDER, phase_cycle_totals
from repro.uarch.config import NPUConfig
from repro.workloads.models import Network, all_workloads


@dataclass
class ComparisonColumn:
    """One design's full scorecard."""

    config: NPUConfig
    frequency_ghz: float
    peak_tmacs: float
    area_mm2_28nm: float
    static_power_w: float
    throughput_tmacs: Dict[str, float] = field(default_factory=dict)
    batches: Dict[str, int] = field(default_factory=dict)
    #: Simulated cycles per phase (weight_load, ..., dram_stall, total),
    #: summed over all compared workloads — the attribution scorecard.
    phase_cycles: Dict[str, int] = field(default_factory=dict)

    @property
    def mean_tmacs(self) -> float:
        if not self.throughput_tmacs:
            return 0.0
        return sum(self.throughput_tmacs.values()) / len(self.throughput_tmacs)


def compare_plan(
    configs: List[NPUConfig],
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
) -> ExperimentPlan:
    """The comparison grid: every config x every workload, auto batches."""
    if not configs:
        raise ConfigError("need at least one design to compare",
                          code="config.empty_comparison")
    names = [config.name for config in configs]
    if len(set(names)) != len(names):
        raise ConfigError(f"design names must be unique, got {names}",
                          code="config.duplicate_designs", names=names)
    library = library or library_for(Technology.RSFQ)
    workloads = tuple(workloads if workloads is not None else all_workloads())
    grid = Grid("compare", (
        config_axis(tuple(configs)),
        workload_axis(workloads),
        batch_axis(("auto",)),
        library_axis((library,)),
    ))
    return ExperimentPlan(
        "compare", (grid,),
        description="side-by-side scorecard of arbitrary design points",
    )


def compare(
    configs: List[NPUConfig],
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
) -> List[ComparisonColumn]:
    """Score every config on every workload (Table II / derived batches).

    The whole config x workload grid lowers onto one plan, so comparisons
    parallelize and cache per design point.
    """
    library = library or library_for(Technology.RSFQ)
    workloads = workloads if workloads is not None else all_workloads()

    resultset = execute(compare_plan(configs, workloads, library))

    columns: List[ComparisonColumn] = []
    for config in configs:
        estimate = get_runner().estimate(config, library)
        column = ComparisonColumn(
            config=config,
            frequency_ghz=estimate.frequency_ghz,
            peak_tmacs=estimate.peak_tmacs,
            area_mm2_28nm=estimate.area_mm2_scaled(),
            static_power_w=estimate.static_power_w,
        )
        for result in resultset.select(grid="compare", config=config.name):
            run = result.run
            column.throughput_tmacs[run.network] = run.tmacs
            column.batches[run.network] = run.batch
            for phase, cycles in phase_cycle_totals(run).items():
                column.phase_cycles[phase] = column.phase_cycles.get(phase, 0) + cycles
        columns.append(column)
    return columns


def winner(columns: List[ComparisonColumn]) -> ComparisonColumn:
    """The column with the best mean throughput."""
    if not columns:
        raise ValueError("nothing to compare")
    return max(columns, key=lambda column: column.mean_tmacs)


def comparison_records(columns: List[ComparisonColumn]) -> List[Dict[str, object]]:
    """Flat dict records (JSON/CSV-ready) of a comparison."""
    records = []
    for column in columns:
        record: Dict[str, object] = {
            "design": column.config.name,
            "frequency_ghz": column.frequency_ghz,
            "peak_tmacs": column.peak_tmacs,
            "area_mm2_28nm": column.area_mm2_28nm,
            "static_power_w": column.static_power_w,
            "mean_tmacs": column.mean_tmacs,
        }
        for name, value in column.throughput_tmacs.items():
            record[f"tmacs_{name}"] = value
        for phase, cycles in column.phase_cycles.items():
            record[f"cycles_{phase}"] = cycles
        records.append(record)
    return records


def phase_deltas(columns: List[ComparisonColumn]) -> List[Dict[str, object]]:
    """Where cycles moved, phase by phase, relative to the first design.

    One row per phase (plus ``total``): each design's summed cycles and
    its delta against ``columns[0]`` — a negative delta means the design
    spends fewer cycles in that phase.  This is how A-vs-B comparisons
    show *where* an optimization paid off, not just the totals.
    """
    if not columns:
        raise ValueError("nothing to compare")
    reference = columns[0]
    rows: List[Dict[str, object]] = []
    for phase in list(PHASE_ORDER) + ["total"]:
        row: Dict[str, object] = {"phase": phase}
        base = reference.phase_cycles.get(phase, 0)
        for column in columns:
            cycles = column.phase_cycles.get(phase, 0)
            row[column.config.name] = cycles
            row[f"{column.config.name}_delta"] = cycles - base
        rows.append(row)
    return rows
