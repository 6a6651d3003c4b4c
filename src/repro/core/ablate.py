"""One-factor-at-a-time ablation of SuperNPU.

Fig. 23 stacks the optimizations cumulatively (Baseline -> Buffer opt. ->
Resource opt. -> SuperNPU).  The complementary question — *which single
feature matters most?* — is answered by removing each from the final
design in isolation and measuring the damage:

* ``no_integration``  — split the output buffer back into psum + ofmap;
* ``no_division``     — undivided (monolithic) shift-register buffers;
* ``wide_array``      — back to the 256-wide array (buffers shrink to the
  Baseline's 24 MB total to stay within the area budget);
* ``single_register`` — one weight register per PE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.designs import supernpu
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
from repro.uarch.config import MIB, NPUConfig
from repro.workloads.models import Network, all_workloads


def ablated_configs(base: Optional[NPUConfig] = None) -> Dict[str, NPUConfig]:
    """SuperNPU with each optimization removed individually."""
    base = base or supernpu()
    half_output = base.output_buffer_bytes // 2
    return {
        "SuperNPU": base,
        "no_integration": base.with_updates(
            name="SuperNPU - integration",
            integrated_output_buffer=False,
            output_buffer_bytes=half_output,
            psum_buffer_bytes=base.output_buffer_bytes - half_output,
        ),
        "no_division": base.with_updates(
            name="SuperNPU - division",
            ifmap_division=1,
            output_division=1,
        ),
        "wide_array": base.with_updates(
            name="SuperNPU - narrow array",
            pe_array_width=256,
            ifmap_buffer_bytes=12 * MIB,
            output_buffer_bytes=12 * MIB,
        ),
        "single_register": base.with_updates(
            name="SuperNPU - registers",
            registers_per_pe=1,
        ),
    }


@dataclass(frozen=True)
class AblationRow:
    """Throughput impact of removing one feature."""

    feature: str
    config_name: str
    mean_mac_per_s: float
    relative_to_full: float

    @property
    def penalty_percent(self) -> float:
        """Throughput lost by removing the feature (positive = loss)."""
        return 100.0 * (1.0 - self.relative_to_full)


def ablation_plan(
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
    base: Optional[NPUConfig] = None,
) -> ExperimentPlan:
    """The one-factor ablation grid: each ablated config x every workload."""
    library = library or library_for(Technology.RSFQ)
    workloads = workloads if workloads is not None else all_workloads()
    configs = ablated_configs(base)
    grid = Grid("ablation", (
        config_axis(tuple(configs.values())),
        workload_axis(tuple(workloads)),
        batch_axis(("derived",)),
        library_axis((library,)),
    ))
    return ExperimentPlan(
        "ablation", (grid,),
        description="one-factor-at-a-time feature ablation of SuperNPU",
    )


def ablation_study(
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
    base: Optional[NPUConfig] = None,
) -> List[AblationRow]:
    """Run the one-factor ablation; rows sorted by damage, worst first."""
    configs = ablated_configs(base)
    plan = ablation_plan(workloads, library, base)
    resultset = execute(plan)

    means = {key: resultset.mean("mac_per_s", grid="ablation", config=config.name)
             for key, config in configs.items()}

    full = means["SuperNPU"]
    rows = [
        AblationRow(
            feature=key,
            config_name=configs[key].name,
            mean_mac_per_s=mean,
            relative_to_full=mean / full,
        )
        for key, mean in means.items()
        if key != "SuperNPU"
    ]
    rows.sort(key=lambda row: row.relative_to_full)
    return rows
