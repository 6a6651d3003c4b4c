"""Cross-temperature energy accounting.

Joins a simulated run, its estimate, and the registered memory/link
components into a per-stage dissipation map, then charges each stage at
its own cooling factor through a :class:`~repro.cooling.CoolingLadder`.
This generalizes the paper's Section VI-C wall-power model (every watt
at 400x) to systems whose memory lives at 77 K or 300 K.

Accounting model:

* the chip itself (static + activity-driven dynamic power, from
  :func:`repro.simulator.power.power_report`) dissipates at 4.2 K;
* every off-chip traffic byte pays the memory component's access energy
  at the memory's stage — traffic is a roughly symmetric mix of read
  streams (weights, refetched ifmaps) and write streams (spilled
  ofmaps), so each byte is charged the mean of the declared read/write
  energies;
* every traffic byte also pays the link's ``transfer`` energy at the
  link's (cold-end) stage;
* components' declared idle power dissipates at their stage for the
  whole run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.components.base import (
    DEFAULT_LINK_TECHNOLOGY,
    DEFAULT_MEMORY_TECHNOLOGY,
    STAGE_4K,
    component_by_name,
)
from repro.cooling.ladder import PAPER_LADDER, CoolingLadder


@dataclass(frozen=True)
class CrossTemperatureReport:
    """Per-stage dissipation and ladder-charged wall power of one run."""

    design: str
    network: str
    batch: int
    memory_technology: str
    link_technology: str
    dissipation_by_stage_w: Dict[float, float] = field(default_factory=dict)
    cooling_power_w: float = 0.0
    wall_power_w: float = 0.0
    free_cooling_wall_power_w: float = 0.0

    @property
    def dissipated_w(self) -> float:
        return sum(self.dissipation_by_stage_w.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "design": self.design,
            "network": self.network,
            "batch": self.batch,
            "memory_technology": self.memory_technology,
            "link_technology": self.link_technology,
            "dissipation_by_stage_w": {
                f"{stage:g}": watts
                for stage, watts in self.dissipation_by_stage_w.items()
            },
            "dissipated_w": self.dissipated_w,
            "cooling_power_w": self.cooling_power_w,
            "wall_power_w": self.wall_power_w,
            "free_cooling_wall_power_w": self.free_cooling_wall_power_w,
        }


def cross_temperature_report(
    run,
    estimate,
    ladder: CoolingLadder = PAPER_LADDER,
    data_activity: Optional[float] = None,
) -> CrossTemperatureReport:
    """Charge one simulated run's dissipation stage by stage.

    ``run`` is a :class:`~repro.simulator.results.SimulationResult` and
    ``estimate`` its :class:`~repro.estimator.arch_level.NPUEstimate`;
    the memory/link technologies are read off ``estimate.config``.
    """
    # power_report pulls in the full simulator package; import lazily so
    # repro.components stays a leaf importable from uarch/simulator.
    from repro.simulator.power import DATA_ACTIVITY, power_report

    if data_activity is None:
        data_activity = DATA_ACTIVITY
    chip = power_report(run, estimate, data_activity)
    config = estimate.config
    memory = component_by_name(
        getattr(config, "memory_technology", DEFAULT_MEMORY_TECHNOLOGY),
        kind="memory")
    link = component_by_name(
        getattr(config, "link_technology", DEFAULT_LINK_TECHNOLOGY),
        kind="link")

    traffic_bytes = sum(run.columns["dram_traffic_bytes"])
    runtime_s = run.latency_s

    dissipation: Dict[float, float] = {stage.temperature_k: 0.0
                                       for stage in ladder.stages}
    dissipation[STAGE_4K] = dissipation.get(STAGE_4K, 0.0) + chip.total_w

    memory_joules = (memory.action_energy_j("read", traffic_bytes / 2)
                     + memory.action_energy_j("write", traffic_bytes / 2))
    link_joules = link.action_energy_j("transfer", traffic_bytes)
    if runtime_s > 0:
        dissipation[memory.stage_k] = (dissipation.get(memory.stage_k, 0.0)
                                       + memory_joules / runtime_s)
        dissipation[link.stage_k] = (dissipation.get(link.stage_k, 0.0)
                                     + link_joules / runtime_s)
    dissipation[memory.stage_k] += memory.idle_power_w
    dissipation[link.stage_k] += link.idle_power_w

    return CrossTemperatureReport(
        design=run.design,
        network=run.network,
        batch=run.batch,
        memory_technology=memory.name,
        link_technology=link.name,
        dissipation_by_stage_w=dissipation,
        cooling_power_w=ladder.cooling_power_w(dissipation),
        wall_power_w=ladder.wall_power_w(dissipation),
        free_cooling_wall_power_w=ladder.wall_power_w(
            dissipation, free_cooling=True),
    )
