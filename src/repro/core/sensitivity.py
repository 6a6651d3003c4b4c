"""Sensitivity studies around the paper's fixed assumptions.

The evaluation pins two environment parameters: 300 GB/s of DRAM bandwidth
(TPUv2's HBM) and a 400x cryocooler.  These sweeps quantify how the
headline conclusions move when those assumptions do:

* :func:`bandwidth_sweep` — SuperNPU-vs-TPU speedup as the shared memory
  bandwidth scales (the SFQ design is the bandwidth-hungry one: at
  52.6 GHz, 300 GB/s is only ~5.7 B/cycle).
* :func:`cooling_sweep` — ERSFQ/RSFQ perf-per-watt vs cooling efficiency,
  from the Carnot bound to pessimistic plants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.baselines.scalesim import CMOSNPUConfig, TPU_CORE
from repro.cooling.cryocooler import Cryocooler, carnot_cooling_factor
from repro.core.designs import supernpu
from repro.core.jobs import get_runner
from repro.core.metrics import efficiency_row
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
from repro.simulator.power import power_report
from repro.uarch.config import NPUConfig
from repro.workloads.models import Network, all_workloads


@dataclass(frozen=True)
class BandwidthPoint:
    bandwidth_gbps: float
    sfq_tmacs: float
    tpu_tmacs: float

    @property
    def speedup(self) -> float:
        return self.sfq_tmacs / self.tpu_tmacs


def bandwidth_plan(
    bandwidths_gbps: "tuple[float, ...]" = (100, 300, 600, 1200, 2400),
    config: Optional[NPUConfig] = None,
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
) -> ExperimentPlan:
    """Bandwidth-sweep grids: SuperNPU and the TPU at each shared bandwidth.

    The swept configs keep their design names (renaming would change both
    the Table II batch lookup and the cache identity), so the config axes
    carry explicit per-bandwidth labels.
    """
    config = config or supernpu()
    workloads = tuple(workloads if workloads is not None else all_workloads())
    library = library or library_for(Technology.RSFQ)
    labels = tuple(f"{float(b):g}" for b in bandwidths_gbps)
    sfq_configs = tuple(
        config.with_updates(memory_bandwidth_gbps=float(b))
        for b in bandwidths_gbps
    )
    tpu_configs = tuple(
        CMOSNPUConfig(
            memory_bandwidth_gbps=float(b),
            onchip_buffer_bytes=TPU_CORE.onchip_buffer_bytes,
        )
        for b in bandwidths_gbps
    )
    grids = (
        Grid("sfq", (
            config_axis(sfq_configs, name="bandwidth", labels=labels),
            workload_axis(workloads),
            batch_axis(("paper",)),
            library_axis((library,)),
        )),
        Grid("tpu", (
            config_axis(tpu_configs, name="bandwidth", labels=labels),
            workload_axis(workloads),
            batch_axis(("paper",)),
        )),
    )
    return ExperimentPlan(
        "bandwidth_sensitivity", grids,
        description="SuperNPU vs TPU mean throughput per shared DRAM bandwidth",
    )


def bandwidth_sweep(
    bandwidths_gbps: "tuple[float, ...]" = (100, 300, 600, 1200, 2400),
    config: Optional[NPUConfig] = None,
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
) -> List[BandwidthPoint]:
    """Mean throughput of SuperNPU and the TPU at each shared bandwidth."""
    plan = bandwidth_plan(bandwidths_gbps, config, workloads, library)
    resultset = execute(plan)
    points = []
    for bandwidth in bandwidths_gbps:
        label = f"{float(bandwidth):g}"
        points.append(
            BandwidthPoint(
                bandwidth_gbps=float(bandwidth),
                sfq_tmacs=resultset.mean("mac_per_s", grid="sfq", bandwidth=label) / 1e12,
                tpu_tmacs=resultset.mean("mac_per_s", grid="tpu", bandwidth=label) / 1e12,
            )
        )
    return points


@dataclass(frozen=True)
class CoolingPoint:
    factor: float
    rsfq_perf_per_watt: float
    ersfq_perf_per_watt: float


def cooling_plan(
    network: Optional[Network] = None,
    config: Optional[NPUConfig] = None,
) -> ExperimentPlan:
    """Cooling-sweep grids: the TPU reference plus RSFQ/ERSFQ chips."""
    config = config or supernpu()
    if network is None:
        from repro.workloads.models import resnet50

        network = resnet50()
    grids = (
        Grid("tpu", (
            config_axis((TPU_CORE,)),
            workload_axis((network,)),
            batch_axis(("paper",)),
        )),
        Grid("chips", (
            config_axis((config,)),
            workload_axis((network,)),
            batch_axis(("paper",)),
            library_axis((library_for(Technology.RSFQ),
                          library_for(Technology.ERSFQ))),
        )),
    )
    return ExperimentPlan(
        "cooling_sensitivity", grids,
        description="RSFQ/ERSFQ perf-per-watt vs cryocooler efficiency",
    )


def cooling_sweep(
    factors: "tuple[float, ...]" = (100, 200, 400, 1000),
    include_carnot: bool = True,
    network: Optional[Network] = None,
    config: Optional[NPUConfig] = None,
) -> List[CoolingPoint]:
    """Normalized perf/W (vs TPU) of both technologies per cooling factor."""
    config = config or supernpu()
    resultset = execute(cooling_plan(network, config))
    tpu = resultset.one(grid="tpu").run
    tpu_row = efficiency_row("TPU", TPU_CORE.average_power_w, tpu.mac_per_s, cooler=None)

    runner = get_runner()
    chips = {}
    for technology in (Technology.RSFQ, Technology.ERSFQ):
        library = library_for(technology)
        estimate = runner.estimate(config, library)
        run = resultset.one(grid="chips", library=technology.value).run
        chips[technology] = (power_report(run, estimate).total_w, run.mac_per_s)

    sweep = list(factors)
    if include_carnot:
        sweep.insert(0, carnot_cooling_factor())
    points = []
    for factor in sweep:
        cooler = Cryocooler(factor=factor)
        values = {}
        for technology, (chip_w, perf) in chips.items():
            row = efficiency_row(technology.value, chip_w, perf, cooler=cooler)
            values[technology] = row.normalized_to(tpu_row)
        points.append(
            CoolingPoint(
                factor=float(factor),
                rsfq_perf_per_watt=values[Technology.RSFQ],
                ersfq_perf_per_watt=values[Technology.ERSFQ],
            )
        )
    return points
