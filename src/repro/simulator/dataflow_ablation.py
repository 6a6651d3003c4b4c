"""Output-stationary dataflow ablation (paper Section III-B, Fig. 6/7).

The paper rejects the output-stationary (OS) PE because its accumulator
feedback loop forces counter-flow clocking, roughly halving the clock
(Fig. 7c).  This module makes that trade-off measurable end to end: an OS
NPU built from the same units, simulated on the same workloads.

A tile of outputs (array height x width of them) stays resident in the
PEs while the full reduction streams through; weights re-stream once per
*output* tile, so weight traffic multiplies by the number of E*F*B tiles
(WS streams them once).  The charges are
:func:`repro.simulator.kernel.charge_network_os`, the OS pass of the array
kernel the WS engine runs, reading the same
:class:`~repro.simulator.datapath.Datapath` (ifmap rewind, PE depth); its
docstring gives the closed forms.

No psum buffer exists (accumulation happens in place), so the Baseline's
psum-movement pathology disappears — but the clock halves and the weight
traffic explodes, which is exactly the paper's argument.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.device.cells import CellLibrary
from repro.estimator.arch_level import NPUEstimate, chip_clock, estimate_npu
from repro.simulator.datapath import build_datapath
from repro.simulator.kernel import charge_network_os
from repro.simulator.memory import memory_model_for
from repro.simulator.results import LAYER_FIELDS, ActivityTrace, SimulationResult
from repro.uarch.config import NPUConfig
from repro.uarch.mac import Dataflow
from repro.uarch.pe import ProcessingElement
from repro.workloads.layers import check_batch
from repro.workloads.models import Network


def estimate_os_npu(config: NPUConfig, library: CellLibrary) -> NPUEstimate:
    """Architecture estimate with output-stationary PEs.

    Identical to :func:`~repro.estimator.arch_level.estimate_npu` except the
    PE array carries the accumulator feedback loop, so the chip clock drops
    to the counter-flow bound (~31.8 GHz instead of 52.6 GHz).
    """
    os_pe = ProcessingElement(
        bits=config.data_bits,
        psum_bits=config.psum_bits,
        registers=config.registers_per_pe,
        dataflow=Dataflow.OUTPUT_STATIONARY,
    )
    estimate = estimate_npu(config, library)
    units = dict(estimate.units)
    del units["pe_array"]  # the OS PE above stands in for it
    worst_cct, critical = chip_clock(
        units, library, cycle_time_ps=os_pe.frequency(library).cycle_time_ps,
        critical="pe_array (OS accumulator loop)")
    return replace(estimate, frequency_ghz=1e3 / worst_cct,
                   cycle_time_ps=worst_cct, critical_path=critical)


def simulate_os(
    config: NPUConfig,
    network: Network,
    batch: int = 1,
    estimate: Optional[NPUEstimate] = None,
    library: Optional[CellLibrary] = None,
) -> SimulationResult:
    """Cycle-level simulation of ``network`` on an OS-dataflow NPU: the
    kernel's OS pass, with no activity recorded."""
    check_batch(batch)
    if estimate is None:
        if library is None:
            from repro.device.cells import rsfq_library

            library = rsfq_library()
        estimate = estimate_os_npu(config, library)

    memory = memory_model_for(config, estimate.frequency_ghz)
    (charges,) = charge_network_os(
        network.layer_table, [(config, batch, memory, build_datapath(config))])
    return SimulationResult(
        design=f"{config.name} (OS)",
        network=network.name,
        batch=batch,
        frequency_ghz=estimate.frequency_ghz,
        columns=dict(zip(LAYER_FIELDS, (list(network.layer_table.names), *charges))),
        activity=ActivityTrace(),
    )
