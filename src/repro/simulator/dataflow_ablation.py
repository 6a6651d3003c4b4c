"""Output-stationary dataflow ablation (paper Section III-B, Fig. 6/7).

The paper rejects the output-stationary (OS) PE because its accumulator
feedback loop forces counter-flow clocking, roughly halving the clock
(Fig. 7c).  This module makes that trade-off measurable end to end: an OS
NPU built from the same units, simulated on the same workloads.

OS execution model: a tile of output values (array height x width of them)
stays resident in the PEs while the full reduction streams through:

* mappings = ceil(E*F*B / height) * ceil(K / width) * groups
* per mapping: stream ``reduction`` values (+ pipeline fill), then drain
  the finished outputs (one row per cycle);
* weights stream once per *output* tile — the OS penalty: weight traffic
  multiplies by the number of E*F*B tiles (WS streams them once);
* the shift-register ifmap buffer must rotate back to the tile's window
  before every re-streaming, charging the same per-mapping rewind WS pays.

No psum buffer exists (accumulation happens in place), so the Baseline's
psum-movement pathology disappears — but the clock halves and the weight
traffic explodes, which is exactly the paper's argument.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.device.cells import CellLibrary
from repro.estimator.arch_level import NPUEstimate, build_units, estimate_npu, interface_gate_pairs
from repro.simulator.datapath import build_datapath
from repro.simulator.memory import MemoryModel, memory_model_for
from repro.simulator.results import ActivityTrace, LayerResult, SimulationResult
from repro.uarch.config import NPUConfig
from repro.uarch.mac import Dataflow
from repro.uarch.pe import ProcessingElement
from repro.workloads.layers import ConvLayer, check_batch
from repro.workloads.models import Network


def estimate_os_npu(config: NPUConfig, library: CellLibrary) -> NPUEstimate:
    """Architecture estimate with output-stationary PEs.

    Identical to :func:`~repro.estimator.arch_level.estimate_npu` except the
    PE array carries the accumulator feedback loop, so the chip clock drops
    to the counter-flow bound (~31.8 GHz instead of 52.6 GHz).
    """
    base = estimate_npu(config, library)
    os_pe = ProcessingElement(
        bits=config.data_bits,
        psum_bits=config.psum_bits,
        registers=config.registers_per_pe,
        dataflow=Dataflow.OUTPUT_STATIONARY,
    )
    pe_report = os_pe.frequency(library)
    worst_cct = pe_report.cycle_time_ps
    critical = "pe_array (OS accumulator loop)"
    for pair in interface_gate_pairs():
        constraint = pair.resolve(library)
        if constraint.cycle_time_ps > worst_cct:
            worst_cct = constraint.cycle_time_ps
            critical = pair.label
    for name, unit in build_units(config).items():
        if name == "pe_array":
            continue
        try:
            report = unit.frequency(library)
        except ValueError:
            continue
        if report.cycle_time_ps > worst_cct:
            worst_cct = report.cycle_time_ps
            critical = name
    return NPUEstimate(
        config=config,
        technology=base.technology,
        frequency_ghz=1e3 / worst_cct,
        cycle_time_ps=worst_cct,
        critical_path=critical,
        units=base.units,
        wiring_area_mm2=base.wiring_area_mm2,
        wiring_static_power_w=base.wiring_static_power_w,
    )


def _simulate_os_layer(
    layer: ConvLayer,
    config: NPUConfig,
    batch: int,
    memory: MemoryModel,
    pe_stages: int,
    ifmap_rewind_cycles: int,
    input_resident: bool,
    is_last_layer: bool,
) -> "tuple[LayerResult, bool]":
    vectors = layer.output_pixels * batch
    height = config.pe_array_height
    width = config.pe_array_width
    reduction = layer.reduction_size

    output_tiles = (
        math.ceil(vectors / height)
        * math.ceil(layer.filters_per_group / width)
        * layer.groups
    )
    compute = output_tiles * (reduction + pe_stages)
    drain = output_tiles * height  # outputs leave one row per cycle
    # Every tile re-streams the ifmap window, so the shift-register buffer
    # rotates back once per tile (the same cost WS pays per weight mapping).
    ifmap_prep = max(0, output_tiles - 1) * ifmap_rewind_cycles
    # Weights re-stream once per output tile (the OS reuse penalty); load
    # cycles track the streamed volume at one value per column per cycle.
    weight_tile_bytes = min(reduction, height) * min(layer.filters_per_group, width)
    weight_load = output_tiles * math.ceil(weight_tile_bytes / width)

    traffic = weight_tile_bytes * output_tiles
    ifmap_volume = layer.ifmap_bytes * batch
    if not input_resident:
        traffic += ifmap_volume
    output_resident = (
        not is_last_layer
        and layer.ofmap_bytes * batch <= config.output_buffer_bytes
    )
    if not output_resident:
        traffic += layer.ofmap_bytes * batch

    on_chip = compute + drain + weight_load + ifmap_prep
    dram_cycles = memory.transfer_cycles(traffic)
    result = LayerResult(
        name=layer.name,
        mappings=output_tiles,
        weight_load_cycles=weight_load,
        ifmap_prep_cycles=ifmap_prep,
        psum_move_cycles=0,
        activation_transfer_cycles=drain,
        compute_cycles=compute,
        dram_traffic_bytes=traffic,
        dram_cycles=dram_cycles,
        total_cycles=max(on_chip, dram_cycles),
        macs=layer.macs_per_image * batch,
    )
    return result, output_resident


def simulate_os(
    config: NPUConfig,
    network: Network,
    batch: int = 1,
    estimate: Optional[NPUEstimate] = None,
    library: Optional[CellLibrary] = None,
) -> SimulationResult:
    """Cycle-level simulation of ``network`` on an OS-dataflow NPU."""
    check_batch(batch)
    if estimate is None:
        if library is None:
            from repro.device.cells import rsfq_library

            library = rsfq_library()
        estimate = estimate_os_npu(config, library)

    memory = memory_model_for(config, estimate.frequency_ghz)
    datapath = build_datapath(config)  # the WS engine's ifmap buffer and MAC pipeline

    layers = []
    resident = False
    for index, layer in enumerate(network.layers):
        result, resident = _simulate_os_layer(
            layer,
            config,
            batch,
            memory,
            datapath.pe.pipeline_stages,
            ifmap_rewind_cycles=datapath.ifmap_buffer.rewind_cycles(),
            input_resident=resident,
            is_last_layer=index == len(network.layers) - 1,
        )
        layers.append(result)
    return SimulationResult(
        design=f"{config.name} (OS)",
        network=network.name,
        batch=batch,
        frequency_ghz=estimate.frequency_ghz,
        layers=layers,
        activity=ActivityTrace(),
    )
