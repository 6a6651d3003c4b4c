"""Cycle-level SFQ-NPU simulator (paper Section IV-B, Fig. 14).

For every layer the simulator enumerates the weight mappings, then charges:

* **Weight load** — streaming the tile's weights into the array
  (``rows * regs + cols`` cycles of diagonal fill per mapping).
* **Ifmap preparation** — rotating the shift-register ifmap chunk back to
  its head before the next mapping re-streams it (Fig. 16 (2)); division
  shortens this by the division degree.
* **Psum movement** — in non-integrated designs, every non-final row tile
  parks partial sums that must physically shift from the ofmap buffer to
  the psum buffer and back (Fig. 16 (1)): the sum of both buffers' row
  lengths per movement (65,536 cycles for the 16 MB Baseline pair).
* **Computation** — one ifmap vector per cycle per register plane:
  ``E*F*batch*regs`` cycles plus pipeline fill.
* **Activation transfer** — draining the layer's output into the ifmap
  buffer for the next layer.
* **DRAM traffic** — weights once per layer, activations when they do not
  fit on chip; a layer's wall-clock is ``max(on_chip, dram)`` cycles
  (double-buffered DMA).

The same engine simulates every design point; only the
:class:`~repro.uarch.config.NPUConfig` changes.
"""

from __future__ import annotations

import math
from typing import Optional

from repro import obs
from repro.obs.timeline import CycleTimeline
from repro.device.cells import CellLibrary
from repro.estimator.arch_level import NPUEstimate, estimate_npu
from repro.simulator.datapath import build_datapath
from repro.simulator.mapping import LayerMapping, map_layer
from repro.simulator.memory import MemoryModel, memory_model_for
from repro.simulator.results import ActivityTrace, LayerResult, SimulationResult
from repro.uarch.buffers import ShiftRegisterBuffer
from repro.uarch.config import NPUConfig
from repro.uarch.pe import ProcessingElement
from repro.workloads.layers import ConvLayer
from repro.workloads.models import Network


def _ifmap_fits(layer: ConvLayer, config: NPUConfig, batch: int) -> bool:
    """Can the layer's whole (batched) input live in the ifmap buffer?

    Two conditions: raw capacity, and channel slots — each shift-register
    lane is dedicated to one ifmap channel, so an undivided buffer holds at
    most ``pe_array_height`` channels; division multiplies the slots
    (Fig. 19 (4) resolving Fig. 18(c)).
    """
    capacity_ok = layer.ifmap_bytes * batch <= config.ifmap_buffer_bytes
    channel_slots = config.pe_array_height * config.ifmap_division
    channels_ok = layer.in_channels * batch <= channel_slots
    return capacity_ok and channels_ok


def _output_fits(layer: ConvLayer, config: NPUConfig, batch: int) -> bool:
    """Can the layer's whole (batched) output stay in the output buffer?

    Psum headroom intentionally does **not** shrink the residency
    capacity: in a non-integrated design the in-flight partial sums live
    in the dedicated psum buffer (and pay their movement cost via
    Fig. 16 (1)'s psum_move charge), so the full ofmap buffer is
    available for the finished activations; in an integrated design the
    Table I sizings already account for psums sharing the buffer.
    Residency is therefore a plain capacity check in both cases.
    """
    return layer.ofmap_bytes * batch <= config.output_buffer_bytes


def simulate_layer(
    layer: ConvLayer,
    config: NPUConfig,
    batch: int,
    memory: MemoryModel,
    ifmap_buffer: ShiftRegisterBuffer,
    output_buffer: ShiftRegisterBuffer,
    psum_buffer: Optional[ShiftRegisterBuffer],
    pe: ProcessingElement,
    activity: ActivityTrace,
    input_resident: bool,
    is_last_layer: bool,
) -> "tuple[LayerResult, bool]":
    """Simulate one layer; returns its result and whether its output stayed
    on chip (feeding the next layer without a DRAM round trip)."""
    mapping: LayerMapping = map_layer(layer, config)
    vectors = layer.output_pixels * batch

    weight_load = 0
    compute = 0
    pe_stages = pe.pipeline_stages
    for tile in mapping.tiles:
        weight_load += tile.count * (tile.rows_used * tile.regs_used + tile.cols_used)
        fill = tile.rows_used + tile.cols_used + pe_stages
        compute += tile.count * (vectors * tile.regs_used + fill)

    # Ifmap re-alignment before every mapping after the first.
    rewinds = max(0, mapping.total_mappings - 1)
    ifmap_prep = rewinds * ifmap_buffer.rewind_cycles()

    # Psum <-> ofmap movement for every accumulating row-tile boundary.
    if psum_buffer is None:
        psum_move = 0
    else:
        per_move = psum_buffer.chunk_length_entries + output_buffer.chunk_length_entries
        psum_move = mapping.psum_movements * per_move

    # Output activations drain toward the ifmap buffer for the next layer.
    activation_transfer = 0
    if not is_last_layer:
        activation_transfer = math.ceil(
            layer.ofmap_bytes * batch / config.pe_array_height
        )

    # Off-chip traffic: weights stream in once per layer; activations move
    # only when they cannot stay resident.
    traffic = layer.weight_bytes
    ifmap_fits = _ifmap_fits(layer, config, batch)
    refetch = 1 if ifmap_fits else mapping.col_tiles
    ifmap_volume = layer.ifmap_bytes * batch
    if not input_resident:
        traffic += ifmap_volume
    traffic += ifmap_volume * (refetch - 1)
    output_resident = _output_fits(layer, config, batch) and not is_last_layer
    if not output_resident:
        traffic += layer.ofmap_bytes * batch

    on_chip = weight_load + ifmap_prep + psum_move + compute + activation_transfer
    dram_cycles = memory.transfer_cycles(traffic)
    total = max(on_chip, dram_cycles)

    macs = layer.macs_per_image * batch

    # Dynamic-power activity accounting (effective fully-active cycles).
    activity.add("pe_array", macs / config.num_pes)
    activity.add("network", macs / config.num_pes)
    dau_cycles = sum(
        tile.count * vectors * tile.regs_used * (tile.rows_used / config.pe_array_height)
        for tile in mapping.tiles
    )
    activity.add("dau", dau_cycles)
    activity.add(
        "ifmap_buffer", (compute + ifmap_prep) / config.ifmap_division
    )
    activity.add("output_buffer", compute / config.output_division + psum_move)
    if psum_buffer is not None:
        activity.add("psum_buffer", psum_move)
    activity.add("weight_buffer", weight_load)

    result = LayerResult(
        name=layer.name,
        mappings=mapping.total_mappings,
        weight_load_cycles=weight_load,
        ifmap_prep_cycles=ifmap_prep,
        psum_move_cycles=psum_move,
        activation_transfer_cycles=activation_transfer,
        compute_cycles=compute,
        dram_traffic_bytes=traffic,
        dram_cycles=dram_cycles,
        total_cycles=total,
        macs=macs,
    )
    return result, output_resident


def simulate(
    config: NPUConfig,
    network: Network,
    batch: int = 1,
    estimate: Optional[NPUEstimate] = None,
    library: Optional[CellLibrary] = None,
    timeline: Optional[CycleTimeline] = None,
) -> SimulationResult:
    """Run the cycle-level simulation of ``network`` on ``config``.

    ``estimate`` supplies the clock frequency; when omitted it is computed
    from ``library`` (default: the calibrated RSFQ library).  ``timeline``
    optionally receives the run's simulated-cycle event timeline (layer
    spans, on-chip phases, DRAM transfers, buffer-occupancy samples).
    """
    if batch < 1:
        raise ValueError("batch must be positive")
    with obs.trace_span(
        "simulate", design=config.name, network=network.name, batch=batch
    ), obs.histogram("sim.simulate_seconds").time():
        if estimate is None:
            if library is None:
                from repro.device.cells import rsfq_library

                library = rsfq_library()
            estimate = estimate_npu(config, library)

        memory = memory_model_for(config, estimate.frequency_ghz)
        datapath = build_datapath(config)

        activity = ActivityTrace()
        layers = []
        resident = False  # the first layer's input always arrives from DRAM
        for index, layer in enumerate(network.layers):
            with obs.trace_span("simulate/layer", layer=layer.name) as span:
                result, resident = simulate_layer(
                    layer,
                    config,
                    batch,
                    memory,
                    datapath.ifmap_buffer,
                    datapath.output_buffer,
                    datapath.psum_buffer,
                    datapath.pe,
                    activity,
                    input_resident=resident,
                    is_last_layer=index == len(network.layers) - 1,
                )
                span.annotate(cycles=result.total_cycles, macs=result.macs)
            if timeline is not None:
                timeline.record_layer(
                    result,
                    occupancy={
                        "ifmap_buffer_bytes": min(
                            layer.ifmap_bytes * batch, config.ifmap_buffer_bytes
                        ),
                        "output_buffer_bytes": min(
                            layer.ofmap_bytes * batch, config.output_buffer_bytes
                        ),
                        "weight_buffer_bytes": min(
                            layer.weight_bytes, config.weight_buffer_bytes
                        ),
                    },
                )
            layers.append(result)

        run = SimulationResult(
            design=config.name,
            network=network.name,
            batch=batch,
            frequency_ghz=estimate.frequency_ghz,
            layers=layers,
            # Sorted-unit order, the order a cached payload decodes in:
            # power sums fold these floats in iteration order.
            activity=ActivityTrace(dict(sorted(activity.effective_cycles.items()))),
        )
        obs.counter("sim.runs").inc()
        obs.counter("sim.layers_simulated").add(len(layers))
        obs.counter("sim.cycles").add(run.total_cycles)
        obs.counter("sim.macs").add(run.total_macs)
        obs.counter("sim.dram_traffic_bytes").add(
            sum(layer.dram_traffic_bytes for layer in layers)
        )
        return run
