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

:func:`simulate` charges a whole network in one array pass
(:func:`repro.simulator.kernel.charge_network`, whose OS twin serves
:mod:`repro.simulator.dataflow_ablation`); :func:`charge_designs` charges
several design points, of one network or of several, in one pass, and
:func:`simulate` then builds each point's result from its part.  A result
keeps its slice of the pass's int64 block and the pass's totals; its
per-layer lists are built only when something reads them.
:func:`simulate_layer` charges one layer by walking its mapping tiles; it is
the scalar golden reference the array pass is tested against, bit for bit.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.obs.timeline import CycleTimeline
from repro.device.cells import CellLibrary
from repro.estimator.arch_level import NPUEstimate, estimate_npu
from repro.simulator.datapath import build_datapath
from repro.simulator.kernel import StackedTable, charge_network
from repro.simulator.mapping import LayerMapping, map_layer
from repro.simulator.memory import MemoryModel, memory_model_for
from repro.simulator.results import ActivityTrace, LayerResult, SimulationResult
from repro.uarch.buffers import ShiftRegisterBuffer
from repro.uarch.config import NPUConfig
from repro.uarch.pe import ProcessingElement
from repro.workloads.layers import ConvLayer, check_batch
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
    # An explicit left fold in tile order: builtin sum() of floats is
    # compensated from Python 3.12 on, which would make the total depend
    # on the interpreter version.
    dau_cycles = 0.0
    for tile in mapping.tiles:
        dau_cycles += (
            tile.count * vectors * tile.regs_used
            * (tile.rows_used / config.pe_array_height)
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


class DesignCharges(NamedTuple):
    """One design point's part of a charge pass (:func:`charge_designs`):
    its ``(10, L)`` int64 block of per-layer charges, their totals as
    Python ints, its activity, and its share of the pass's wall seconds."""

    charges: np.ndarray
    totals: List[int]
    activity: Dict[str, float]
    seconds: float


def simulate(
    config: NPUConfig,
    network: Network,
    batch: int = 1,
    estimate: Optional[NPUEstimate] = None,
    library: Optional[CellLibrary] = None,
    timeline: Optional[CycleTimeline] = None,
    charges: Optional[DesignCharges] = None,
) -> SimulationResult:
    """Run the cycle-level simulation of ``network`` on ``config``.

    ``estimate`` supplies the clock frequency; when omitted it is computed
    from ``library`` (default: the calibrated RSFQ library).  ``timeline``
    optionally receives the run's simulated-cycle event timeline (layer
    spans, on-chip phases, DRAM transfers, buffer-occupancy samples).
    ``charges`` is this point's part of a :func:`charge_designs` pass over
    the same ``config``, ``network``, ``batch`` and ``estimate``; the
    network is then not charged again, and the result is bitwise the same.
    """
    check_batch(batch)
    began = time.perf_counter()
    with obs.trace_span(
        "simulate", design=config.name, network=network.name, batch=batch
    ):
        if estimate is None:
            if library is None:
                from repro.device.cells import rsfq_library

                library = rsfq_library()
            estimate = estimate_npu(config, library)

        if charges is None:
            memory = memory_model_for(config, estimate.frequency_ghz)
            block, (totals,), (activity,) = charge_network(
                network.layer_table, [(config, batch, memory, build_datapath(config))])
            charges = DesignCharges(block[0], totals, activity, 0.0)
        run = SimulationResult.from_charges(
            config.name, network.name, batch, estimate.frequency_ghz,
            network.layer_table.names, charges.charges, charges.totals,
            # Sorted-unit order, the order a cached payload decodes in:
            # power sums fold these floats in iteration order.
            ActivityTrace(charges.activity))
        # The layer spans, timeline and ``sim.*`` counts, when those are on.
        if timeline is not None or obs.tracer().enabled:
            for layer, result in zip(network.layers, run.layers):
                with obs.trace_span("simulate/layer", layer=result.name) as span:
                    span.annotate(cycles=result.total_cycles, macs=result.macs)
                if timeline is not None:
                    timeline.record_layer(result, occupancy={
                        "ifmap_buffer_bytes": min(
                            layer.ifmap_bytes * batch, config.ifmap_buffer_bytes),
                        "output_buffer_bytes": min(
                            layer.ofmap_bytes * batch, config.output_buffer_bytes),
                        "weight_buffer_bytes": min(
                            layer.weight_bytes, config.weight_buffer_bytes),
                    })
        if obs.metrics().enabled:
            obs.counter("sim.runs").inc()
            obs.counter("sim.layers_simulated").add(len(network.layer_table.names))
            obs.counter("sim.cycles").add(run.total_cycles)
            obs.counter("sim.macs").add(run.total_macs)
            obs.counter("sim.dram_traffic_bytes").add(sum(run.columns["dram_traffic_bytes"]))
    # A point charged jointly also spent its share of the joint pass.
    obs.histogram("sim.simulate_seconds").observe(
        time.perf_counter() - began + charges.seconds)
    return run


def charge_designs(
    configs: Sequence[NPUConfig],
    networks: Union[Network, Sequence[Network]],
    batches: Sequence[int],
    estimates: Sequence[NPUEstimate],
) -> List[DesignCharges]:
    """Charge several design points in one array pass.

    ``configs``, ``batches`` and ``estimates`` are parallel, one entry per
    design point, and ``networks`` is either the one network every point
    runs or one network per point: points of several networks share one
    pass over their stacked layer tables
    (:class:`~repro.simulator.kernel.StackedTable`), each keeping its own
    network's ``(10, L)`` part.  The result list follows the points.  Hand
    each entry to :func:`simulate` as ``charges`` to build that point's
    result.

    Raises:
        SimulationError: ``simulation.charge_overflow`` when any point's
            charges could reach the exact-arithmetic limit; no point is
            charged then.
    """
    for batch in batches:
        check_batch(batch)
    if not configs:
        return []
    began = time.perf_counter()
    if isinstance(networks, Network):
        table, names = networks.layer_table, networks.name
    else:
        table = StackedTable.of([network.layer_table for network in networks])
        names = ",".join(dict.fromkeys(network.name for network in networks))
    with obs.trace_span("simulate/group", network=names, designs=len(configs)):
        block, totals, activities = charge_network(table, [
            (config, batch, memory_model_for(config, estimate.frequency_ghz),
             build_datapath(config))
            for config, batch, estimate in zip(configs, batches, estimates)])
        if isinstance(table, StackedTable):
            # Each point's own layers, copied out so that no result keeps
            # the padding alive, and read-only, as a pass's block is.
            block = [part[:, :len(own.names)].copy() for part, own in zip(block, table.parts)]
            for part in block:
                part.setflags(write=False)
    seconds = (time.perf_counter() - began) / len(configs)
    return [DesignCharges(*part, seconds) for part in zip(block, totals, activities)]
