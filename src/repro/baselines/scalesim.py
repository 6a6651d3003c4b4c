"""SCALE-SIM-style cycle model for a conventional CMOS systolic NPU.

The paper estimates the TPU core's performance with SCALE-SIM (Samajdar et
al.), a weight-stationary systolic-array simulator.  This module implements
the same analytical cycle model: for every fold (weight tile) of a layer,

    cycles = 2 * rows_used + cols_used + vectors - 2

covering array fill, streaming one ifmap vector per cycle, and drain; SRAM
is random-access (no shift-register preparation costs), and DRAM transfers
overlap with compute (``max(on_chip, traffic/bw)`` per layer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.canonical import KeepsCanonicalText
from repro.simulator.memory import memory_model_for
from repro.simulator.results import ActivityTrace, LayerResult, SimulationResult
from repro.workloads.layers import ConvLayer
from repro.workloads.models import Network

MIB = 1024 * 1024


@dataclass(frozen=True)
class CMOSNPUConfig(KeepsCanonicalText):
    """A conventional CMOS systolic-array NPU (the TPU core of Table I)."""

    name: str = "TPU"
    pe_array_width: int = 256
    pe_array_height: int = 256
    frequency_ghz: float = 0.7
    onchip_buffer_bytes: int = 24 * MIB
    memory_bandwidth_gbps: float = 300.0
    average_power_w: float = 40.0

    def __post_init__(self) -> None:
        if self.pe_array_width < 1 or self.pe_array_height < 1:
            raise ValueError("PE array dimensions must be positive")
        if self.frequency_ghz <= 0:
            raise ValueError("frequency must be positive")
        if self.average_power_w <= 0:
            raise ValueError("power must be positive")

    @property
    def num_pes(self) -> int:
        return self.pe_array_width * self.pe_array_height

    @property
    def peak_mac_per_s(self) -> float:
        """45 TMAC/s for the 256x256 array at 0.7 GHz (Table I)."""
        return self.num_pes * self.frequency_ghz * 1e9


#: The TPU core configuration used throughout the paper's evaluation.
TPU_CORE = CMOSNPUConfig()


def _layer_cycles(layer: ConvLayer, config: CMOSNPUConfig, batch: int) -> "tuple[int, int]":
    """(fill/drain cycles, streaming cycles) over all folds of a layer."""
    height = config.pe_array_height
    width = config.pe_array_width
    vectors = layer.output_pixels * batch

    row_sizes = [height] * (layer.reduction_size // height)
    if layer.reduction_size % height:
        row_sizes.append(layer.reduction_size % height)
    col_sizes = [width] * (layer.filters_per_group // width)
    if layer.filters_per_group % width:
        col_sizes.append(layer.filters_per_group % width)

    fill_drain = 0
    streaming = 0
    for rows in row_sizes:
        for cols in col_sizes:
            fill_drain += layer.groups * (2 * rows + cols - 2)
            streaming += layer.groups * vectors
    return fill_drain, streaming


def simulate_cmos(
    config: CMOSNPUConfig,
    network: Network,
    batch: int = 1,
) -> SimulationResult:
    """Simulate ``network`` on the CMOS baseline; reuses the SFQ result type
    so downstream comparisons treat both NPUs uniformly."""
    if batch < 1:
        raise ValueError("batch must be positive")
    memory = memory_model_for(config, config.frequency_ghz)
    layers = []
    resident = False
    for index, layer in enumerate(network.layers):
        fill_drain, streaming = _layer_cycles(layer, config, batch)
        traffic = layer.weight_bytes
        if not resident:
            traffic += layer.ifmap_bytes * batch
        is_last = index == len(network.layers) - 1
        resident = (
            not is_last
            and layer.ofmap_bytes * batch <= config.onchip_buffer_bytes
        )
        if not resident:
            traffic += layer.ofmap_bytes * batch
        on_chip = fill_drain + streaming
        dram_cycles = memory.transfer_cycles(traffic)
        layers.append(
            LayerResult(
                name=layer.name,
                mappings=max(1, math.ceil(layer.reduction_size / config.pe_array_height))
                * max(1, math.ceil(layer.filters_per_group / config.pe_array_width))
                * layer.groups,
                weight_load_cycles=fill_drain,
                ifmap_prep_cycles=0,
                psum_move_cycles=0,
                activation_transfer_cycles=0,
                compute_cycles=streaming,
                dram_traffic_bytes=traffic,
                dram_cycles=dram_cycles,
                total_cycles=max(on_chip, dram_cycles),
                macs=layer.macs_per_image * batch,
            )
        )
    return SimulationResult(
        design=config.name,
        network=network.name,
        batch=batch,
        frequency_ghz=config.frequency_ghz,
        layers=layers,
        activity=ActivityTrace(),
    )
