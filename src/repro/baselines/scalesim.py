"""SCALE-SIM-style cycle model for a conventional CMOS systolic NPU.

The paper estimates the TPU core's performance with SCALE-SIM (Samajdar et
al.), a weight-stationary systolic-array simulator.  This module implements
the same analytical cycle model: for every fold (weight tile) of a layer,

    cycles = 2 * rows_used + cols_used + vectors - 2

covering array fill, streaming one ifmap vector per cycle, and drain; SRAM
is random-access (no shift-register preparation costs), and DRAM transfers
overlap with compute (``max(on_chip, traffic/bw)`` per layer).

The folds are never walked.  A layer has ``|R| = ceil(reduction / height)``
row folds, whose rows add up to the reduction size, and ``|C| =
ceil(filters / width)`` column folds, whose columns add up to the filters
per group, so the sums over its ``groups * |R| * |C|`` folds are

    fill_drain = groups * (2 * |C| * reduction + |R| * filters - 2 * |R| * |C|)
    streaming  = groups * |R| * |C| * vectors

and :func:`simulate_cmos` charges every layer at once, as int64 columns
over the network's layer table, with the SFQ pass's residency and DRAM
tail (:func:`repro.simulator.kernel.layer_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.canonical import KeepsCanonicalText
from repro.simulator.kernel import EXACT_LIMIT, charge_overflow, column_totals, layer_columns
from repro.simulator.memory import memory_model_for
from repro.simulator.results import ActivityTrace, SimulationResult
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

    #: Besides the canonical text, each instance keeps its memory model
    #: (``repro.simulator.memory.KEPT_MEMORY_MODEL``).
    _memos = KeepsCanonicalText._memos + ("_memory_model",)

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


def simulate_cmos(
    config: CMOSNPUConfig,
    network: Network,
    batch: int = 1,
) -> SimulationResult:
    """Simulate ``network`` on the CMOS baseline; reuses the SFQ result type
    so downstream comparisons treat both NPUs uniformly.

    Raises:
        SimulationError: ``simulation.charge_overflow`` when some layer
            charge reaches :data:`~repro.simulator.kernel.EXACT_LIMIT`.
    """
    if batch < 1:
        raise ValueError("batch must be positive")
    table = network.layer_table
    memory = memory_model_for(config, config.frequency_ghz)
    # Every int64 term below is at most this bound (fill and drain are at
    # most three times the weights, streaming at most the MACs), so below
    # 2**63 none wraps; past it the run is refused before charging.
    traffic = table.weight_bound + batch * table.traffic_bound
    bound = max(3 * table.weight_bound + batch * table.on_chip_bound, traffic,
                traffic / memory.bytes_per_cycle + 1)
    if bound >= 2 ** 63:
        raise charge_overflow(batch, bound)

    row_folds = -(-table.reduction // config.pe_array_height)
    col_folds = -(-table.filters // config.pe_array_width)
    folds = table.groups * row_folds * col_folds
    fill_drain = table.groups * (2 * col_folds * table.reduction
                                 + row_folds * table.filters - 2 * row_folds * col_folds)
    zeros = np.zeros_like(folds)
    (block,) = layer_columns(
        (folds, fill_drain, zeros, zeros, zeros, folds * (table.pixels * batch)),
        table.weights, table.ifmap * batch, table.ofmap * batch,
        # Capped as the SFQ passes cap buffer sizes: every byte count is below it.
        min(config.onchip_buffer_bytes, EXACT_LIMIT), memory.bytes_per_cycle,
        table.macs * batch)
    # The bound the SFQ passes keep: past it an int64 sum of the layers
    # could wrap, and the cache could not hold the run exactly.
    largest = int(np.maximum.reduce(block, axis=None))
    if largest >= EXACT_LIMIT:
        raise charge_overflow(batch, largest)
    return SimulationResult.from_charges(
        config.name, network.name, batch, config.frequency_ghz, table.names, block,
        column_totals(block), ActivityTrace())
