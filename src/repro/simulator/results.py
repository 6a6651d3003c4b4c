"""Result records produced by the cycle-level NPU simulator."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Dict, List, Tuple


@dataclass
class LayerResult:
    """Cycle accounting for one layer (all weight mappings, full batch)."""

    name: str
    mappings: int
    weight_load_cycles: int
    ifmap_prep_cycles: int
    psum_move_cycles: int
    activation_transfer_cycles: int
    compute_cycles: int
    dram_traffic_bytes: int
    dram_cycles: int
    total_cycles: int
    macs: int

    @property
    def preparation_cycles(self) -> int:
        """The paper's "preparation" bucket (Fig. 15): everything that moves
        data into place before/around computation."""
        return (
            self.weight_load_cycles
            + self.ifmap_prep_cycles
            + self.psum_move_cycles
            + self.activation_transfer_cycles
        )

    @property
    def on_chip_cycles(self) -> int:
        """Cycles the layer needs with DRAM out of the picture."""
        return self.preparation_cycles + self.compute_cycles

    @property
    def memory_stall_cycles(self) -> int:
        """Cycles added because DRAM could not keep up."""
        return max(0, self.total_cycles - self.preparation_cycles - self.compute_cycles)

    @property
    def dram_bound(self) -> bool:
        """True when the engine's ``max(on_chip, dram)`` rule picked DRAM."""
        return self.dram_cycles > self.on_chip_cycles

    def phase_cycles(self) -> Dict[str, int]:
        """Cycle charge per phase, plus the DRAM stall the layer absorbed.

        The on-chip phases and ``dram_stall`` partition ``total_cycles``
        exactly: the stall is whatever ``max(on_chip, dram)`` added on top
        of the serialized on-chip work.
        """
        return {
            "weight_load": self.weight_load_cycles,
            "ifmap_prep": self.ifmap_prep_cycles,
            "psum_move": self.psum_move_cycles,
            "activation_transfer": self.activation_transfer_cycles,
            "compute": self.compute_cycles,
            "dram_stall": self.memory_stall_cycles,
        }


@dataclass
class ActivityTrace:
    """Per-unit effective fully-active cycle counts (for dynamic power)."""

    effective_cycles: Dict[str, float] = field(default_factory=dict)

    def add(self, unit: str, cycles: float) -> None:
        if cycles < 0:
            raise ValueError("activity cycles must be non-negative")
        self.effective_cycles[unit] = self.effective_cycles.get(unit, 0.0) + cycles


#: LayerResult's fields in constructor order: the keys of
#: :attr:`SimulationResult.columns`, and of a cached entry's ``"layers"``.
LAYER_FIELDS = tuple(f.name for f in fields(LayerResult))


@dataclass
class SimulationResult:
    """Whole-network simulation outcome for one design point.

    ``columns`` maps each :data:`LAYER_FIELDS` name to one list with an
    entry per layer.  ``total_cycles``, ``total_macs``, ``compute_cycles``
    and ``preparation_cycles`` are summed from them once, at construction,
    and must come out as exact ints: a ``TypeError`` rejects any other
    column values.
    """

    design: str
    network: str
    batch: int
    frequency_ghz: float
    columns: Dict[str, List]
    activity: ActivityTrace

    def __post_init__(self) -> None:
        columns = self.columns
        self.total_cycles = sum(columns["total_cycles"])
        self.total_macs = sum(columns["macs"])
        self.compute_cycles = sum(columns["compute_cycles"])
        self.preparation_cycles = (
            sum(columns["weight_load_cycles"]) + sum(columns["ifmap_prep_cycles"])
            + sum(columns["psum_move_cycles"]) + sum(columns["activation_transfer_cycles"]))
        if not all(type(total) is int for total in (
                self.total_cycles, self.total_macs, self.compute_cycles,
                self.preparation_cycles)):
            raise TypeError("layer charge columns do not sum to ints")

    @cached_property
    def memory_stall_cycles(self) -> int:
        """Summed on first read: it takes a per-layer ``max``; no sweep reads it."""
        return sum(layer.memory_stall_cycles for layer in self.layers)

    @property
    def layers(self) -> Tuple[LayerResult, ...]:
        """One :class:`LayerResult` per layer, built afresh on every read:
        a cached copy would hold every layer twice."""
        return tuple(map(LayerResult, *(self.columns[name] for name in LAYER_FIELDS)))

    @property
    def latency_s(self) -> float:
        """Wall-clock time to process the batch."""
        return self.total_cycles / (self.frequency_ghz * 1e9)

    @property
    def mac_per_s(self) -> float:
        """Effective throughput in MAC/s."""
        if self.latency_s == 0:
            return 0.0
        return self.total_macs / self.latency_s

    @property
    def tmacs(self) -> float:
        return self.mac_per_s / 1e12

    @property
    def images_per_s(self) -> float:
        if self.latency_s == 0:
            return 0.0
        return self.batch / self.latency_s

    def pe_utilization(self, peak_mac_per_s: float) -> float:
        """Effective / peak throughput (the paper's PE utilization)."""
        if peak_mac_per_s <= 0:
            raise ValueError("peak throughput must be positive")
        return self.mac_per_s / peak_mac_per_s

    def cycle_breakdown(self) -> Dict[str, float]:
        """Normalized preparation / computation / memory split (Fig. 15)."""
        total = self.total_cycles
        if total == 0:
            return {"preparation": 0.0, "computation": 0.0, "memory": 0.0}
        return {
            "preparation": self.preparation_cycles / total,
            "computation": self.compute_cycles / total,
            "memory": self.memory_stall_cycles / total,
        }
