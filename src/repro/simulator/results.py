"""Result records produced by the cycle-level NPU simulator."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np


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
#: :attr:`SimulationResult.columns`; after ``name``, the rows of a charge
#: block and of a cached entry's block.
LAYER_FIELDS = tuple(f.name for f in fields(LayerResult))


class RunRates:
    """The rates of a run's totals: ``batch``, ``frequency_ghz``,
    ``total_cycles`` and ``total_macs``, which the subclass provides."""

    __slots__ = ()

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


@dataclass
class SimulationResult(RunRates):
    """Whole-network simulation outcome for one design point.

    ``columns`` maps each :data:`LAYER_FIELDS` name to one list with an
    entry per layer.  ``total_cycles``, ``total_macs``, ``compute_cycles``
    and ``preparation_cycles`` are summed from them once, at construction,
    and must come out as exact ints: a ``TypeError`` rejects any other
    column values.

    A run built from a charge pass or decoded from a cache entry
    (:meth:`from_charges`) keeps its int64 block instead, takes its totals
    from one reduction over it, and builds ``columns`` from the block on
    first read.
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

    @classmethod
    def from_charges(cls, design: str, network: str, batch: int, frequency_ghz: float,
                     names: Sequence[str], charges: "np.ndarray", totals: Sequence[int],
                     activity: ActivityTrace) -> "SimulationResult":
        """A run over its part of a charge pass, or over a cache entry's
        block: ``charges`` is its ``(10, L)`` int64 block, one row per
        :data:`LAYER_FIELDS` field after ``name``, and ``totals`` are those
        rows' sums as exact ints."""
        run = cls.__new__(cls)
        run.design, run.network, run.batch = design, network, batch
        run.frequency_ghz, run.activity = frequency_ghz, activity
        run._names, run._charges = names, charges
        (_, weight_load, ifmap_prep, psum_move, activation, compute, _, _,
         run.total_cycles, run.total_macs) = totals
        run.compute_cycles = compute
        run.preparation_cycles = weight_load + ifmap_prep + psum_move + activation
        return run

    @cached_property
    def memory_stall_cycles(self) -> int:
        """Summed on first read: it takes a per-layer ``max``; no sweep reads it."""
        return sum(layer.memory_stall_cycles for layer in self.layers)

    @property
    def layers(self) -> Tuple[LayerResult, ...]:
        """One :class:`LayerResult` per layer, built afresh on every read:
        a cached copy would hold every layer twice."""
        return tuple(map(LayerResult, *(self.columns[name] for name in LAYER_FIELDS)))

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


class _ColumnsFromBlock:
    """``SimulationResult.columns`` until a :meth:`~SimulationResult.from_charges`
    run first reads it: the lists are built from the run's block, then kept
    in the instance ``__dict__``, which every later read (and every run the
    constructor built) finds first."""

    def __get__(self, run, owner=None):
        if run is None:
            raise AttributeError("columns")
        state = run.__dict__
        columns = state["columns"] = dict(zip(
            LAYER_FIELDS, (list(state.pop("_names")), *state.pop("_charges").tolist())))
        return columns


# Set after the dataclass is made, so it is no field default.
SimulationResult.columns = _ColumnsFromBlock()
