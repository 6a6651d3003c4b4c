"""RSFQ / ERSFQ logic cell library.

The architecture model consumes gate-level parameters exactly as the paper's
SFQ-NPU estimator does (Fig. 10): per-cell timing (delay / SetupTime /
HoldTime), power (static power, dynamic switching energy) and area (JJ
count).  The paper extracts these with JSIM from the AIST 1.0 um RSFQ cell
library; we ship a parametric library whose values are calibrated against
every number the paper publishes:

* AND: 8.3 ps delay, 3.6 uW static, 1.4 aJ/switch (Fig. 10 table)
* XOR: 6.5 ps delay, 3.0 uW static, 1.4 aJ/switch (Fig. 10 table)
* shift register: 133 GHz concurrent-flow, 71 GHz counter-flow (Fig. 7c)
* full adder (accumulator loop): 66 GHz concurrent, 30 GHz counter (Fig. 7c)
* full NPU: 52.6 GHz (Table I)
* RSFQ-SuperNPU static power ~964 W, ERSFQ dynamic ~1.9 W (Table III)

ERSFQ parameters are derived from RSFQ per Section IV-A1: identical timing
and area, zero static power, and 2x dynamic energy (bias JJs double the
number of switching junctions).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, Mapping

from repro.device.process import AIST_10UM, FabricationProcess


class Technology(enum.Enum):
    """SFQ biasing technology (Section IV-A1)."""

    RSFQ = "rsfq"
    ERSFQ = "ersfq"


# Canonical cell names used across the microarchitecture models.
DFF = "DFF"
SRCELL = "SRCELL"  # dense shift-register bit with built-in clock coupling
DFF_BYPASS = "DFFB"  # bypassable DFF used by the data alignment unit
NDRO = "NDRO"  # non-destructive readout register bit (weight registers)
AND = "AND"
OR = "OR"
XOR = "XOR"
NOT = "NOT"
TFF = "TFF"
SPLITTER = "SPL"
MERGER = "MRG"
JTL = "JTL"
MUX = "MUX"
DEMUX = "DEMUX"

#: Cells that are purely combinational wire elements (no clock input).
UNCLOCKED_CELLS = frozenset({SPLITTER, MERGER, JTL})

#: Clocked cells whose JJ count already includes their clock-distribution
#: coupling (the shift-register bit cell chains its clock like a JTL ladder),
#: so the estimator must not charge an extra clock-tree splitter for them.
CLOCK_SELF_CONTAINED_CELLS = frozenset({SRCELL})


@dataclass(frozen=True)
class SFQCell:
    """One logic cell of the library.

    Attributes:
        name: Canonical cell name (one of the module-level constants).
        jj_count: Number of Josephson junctions in the cell (drives area).
        delay_ps: Clock-to-output propagation delay (data delay for
            unclocked wire cells such as JTL / splitter).
        setup_ps: SetupTime; 0 for unclocked cells.
        hold_ps: HoldTime; 0 for unclocked cells.
        static_power_uw: DC bias dissipation (RSFQ); 0 under ERSFQ.
        switch_energy_aj: Average dynamic energy per clocked operation,
            averaged over input states (the paper's "access energy").
    """

    name: str
    jj_count: int
    delay_ps: float
    setup_ps: float
    hold_ps: float
    static_power_uw: float
    switch_energy_aj: float

    @property
    def is_clocked(self) -> bool:
        return self.name not in UNCLOCKED_CELLS

    def area_um2(self, process: FabricationProcess) -> float:
        """Layout area of the cell on ``process`` in um^2."""
        return self.jj_count * process.jj_area_um2


# Calibrated RSFQ cell parameters for the AIST 1.0 um process.  The AND and
# XOR rows are the published values; the remaining cells are set consistently
# with typical RSFQ cell libraries and with the circuit-level calibration
# targets listed in the module docstring.
_RSFQ_CELLS: Dict[str, SFQCell] = {
    cell.name: cell
    for cell in (
        SFQCell(DFF, jj_count=6, delay_ps=3.3, setup_ps=3.5, hold_ps=4.0,
                static_power_uw=2.2, switch_energy_aj=0.8),
        SFQCell(SRCELL, jj_count=5, delay_ps=3.3, setup_ps=3.5, hold_ps=4.0,
                static_power_uw=2.05, switch_energy_aj=0.6),
        SFQCell(DFF_BYPASS, jj_count=9, delay_ps=3.6, setup_ps=3.7, hold_ps=4.2,
                static_power_uw=2.6, switch_energy_aj=1.0),
        SFQCell(NDRO, jj_count=11, delay_ps=4.0, setup_ps=4.0, hold_ps=5.0,
                static_power_uw=3.2, switch_energy_aj=1.2),
        SFQCell(AND, jj_count=11, delay_ps=8.3, setup_ps=6.0, hold_ps=9.0,
                static_power_uw=3.6, switch_energy_aj=1.4),
        SFQCell(OR, jj_count=12, delay_ps=7.0, setup_ps=5.5, hold_ps=7.5,
                static_power_uw=3.2, switch_energy_aj=1.5),
        SFQCell(XOR, jj_count=11, delay_ps=6.5, setup_ps=5.0, hold_ps=7.0,
                static_power_uw=3.0, switch_energy_aj=1.4),
        SFQCell(NOT, jj_count=10, delay_ps=7.5, setup_ps=5.5, hold_ps=8.0,
                static_power_uw=3.1, switch_energy_aj=1.3),
        SFQCell(TFF, jj_count=12, delay_ps=4.5, setup_ps=4.0, hold_ps=5.0,
                static_power_uw=3.3, switch_energy_aj=1.3),
        SFQCell(SPLITTER, jj_count=3, delay_ps=2.0, setup_ps=0.0, hold_ps=0.0,
                static_power_uw=1.0, switch_energy_aj=0.45),
        SFQCell(MERGER, jj_count=7, delay_ps=3.0, setup_ps=0.0, hold_ps=0.0,
                static_power_uw=2.0, switch_energy_aj=0.9),
        SFQCell(JTL, jj_count=2, delay_ps=1.6, setup_ps=0.0, hold_ps=0.0,
                static_power_uw=0.7, switch_energy_aj=0.3),
        SFQCell(MUX, jj_count=16, delay_ps=5.0, setup_ps=4.5, hold_ps=6.0,
                static_power_uw=4.4, switch_energy_aj=1.7),
        SFQCell(DEMUX, jj_count=16, delay_ps=5.0, setup_ps=4.5, hold_ps=6.0,
                static_power_uw=4.4, switch_energy_aj=1.7),
    )
}

#: ERSFQ dynamic energy multiplier relative to RSFQ (Section IV-A1).
ERSFQ_ENERGY_FACTOR = 2.0


class CellLibrary:
    """A complete SFQ cell library bound to a fabrication process.

    Immutable: attributes cannot be rebound and :attr:`cells` is a
    read-only mapping, so one instance can be shared by every caller
    (:func:`library_for`) and its content key memoized on the instance.
    """

    technology: Technology
    process: FabricationProcess
    cells: Mapping[str, SFQCell]

    def __init__(
        self,
        technology: Technology,
        process: FabricationProcess = AIST_10UM,
        cells: Mapping[str, SFQCell] | None = None,
    ) -> None:
        base = dict(cells) if cells is not None else dict(_RSFQ_CELLS)
        if technology is Technology.ERSFQ and cells is None:
            base = {name: _to_ersfq(cell) for name, cell in base.items()}
        object.__setattr__(self, "technology", technology)
        object.__setattr__(self, "process", process)
        object.__setattr__(self, "cells", MappingProxyType(base))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"CellLibrary is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"CellLibrary is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # Rebuilt from its cells (already technology-adjusted), so neither
        # the read-only mapping nor the canonical-text memo
        # (repro.canonical) rides along in a pickle or a copy.
        return CellLibrary, (self.technology, self.process, dict(self.cells))

    def __getitem__(self, name: str) -> SFQCell:
        try:
            return self.cells[name]
        except KeyError:
            raise KeyError(f"unknown SFQ cell {name!r}; known: {sorted(self.cells)}") from None

    def __contains__(self, name: str) -> bool:
        return name in self.cells

    def __iter__(self) -> Iterable[str]:
        return iter(self.cells)

    @property
    def names(self) -> tuple:
        return tuple(sorted(self.cells))

    def cell_area_um2(self, name: str) -> float:
        return self[name].area_um2(self.process)

    def total_area_um2(self, gate_counts: Mapping[str, float]) -> float:
        """Area of a gate-count histogram (um^2)."""
        return sum(self[name].jj_count * count for name, count in gate_counts.items()) * self.process.jj_area_um2

    def total_jj_count(self, gate_counts: Mapping[str, float]) -> float:
        return sum(self[name].jj_count * count for name, count in gate_counts.items())

    def static_power_w(self, gate_counts: Mapping[str, float]) -> float:
        """Static power of a gate-count histogram in watts."""
        return sum(self[name].static_power_uw * count for name, count in gate_counts.items()) * 1e-6

    def access_energy_j(self, gate_counts: Mapping[str, float]) -> float:
        """Dynamic energy of one clocked operation of every gate (joules)."""
        return sum(self[name].switch_energy_aj * count for name, count in gate_counts.items()) * 1e-18

    def access_energy_split_j(self, gate_counts: Mapping[str, float]) -> "tuple[float, float]":
        """(clocked, wire) dynamic energy per fully-active cycle, in joules.

        Clocked gates dissipate on every clock pulse they receive regardless
        of data (the clock pulse itself switches junctions), whereas wire
        cells (splitters, mergers, JTLs) only switch when a data pulse
        passes — the simulator scales the wire share by the data activity.
        """
        clocked = 0.0
        wire = 0.0
        for name, count in gate_counts.items():
            energy = self[name].switch_energy_aj * count
            if name in UNCLOCKED_CELLS:
                wire += energy
            else:
                clocked += energy
        return clocked * 1e-18, wire * 1e-18

    def with_process(self, process: FabricationProcess) -> "CellLibrary":
        return CellLibrary(self.technology, process, self.cells)


def _to_ersfq(cell: SFQCell) -> SFQCell:
    """Derive the ERSFQ variant of an RSFQ cell (Section IV-A1)."""
    return replace(
        cell,
        static_power_uw=0.0,
        switch_energy_aj=cell.switch_energy_aj * ERSFQ_ENERGY_FACTOR,
    )


def rsfq_library(process: FabricationProcess = AIST_10UM) -> CellLibrary:
    """The calibrated RSFQ library on the given process (default AIST 1.0 um)."""
    return library_for(Technology.RSFQ, process)


def ersfq_library(process: FabricationProcess = AIST_10UM) -> CellLibrary:
    """The derived ERSFQ library: zero static power, 2x switching energy."""
    return library_for(Technology.ERSFQ, process)


def library_for(technology: Technology, process: FabricationProcess = AIST_10UM) -> CellLibrary:
    """The shared library of one ``(technology, process)``, built on first use."""
    return _shared_library(technology, process)


@lru_cache(maxsize=None)
def _shared_library(technology: Technology, process: FabricationProcess) -> CellLibrary:
    return CellLibrary(technology, process)
