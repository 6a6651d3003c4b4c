"""Processing element: MAC pipeline + weight registers + systolic latches.

The paper's PE (Fig. 6a) holds its weight(s) in non-destructive-readout
(NDRO) register bits, multiplies streamed ifmap data against the resident
weight and adds the partial-sum input flowing down the column.  SuperNPU
gives each PE ``registers`` weight slots so one ifmap datum can feed
several MAC operations back-to-back through the gate-level pipeline
(Section V-B3, Fig. 22).
"""

from __future__ import annotations

from typing import List

from repro.device import cells
from repro.timing.frequency import GatePair
from repro.uarch.mac import Dataflow, MACUnit
from repro.uarch.unit import GateCounts, Unit


class ProcessingElement(Unit):
    """One systolic-array PE with weight-stationary dataflow."""

    kind = "pe"

    def __init__(
        self,
        bits: int = 8,
        psum_bits: int = 24,
        registers: int = 1,
        dataflow: Dataflow = Dataflow.WEIGHT_STATIONARY,
    ) -> None:
        if registers < 1:
            raise ValueError("a PE needs at least one weight register")
        self.bits = bits
        self.psum_bits = psum_bits
        self.registers = registers
        self.dataflow = dataflow
        self.mac = MACUnit(bits, psum_bits, dataflow)

    def signature(self) -> tuple:
        # The MAC's signature carries the dataflow.
        return (type(self).__name__, self.bits, self.psum_bits, self.registers,
                self.mac.signature())

    @property
    def pipeline_stages(self) -> int:
        """Latency in cycles from ifmap input to psum output."""
        return self.mac.pipeline_stages

    def gate_counts(self) -> GateCounts:
        counts = GateCounts()
        counts.merge(self.mac.gate_counts())
        # Weight storage: NDRO bits per register slot, plus a register-select
        # ring (one TFF per slot) when more than one weight is resident.
        counts.add(cells.NDRO, self.bits * self.registers)
        if self.registers > 1:
            counts.add(cells.TFF, self.registers)
            counts.add(cells.MERGER, self.bits)
        # Store-and-forward systolic latches: ifmap (bits) re-latched and
        # split toward the neighbor PE, psum (psum_bits) forwarded down.
        counts.add(cells.DFF, self.bits + self.psum_bits)
        counts.add(cells.SPLITTER, self.bits)
        return counts

    def gate_pairs(self) -> List[GatePair]:
        pairs = list(self.mac.gate_pairs())
        # Weight register read feeding the partial-product row.
        pairs.append(
            GatePair(cells.NDRO, cells.AND, label="weight register read (NDRO->AND)")
        )
        # Systolic forwarding latch.
        pairs.append(GatePair(cells.DFF, cells.DFF, label="systolic forward (DFF->DFF)"))
        return pairs
