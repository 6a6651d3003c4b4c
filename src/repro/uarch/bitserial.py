"""Bit-serial MAC ablation (paper Section VII related work).

Early SFQ microprocessors (CORE1-beta, CORE e4) were bit-serial: tiny and
fast-clocked, "unfortunately, their throughput was quite low due to the
simple but bit-serial designs".  This unit makes that trade-off concrete
next to the paper's bit-parallel MAC:

* a bit-serial MAC processes one operand bit pair per cycle, so one
  ``bits x bits`` multiply-accumulate occupies ``bits^2`` cycles of its
  (single) multiplier cell;
* its gate count is tiny (a serial adder, a few registers), so its clock
  is bounded only by the shift-register-class pairs (~faster than the
  bit-parallel carry-save array);
* throughput per unit area is what the comparison is about.
"""

from __future__ import annotations

from typing import List

from repro.device import cells
from repro.timing.frequency import GatePair
from repro.uarch.mac import full_adder_counts
from repro.uarch.unit import GateCounts, Unit


class BitSerialMAC(Unit):
    """A bit-serial multiply-accumulate element."""

    kind = "mac-bitserial"

    def __init__(self, bits: int = 8, psum_bits: int = 24) -> None:
        if bits < 2:
            raise ValueError("MAC width must be at least 2 bits")
        if psum_bits < 2 * bits:
            raise ValueError("psum width must hold the full product")
        self.bits = bits
        self.psum_bits = psum_bits

    def signature(self) -> tuple:
        return (type(self).__name__, self.bits, self.psum_bits)

    @property
    def cycles_per_mac(self) -> int:
        """A shift-and-add serial multiplier needs bits^2 cycles per MAC."""
        return self.bits * self.bits

    def gate_counts(self) -> GateCounts:
        counts = GateCounts()
        # One serial full adder plus the AND forming the partial product.
        counts.merge(full_adder_counts())
        counts.add(cells.AND, 1)
        # Operand shift registers and the serial accumulator.
        counts.add(cells.DFF, 2 * self.bits + self.psum_bits)
        counts.add(cells.NDRO, self.bits)  # resident weight
        counts.add(cells.SPLITTER, 4)
        return counts

    def gate_pairs(self) -> List[GatePair]:
        # No wide carry-save diagonal: the worst pair is the serial adder's
        # AND destination with the default (well-skewed) residual.
        return [
            GatePair(cells.DFF, cells.AND, label="serial operand feed"),
            GatePair(cells.XOR, cells.DFF, label="serial sum capture"),
            GatePair(cells.DFF, cells.DFF, label="operand shift"),
        ]

    def throughput_mac_per_s(self, library) -> float:
        """Effective MAC/s of one bit-serial element."""
        frequency_hz = self.frequency(library).frequency_ghz * 1e9
        return frequency_hz / self.cycles_per_mac

    def throughput_per_jj(self, library) -> float:
        """MAC/s per Josephson junction — the area-efficiency metric."""
        return self.throughput_mac_per_s(library) / self.jj_count(library)
