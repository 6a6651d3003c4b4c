"""Post-array activation and pooling units.

The systolic array produces raw partial sums; inference additionally needs
ReLU and pooling between layers (the paper's workloads are standard CNNs).
These units sit on the output path, one lane per PE-array column, and are
tiny next to the array and buffers — but a complete NPU carries them, so
the architecture estimate charges them.

* ReLU on sign-magnitude-free integer data is a sign test: forward the
  value when the accumulator's sign bit is clear, else emit zero — a
  comparator (NOT + AND gating) per output bit lane.
* Max pooling keeps a running maximum per output lane: a bit-serial
  comparator, a register word, and a multiplexer.
"""

from __future__ import annotations

from typing import List

from repro.device import cells
from repro.timing.frequency import GatePair
from repro.uarch.unit import GateCounts, Unit


class ReLUUnit(Unit):
    """Sign-gated zeroing of ``lanes`` output lanes, ``bits`` wide each."""

    kind = "relu"

    def __init__(self, lanes: int, bits: int = 24) -> None:
        if lanes < 1 or bits < 1:
            raise ValueError("lanes and bits must be positive")
        self.lanes = lanes
        self.bits = bits

    def signature(self) -> tuple:
        return (type(self).__name__, self.lanes, self.bits)

    def gate_counts(self) -> GateCounts:
        counts = GateCounts()
        # Sign detection (NOT on the sign bit) fanned out over the word,
        # gating ANDs per bit, and a retiming DFF per bit.
        counts.add(cells.NOT, self.lanes)
        counts.add(cells.SPLITTER, self.lanes * self.bits)
        counts.add(cells.AND, self.lanes * self.bits)
        counts.add(cells.DFF, self.lanes * self.bits)
        return counts

    def gate_pairs(self) -> List[GatePair]:
        return [
            GatePair(cells.NOT, cells.AND, label="sign gate"),
            GatePair(cells.AND, cells.DFF, label="gated output latch"),
        ]


class MaxPoolUnit(Unit):
    """Running-maximum pooling over ``lanes`` lanes, ``bits`` wide each."""

    kind = "maxpool"

    def __init__(self, lanes: int, bits: int = 8) -> None:
        if lanes < 1 or bits < 1:
            raise ValueError("lanes and bits must be positive")
        self.lanes = lanes
        self.bits = bits

    def signature(self) -> tuple:
        return (type(self).__name__, self.lanes, self.bits)

    def gate_counts(self) -> GateCounts:
        counts = GateCounts()
        per_lane = GateCounts()
        # Bit-serial magnitude comparator: XOR difference detect, AND/OR
        # resolution chain.
        per_lane.add(cells.XOR, self.bits)
        per_lane.add(cells.AND, self.bits)
        per_lane.add(cells.OR, self.bits)
        # Running-max register (NDRO so it can be re-read) and the select
        # mux steering the larger value back into it.
        per_lane.add(cells.NDRO, self.bits)
        per_lane.add(cells.MUX, self.bits)
        per_lane.add(cells.DFF, self.bits)
        counts.merge(per_lane, self.lanes)
        return counts

    def gate_pairs(self) -> List[GatePair]:
        return [
            GatePair(cells.XOR, cells.AND, label="compare resolve"),
            GatePair(cells.MUX, cells.NDRO, label="max register update"),
            GatePair(cells.NDRO, cells.XOR, label="max register readback"),
        ]
