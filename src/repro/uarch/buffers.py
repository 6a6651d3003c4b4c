"""Shift-register-based on-chip buffers, plain and chunked (Figs. 2b, 19).

SFQ on-chip memory is a bank of serially connected DFF rows with a feedback
loop (Section II-B3): one entry per row enters/leaves per cycle, and
reaching an arbitrary entry costs shifting the whole row around.  That
shifting cost is what the SuperNPU buffer optimizations attack:

* **Division** splits every row into ``division`` chunks reachable through
  MUX/DEMUX trees, cutting the worst-case shift length by the division
  degree at the price of tree area (Fig. 20's area curve).
* **Integration** merges the psum and ofmap buffers into one pool of chunks
  so "moving" a psum to the ofmap buffer is a chunk re-selection instead of
  a physical shift (Fig. 19 (1)).

The feedback loop inside each row forces counter-flow clocking, which is
the 133 GHz -> 71 GHz shift-register entry of Fig. 7c; buffers therefore do
not bound the NPU clock (their 71 GHz exceeds the 52.6 GHz chip clock, and
the paper clocks them with the global clock).
"""

from __future__ import annotations

import math
from typing import List

from repro.device import cells
from repro.timing.clocking import ClockingScheme
from repro.timing.frequency import GatePair
from repro.uarch.unit import GateCounts, Unit


class ShiftRegisterBuffer(Unit):
    """A shift-register buffer bank.

    Attributes:
        capacity_bytes: Total storage.
        io_width: Number of rows, i.e. entries moved per cycle (one per
            row).  Matches the PE-array dimension the buffer feeds: the
            Baseline ifmap buffer has 256 rows and therefore moves
            256 bytes/cycle, giving the paper's 65,536-cycle figure for
            shifting 16 MB (Section V-A2).
        entry_bits: Width of one entry (8 for ifmap/weight, psum width for
            the output side).
        division: Number of chunks each row is divided into.
    """

    kind = "buffer"

    def __init__(
        self,
        capacity_bytes: int,
        io_width: int,
        entry_bits: int = 8,
        division: int = 1,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        if io_width < 1:
            raise ValueError("io width must be positive")
        if entry_bits < 1:
            raise ValueError("entry width must be positive")
        if division < 1:
            raise ValueError("division degree must be >= 1")
        self.capacity_bytes = capacity_bytes
        self.io_width = io_width
        self.entry_bits = entry_bits
        self.division = division

    def signature(self) -> tuple:
        return (type(self).__name__, self.capacity_bytes, self.io_width,
                self.entry_bits, self.division)

    # -- Geometry ------------------------------------------------------------

    @property
    def total_entries(self) -> int:
        """Number of ``entry_bits``-wide entries stored."""
        return (self.capacity_bytes * 8) // self.entry_bits

    @property
    def row_length_entries(self) -> int:
        """Entries per row (full row shift cost in cycles, undivided)."""
        return math.ceil(self.total_entries / self.io_width)

    @property
    def chunk_length_entries(self) -> int:
        """Entries per chunk row — the worst-case shift cost in cycles."""
        return math.ceil(self.row_length_entries / self.division)

    @property
    def chunk_capacity_bytes(self) -> int:
        """Bytes per chunk (across all rows of the chunk)."""
        return math.ceil(self.capacity_bytes / self.division)

    def drain_cycles(self, num_bytes: int | None = None) -> int:
        """Cycles to stream ``num_bytes`` out (defaults to full capacity)."""
        if num_bytes is None:
            num_bytes = self.capacity_bytes
        if num_bytes < 0:
            raise ValueError("byte count must be non-negative")
        entries = math.ceil(num_bytes * 8 / self.entry_bits)
        return math.ceil(entries / self.io_width)

    def rewind_cycles(self) -> int:
        """Worst-case cycles to rotate a chunk back to its head.

        This is the "move data from its tail to the head" cost of
        Section V-A2 (Fig. 16 (2)); division shortens it proportionally.
        """
        return self.chunk_length_entries

    # -- Structure -----------------------------------------------------------

    def gate_counts(self) -> GateCounts:
        counts = GateCounts()
        bit_cells = self.total_entries * self.entry_bits
        counts.add(cells.SRCELL, bit_cells)
        rows = self.io_width * self.division
        # Feedback loop per chunk row: merger at the head, splitter at the
        # tail (Fig. 2b), per bit lane.
        counts.add(cells.MERGER, rows * self.entry_bits)
        counts.add(cells.SPLITTER, rows * self.entry_bits)
        if self.division > 1:
            # Chunk-select MUX/DEMUX trees per I/O lane and bit (Fig. 19):
            # (division - 1) 2:1 stages per binary tree.
            tree_cells = (self.division - 1) * self.io_width * self.entry_bits
            counts.add(cells.MUX, tree_cells)
            counts.add(cells.DEMUX, tree_cells)
        return counts

    def gate_pairs(self) -> List[GatePair]:
        pairs = [
            GatePair(
                cells.SRCELL,
                cells.SRCELL,
                scheme=ClockingScheme.COUNTER_FLOW,
                label="shift-register hop (counter-flow)",
            )
        ]
        if self.division > 1:
            pairs.append(
                GatePair(
                    cells.MUX,
                    cells.SRCELL,
                    scheme=ClockingScheme.CONCURRENT_FLOW,
                    label="chunk-select mux",
                )
            )
        return pairs


class IntegratedOutputBuffer(ShiftRegisterBuffer):
    """The merged psum+ofmap buffer of SuperNPU (Fig. 19).

    Structurally a chunked :class:`ShiftRegisterBuffer`; chunks are
    dynamically designated as psum or ofmap storage through separate
    MUX/DEMUX select trees, so psum->ofmap "movement" costs zero shifts.
    """

    kind = "integrated-output-buffer"

    def gate_counts(self) -> GateCounts:
        counts = super().gate_counts()
        if self.division > 1:
            # Second select tree so the psum chunk and the ofmap chunk can
            # be addressed independently (Fig. 19: "Ofmap buffer select" and
            # "Psum buffer select").
            tree_cells = (self.division - 1) * self.io_width * self.entry_bits
            counts.add(cells.MUX, tree_cells)
            counts.add(cells.DEMUX, tree_cells)
        return counts

    def inter_buffer_move_cycles(self) -> int:
        """Psum<->ofmap movement cost: none, it is a chunk re-selection."""
        return 0
