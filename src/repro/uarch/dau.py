"""Data alignment unit (DAU), paper Section III-C and Fig. 9.

The DAU sits between the ifmap buffer and the PE array.  Because adjacent
PE rows hold overlapping weights of the same convolution window, they need
largely the *same* ifmap pixels; storing those duplicates in the
shift-register ifmap buffer would waste >90% of its capacity (Fig. 8).
Instead each ifmap buffer row holds unique pixels of one channel and the
DAU replicates and re-times them:

* a per-row **selector** picks (or zero-fills) the pixels the row's weight
  needs, driven by a small **controller** that knows the layer shape and
  current weight mapping;
* a cascade of **bypassable DFFs** delays row ``r`` by ``r * (stages - 1)``
  cycles so its pixels meet the partial sums descending through the
  ``stages``-deep PE pipelines (the Fig. 9 "timing adjustment" step).
"""

from __future__ import annotations

from typing import List

from repro.device import cells
from repro.timing.frequency import GatePair
from repro.uarch.unit import GateCounts, Unit

#: Gate cost of one per-row controller: index counters and compare logic
#: generating the select / bypass signals (Fig. 9 "Ctrl").
CONTROLLER_GATES_PER_ROW = {
    cells.TFF: 24,  # ifmap/weight pixel index counters
    cells.AND: 24,
    cells.OR: 12,
    cells.NOT: 12,
    cells.DFF: 32,
}


class DataAlignmentUnit(Unit):
    """DAU for a PE array of ``rows`` rows fed with ``bits``-wide data."""

    kind = "dau"

    def __init__(self, rows: int, bits: int = 8, pe_pipeline_stages: int = 15) -> None:
        if rows < 1:
            raise ValueError("the DAU needs at least one row")
        if pe_pipeline_stages < 1:
            raise ValueError("PE pipeline depth must be positive")
        self.rows = rows
        self.bits = bits
        self.pe_pipeline_stages = pe_pipeline_stages

    def signature(self) -> tuple:
        return (type(self).__name__, self.rows, self.bits, self.pe_pipeline_stages)

    def delay_stages(self, row: int) -> int:
        """Timing-adjustment depth of ``row`` (0-indexed): r*(stages-1)."""
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range [0, {self.rows})")
        return row * (self.pe_pipeline_stages - 1)

    @property
    def total_delay_cells(self) -> int:
        """Total bypassable DFFs across all rows and bit lanes: the sum of
        :meth:`delay_stages` over the rows, ``(stages - 1) * rows * (rows - 1) / 2``
        per lane."""
        return self.bits * (self.pe_pipeline_stages - 1) * (self.rows * (self.rows - 1) // 2)

    def gate_counts(self) -> GateCounts:
        counts = GateCounts()
        # Timing-adjustment cascades (bypassable DFFs).
        counts.add(cells.DFF_BYPASS, self.total_delay_cells)
        # Data selection: each ifmap buffer row fans out to all DAU rows
        # through a splitter tree, and each DAU row gates the stream with a
        # selector (one AND per bit) fed by its controller.
        counts.add(cells.SPLITTER, self.rows * self.rows * self.bits)
        counts.add(cells.AND, self.rows * self.bits)
        for name, per_row in CONTROLLER_GATES_PER_ROW.items():
            counts.add(name, per_row * self.rows)
        return counts

    def gate_pairs(self) -> List[GatePair]:
        return [
            GatePair(cells.DFF_BYPASS, cells.DFF_BYPASS, label="delay cascade hop"),
            GatePair(cells.AND, cells.DFF_BYPASS, label="selector output"),
        ]
