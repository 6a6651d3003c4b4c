"""On-chip network unit designs (paper Section III-A, Figs. 4 and 5).

Three candidate designs distribute operands to a ``width``-wide PE array:

* **2D splitter tree** — two shared splitter trees (ifmap + psum/weight)
  multicast to every PE.  Both trees share a global clock line, so the
  data-vs-clock arrival mismatch at a PE grows linearly with the array
  width; at 64 PEs the critical-path delay exceeds 800 ps (Fig. 5a).
* **1D splitter tree** — one tree per PE input; no dual-input timing race,
  but the tree's long JTL runs make its area as large as the 2D tree's
  (Fig. 5b).
* **2D systolic array (store-and-forward chain)** — a DFF+splitter pair per
  PE; both of a PE's inputs hop neighbor-to-neighbor so their mismatch is
  one hop regardless of width.  Smallest delay and area; adopted.

The models below reproduce the Fig. 5 comparison and provide the gate
counts the NPU-level estimator charges for the adopted systolic network.
"""

from __future__ import annotations

import math
from typing import List

from repro.device import cells
from repro.timing.clocking import ClockingScheme
from repro.timing.frequency import GatePair
from repro.uarch.unit import GateCounts, Unit

#: Physical pitch between adjacent PE columns on the AIST 1.0 um process
#: (mm).  Sets JTL run lengths for the tree designs.
PE_PITCH_MM = 1.2

#: Span covered by one JTL wire cell (mm).
JTL_SPAN_MM = 0.1

#: Data-vs-clock mismatch accumulated per PE hop in the shared-clock 2D
#: splitter tree (ps per PE of width).  Calibrated so a 64-wide tree exceeds
#: 800 ps of critical-path delay (Fig. 5a).
TREE_MISMATCH_PS_PER_PE = 12.6

#: Residual skew per tree level for the 1D splitter tree (ps/level).
TREE_LEVEL_SKEW_PS = 1.5


def _tree_jtl_cells(width: int) -> int:
    """Wire cells needed by a splitter tree spanning ``width`` PEs.

    A binary tree laid over a line of ``width`` PE pitches routes roughly
    two full spans of wiring (distribution plus clock line).
    """
    span_mm = width * PE_PITCH_MM
    return max(0, int(round(2.0 * span_mm / JTL_SPAN_MM)))


class NetworkUnit(Unit):
    """Base class: an operand-distribution network for ``width`` PEs."""

    kind = "network"

    def __init__(self, width: int, bits: int = 8) -> None:
        if width < 1:
            raise ValueError("network width must be positive")
        if bits < 1:
            raise ValueError("data width must be positive")
        self.width = width
        self.bits = bits

    def signature(self) -> tuple:
        return (type(self).__name__, self.width, self.bits)

    def critical_path_delay_ps(self, library) -> float:
        """Inverse of the maximum frequency, as plotted in Fig. 5a."""
        return self.frequency(library).cycle_time_ps


class SplitterTree2D(NetworkUnit):
    """Fan-out network: two shared-clock splitter trees per PE input."""

    kind = "network-2d-tree"

    def gate_counts(self) -> GateCounts:
        counts = GateCounts()
        per_tree_splitters = max(0, self.width - 1) * self.bits
        leaf_dffs = self.width * self.bits
        # Two trees (ifmap + psum/weight distribution) sharing one global
        # clock line, so the wiring cost is one full tree's worth of JTL runs
        # split between them — which is why the paper observes the 1D and 2D
        # trees landing at about the same area (Section III-A).
        counts.add(cells.SPLITTER, 2 * per_tree_splitters)
        counts.add(cells.JTL, _tree_jtl_cells(self.width) * self.bits)
        counts.add(cells.DFF, 2 * leaf_dffs)
        return counts

    def gate_pairs(self) -> List[GatePair]:
        # Both trees share one global clock line, so the leaf farthest from
        # the clock source sees a data-vs-clock mismatch proportional to the
        # array width (Fig. 4a "input arrival timing").
        mismatch = TREE_MISMATCH_PS_PER_PE * self.width
        return [
            GatePair(
                cells.SPLITTER,
                cells.DFF,
                scheme=ClockingScheme.CONCURRENT_FLOW,
                skew_residual_ps=mismatch,
                label="far-leaf dual-input race",
            )
        ]


class SplitterTree1D(NetworkUnit):
    """Fan-out network with a dedicated tree per PE input (no dual race)."""

    kind = "network-1d-tree"

    def gate_counts(self) -> GateCounts:
        counts = GateCounts()
        counts.add(cells.SPLITTER, max(0, self.width - 1) * self.bits)
        counts.add(cells.JTL, _tree_jtl_cells(self.width) * self.bits)
        counts.add(cells.DFF, self.width * self.bits)
        return counts

    def gate_pairs(self) -> List[GatePair]:
        depth = max(1, math.ceil(math.log2(max(2, self.width))))
        return [
            GatePair(
                cells.SPLITTER,
                cells.DFF,
                scheme=ClockingScheme.CONCURRENT_FLOW,
                skew_residual_ps=TREE_LEVEL_SKEW_PS * depth,
                label="tree leaf latch",
            )
        ]


class SystolicChain(NetworkUnit):
    """Store-and-forward chain: one DFF+splitter branch per PE (adopted)."""

    kind = "network-systolic"

    def gate_counts(self) -> GateCounts:
        counts = GateCounts()
        counts.add(cells.DFF, self.width * self.bits)
        counts.add(cells.SPLITTER, self.width * self.bits)
        return counts

    def gate_pairs(self) -> List[GatePair]:
        # Neighbor-to-neighbor hop: both PE inputs travel together, so the
        # mismatch is a single-hop residual independent of array width.
        return [
            GatePair(
                cells.DFF,
                cells.DFF,
                scheme=ClockingScheme.CONCURRENT_FLOW,
                label="store-and-forward hop",
            )
        ]


def compare_designs(width: int, bits: int, library) -> dict:
    """Fig. 5 comparison: delay (ps) and area (mm^2) of the three designs."""
    designs = {
        "2d_splitter_tree": SplitterTree2D(width, bits),
        "1d_splitter_tree": SplitterTree1D(width, bits),
        "systolic_array": SystolicChain(width, bits),
    }
    return {
        name: {
            "critical_path_delay_ps": unit.critical_path_delay_ps(library),
            "area_mm2": unit.area_mm2(library),
        }
        for name, unit in designs.items()
    }
