"""Bit-parallel gate-level-pipelined MAC unit (paper Sections III-B, IV).

The MAC is an array multiplier (carry-save adder rows) followed by a ripple
partial-sum adder, pipelined at gate granularity as SFQ logic naturally is.
An 8-bit MAC has 15 pipeline stages (paper Section III-C: "our 8-bit PE
consists of 15 pipeline stages"), which the ``2*bits - 1`` stage model
reproduces.

Two dataflow variants exist (Fig. 6):

* weight-stationary (WS): pure feed-forward, concurrent-flow clocked;
* output-stationary (OS): an adder<->register feedback loop forces
  counter-flow clocking and roughly halves the frequency (Fig. 7c).
"""

from __future__ import annotations

import enum
from typing import List

from repro.device import cells
from repro.timing.clocking import ClockingScheme, DEFAULT_WIRE_DELAY_PS
from repro.timing.frequency import GatePair
from repro.uarch.unit import GateCounts, Unit


class Dataflow(enum.Enum):
    """Systolic dataflow of the PE (paper Section III-B)."""

    WEIGHT_STATIONARY = "WS"
    OUTPUT_STATIONARY = "OS"


#: Residual data-vs-clock mismatch per bit of carry-save diagonal (ps/bit).
#: Clock skewing is applied per column, so the diagonal carry path keeps a
#: residual proportional to the operand width; calibrated so a standalone
#: 8-bit MAC runs just under 66 GHz, above the 52.6 GHz full-NPU clock of
#: Table I (which is set by the inter-unit interface wire instead).
MAC_SKEW_RESIDUAL_PS_PER_BIT = 1.15

#: Ratio of path-balancing DFFs to logic gates in a gate-level-pipelined
#: array multiplier.  Every operand, partial-sum and carry bit must be
#: re-timed at every one of the ~2b pipeline stages, so deep SFQ pipelines
#: pay several path-balancing DFFs per logic gate.
PATH_BALANCE_DFF_FACTOR = 2.8


def full_adder_counts() -> GateCounts:
    """Gate decomposition of one full adder: 2 XOR, 2 AND, 1 OR."""
    return GateCounts({cells.XOR: 2, cells.AND: 2, cells.OR: 1})


class MACUnit(Unit):
    """A ``bits x bits -> psum_bits`` multiply-accumulate pipeline."""

    kind = "mac"

    def __init__(
        self,
        bits: int = 8,
        psum_bits: int = 24,
        dataflow: Dataflow = Dataflow.WEIGHT_STATIONARY,
    ) -> None:
        if bits < 2:
            raise ValueError("MAC width must be at least 2 bits")
        if psum_bits < 2 * bits:
            raise ValueError("psum width must hold the full product")
        self.bits = bits
        self.psum_bits = psum_bits
        self.dataflow = dataflow

    def signature(self) -> tuple:
        return (type(self).__name__, self.bits, self.psum_bits, self.dataflow.value)

    @property
    def pipeline_stages(self) -> int:
        """Pipeline depth in cycles: ``2*bits - 1`` (15 stages at 8 bits)."""
        return 2 * self.bits - 1

    def gate_counts(self) -> GateCounts:
        b = self.bits
        counts = GateCounts()
        # Partial-product generation: b*b AND gates.
        counts.add(cells.AND, b * b)
        # Carry-save reduction: (b-1) rows of b full adders.
        counts.merge(full_adder_counts(), (b - 1) * b)
        # Final carry-propagate adder over the product bits.
        counts.merge(full_adder_counts(), b)
        # Partial-sum accumulation adder at psum width.
        counts.merge(full_adder_counts(), self.psum_bits)
        # Path-balancing DFFs re-timing operands across the pipeline.
        logic_gates = counts.total()
        counts.add(cells.DFF, round(logic_gates * PATH_BALANCE_DFF_FACTOR))
        # Splitters fan each operand bit out across its row/column.
        counts.add(cells.SPLITTER, 2 * b * self.pipeline_stages)
        return counts

    def gate_pairs(self) -> List[GatePair]:
        if self.dataflow is Dataflow.WEIGHT_STATIONARY:
            return [
                GatePair(
                    cells.XOR,
                    cells.AND,
                    scheme=ClockingScheme.CONCURRENT_FLOW,
                    skew_residual_ps=MAC_SKEW_RESIDUAL_PS_PER_BIT * self.bits,
                    label="carry-save diagonal (XOR->AND)",
                ),
                GatePair(
                    cells.AND,
                    cells.XOR,
                    scheme=ClockingScheme.CONCURRENT_FLOW,
                    label="partial product feed (AND->XOR)",
                ),
                GatePair(
                    cells.XOR,
                    cells.XOR,
                    scheme=ClockingScheme.CONCURRENT_FLOW,
                    label="sum chain (XOR->XOR)",
                ),
            ]
        # Output-stationary: the accumulate loop (adder -> register -> adder)
        # forces counter-flow clocking; the feedback path adds the register
        # delay and its return wire on top of the adder output delay.
        feedback_extra = (
            DEFAULT_WIRE_DELAY_PS + 0.0
        )  # register -> adder return wire
        return [
            GatePair(
                cells.AND,
                cells.AND,
                scheme=ClockingScheme.COUNTER_FLOW,
                feedback_extra_delay_ps=3.3 + feedback_extra,  # DFF delay + wire
                label="accumulator loop (adder->register->adder)",
            )
        ]

    def frequency_ghz(self, library) -> float:
        """Convenience: the unit frequency in GHz."""
        return self.frequency(library).frequency_ghz
