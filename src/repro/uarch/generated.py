"""A microarchitectural unit backed by a *generated* gate netlist.

The analytic :class:`~repro.uarch.mac.MACUnit` charges gate counts from a
carry-save structure model; :mod:`repro.gatesim` can instead *generate* a
working MAC netlist and count its gates exactly.  This adapter exposes a
generated circuit as a :class:`~repro.uarch.unit.Unit`, so the estimator
can price a netlist whose function has been proven by simulation — and so
the analytic model can be cross-checked against a constructive one.

The generated design is a shift-add multiplier (simpler, DFF-heavier and
deeper than the carry-save array the paper fabricates), so its estimate is
an *upper bound* on the analytic model's, not a replacement.
"""

from __future__ import annotations

from typing import List

from repro.device import cells
from repro.gatesim.circuits import PipelinedCircuit, build_mac
from repro.timing.frequency import GatePair
from repro.uarch.mac import MAC_SKEW_RESIDUAL_PS_PER_BIT
from repro.uarch.unit import GateCounts, Unit

#: Map gatesim gate kinds onto cell-library names.
_KIND_TO_CELL = {
    "AND": cells.AND,
    "OR": cells.OR,
    "XOR": cells.XOR,
    "NOT": cells.NOT,
    "DFF": cells.DFF,
    "NDRO": cells.NDRO,
    "TFF": cells.TFF,
}


class GeneratedMACUnit(Unit):
    """An estimator unit whose gate counts come from a built netlist."""

    kind = "mac-generated"

    def __init__(self, bits: int = 8, psum_bits: int = 24) -> None:
        if psum_bits < 2 * bits:
            raise ValueError("psum width must hold the full product")
        self.bits = bits
        self.psum_bits = psum_bits
        self.circuit: PipelinedCircuit = build_mac(bits, accumulator_bits=psum_bits)

    def signature(self) -> tuple:
        return (type(self).__name__, self.bits, self.psum_bits)

    @property
    def pipeline_stages(self) -> int:
        """The netlist's real latency (deeper than the carry-save model)."""
        return self.circuit.latency

    def gate_counts(self) -> GateCounts:
        counts = GateCounts()
        for kind, number in self.circuit.gate_histogram().items():
            counts.add(_KIND_TO_CELL[kind], number)
        # Operand fan-out splitters (wiring the netlist engine treats as
        # free but silicon does not): one per multi-destination output.
        fanout = sum(
            max(0, len(wire.destinations) - 1)
            for wire in self.circuit.builder.network._wires.values()
        )
        if fanout:
            counts.add(cells.SPLITTER, fanout)
        return counts

    def gate_pairs(self) -> List[GatePair]:
        # Same critical-pair structure as the analytic MAC: the carry path
        # into an AND destination with a width-scaled skew residual.
        return [
            GatePair(
                cells.XOR,
                cells.AND,
                skew_residual_ps=MAC_SKEW_RESIDUAL_PS_PER_BIT * self.bits,
                label="generated carry path",
            ),
            GatePair(cells.DFF, cells.XOR, label="retimed operand"),
        ]

    def verify(self, samples: int = 16, seed: int = 0) -> bool:
        """Spot-check the netlist still computes a*b + c."""
        import random

        rng = random.Random(seed)
        limit = 1 << self.bits
        acc_limit = 1 << self.psum_bits
        for _ in range(samples):
            a = rng.randrange(limit)
            b = rng.randrange(limit)
            c = rng.randrange(acc_limit - limit * limit)
            if self.circuit.compute(a=a, b=b, c=c) != a * b + c:
                return False
        return True
