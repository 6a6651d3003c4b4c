"""Event-level execution traces (SCALE-SIM-style inspection output).

Expands one layer's cycle accounting into an ordered timeline of phases —
weight load, ifmap rewind, computation, psum movement — per weight
mapping, so the Fig. 15/16 data-movement story can be inspected mapping by
mapping (and exported as CSV for plotting).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.simulator.datapath import build_datapath
from repro.simulator.kernel import tile_charges
from repro.simulator.mapping import map_layer
from repro.uarch.config import NPUConfig
from repro.workloads.layers import ConvLayer, check_batch

#: Phase names in the order they occur within one mapping.
PHASES = ("weight_load", "ifmap_rewind", "compute", "psum_move")


@dataclass(frozen=True)
class TraceEvent:
    """One contiguous phase of one weight mapping."""

    mapping_index: int
    phase: str
    start_cycle: int
    end_cycle: int

    @property
    def duration(self) -> int:
        return self.end_cycle - self.start_cycle

    def __post_init__(self) -> None:
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.end_cycle < self.start_cycle:
            raise ValueError("event must not end before it starts")


def trace_layer(
    layer: ConvLayer,
    config: NPUConfig,
    batch: int = 1,
) -> List[TraceEvent]:
    """The serialized phase timeline of one layer's weight mappings.

    Serializes the engine's cycle charges (weight fill, rewind before
    every mapping after the first, compute, psum movement after
    accumulating tiles), each read from the same
    :func:`~repro.simulator.kernel.tile_charges` and
    :class:`~repro.simulator.datapath.Datapath` the array kernel charges
    from; the last event's ``end_cycle`` is the sum of the layer's
    weight-load, ifmap-prep, compute and psum-move cycles.
    """
    check_batch(batch)
    mapping = map_layer(layer, config)
    datapath = build_datapath(config)
    rewind = datapath.rewind_cycles
    psum_move = datapath.per_move_cycles
    pe_stages = datapath.pe.pipeline_stages

    vectors = layer.output_pixels * batch
    events: List[TraceEvent] = []
    cycle = 0
    index = 0
    for tile in mapping.tiles:
        load, compute = tile_charges(
            tile.rows_used, tile.cols_used, tile.regs_used, vectors, pe_stages
        )
        for _ in range(tile.count):
            events.append(TraceEvent(index, "weight_load", cycle, cycle + load))
            cycle += load
            if index > 0:
                events.append(TraceEvent(index, "ifmap_rewind", cycle, cycle + rewind))
                cycle += rewind
            events.append(TraceEvent(index, "compute", cycle, cycle + compute))
            cycle += compute
            if tile.accumulates and psum_move:
                events.append(TraceEvent(index, "psum_move", cycle, cycle + psum_move))
                cycle += psum_move
            index += 1
    return events


def trace_summary(events: List[TraceEvent]) -> dict:
    """Total cycles per phase (the Fig. 15 buckets, mapping-resolved)."""
    summary = {phase: 0 for phase in PHASES}
    for event in events:
        summary[event.phase] += event.duration
    summary["total"] = 0 if not events else events[-1].end_cycle
    return summary


def trace_to_csv(events: List[TraceEvent]) -> str:
    """Render a trace as CSV text."""
    lines = ["mapping,phase,start_cycle,end_cycle,duration"]
    for event in events:
        lines.append(
            f"{event.mapping_index},{event.phase},"
            f"{event.start_cycle},{event.end_cycle},{event.duration}"
        )
    return "\n".join(lines) + "\n"
