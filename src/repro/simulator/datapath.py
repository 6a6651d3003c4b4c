"""Shared construction of the simulated datapath components.

``simulate()``, the execution tracer and the OS ablation's ifmap rewind
and PE depth all need the same buffer / PE instances a config implies;
building them in one place keeps the engine and the trace model
structurally identical (which ``trace.verify_against_engine`` then
checks cycle-for-cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.uarch.buffers import IntegratedOutputBuffer, ShiftRegisterBuffer
from repro.uarch.config import NPUConfig
from repro.uarch.pe import ProcessingElement


@dataclass(frozen=True)
class Datapath:
    """The config-derived on-chip components the cycle model charges."""

    ifmap_buffer: ShiftRegisterBuffer
    output_buffer: Union[ShiftRegisterBuffer, IntegratedOutputBuffer]
    psum_buffer: Optional[ShiftRegisterBuffer]
    pe: ProcessingElement


def build_datapath(config: NPUConfig) -> Datapath:
    """Instantiate the ifmap / output / psum buffers and PE for ``config``.

    Integrated designs fold psum storage into the output buffer
    (``psum_buffer is None``); non-integrated designs carry the separate
    psum buffer whose shift-in/out movement Fig. 16 (1) charges.
    """
    ifmap_buffer = ShiftRegisterBuffer(
        config.ifmap_buffer_bytes,
        io_width=config.pe_array_height,
        entry_bits=config.data_bits,
        division=config.ifmap_division,
    )
    buffer_cls = (
        IntegratedOutputBuffer if config.integrated_output_buffer else ShiftRegisterBuffer
    )
    output_buffer = buffer_cls(
        config.output_buffer_bytes,
        io_width=config.pe_array_width,
        entry_bits=config.data_bits,
        division=config.output_division,
    )
    psum_buffer = None
    if not config.integrated_output_buffer:
        psum_buffer = ShiftRegisterBuffer(
            config.psum_buffer_bytes,
            io_width=config.pe_array_width,
            entry_bits=config.data_bits,
            division=config.output_division,
        )
    pe = ProcessingElement(
        bits=config.data_bits,
        psum_bits=config.psum_bits,
        registers=config.registers_per_pe,
    )
    return Datapath(
        ifmap_buffer=ifmap_buffer,
        output_buffer=output_buffer,
        psum_buffer=psum_buffer,
        pe=pe,
    )
