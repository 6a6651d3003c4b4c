"""Shared construction of the simulated datapath components.

Both dataflows' array passes (:mod:`repro.simulator.kernel`) and the
execution tracer read the buffers, PE, ifmap rewind and psum per-move
charge a config implies from one :class:`Datapath`, built here once per
config instance and kept on it; only the scalar golden reference
(:func:`~repro.simulator.engine.simulate_layer`) derives the charges from
the buffers itself.
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
    rewind_cycles: int  # ifmap re-alignment per mapping after the first (Fig. 16 (2))
    per_move_cycles: int  # one psum move, ofmap <-> psum buffer (Fig. 16 (1)); 0 if integrated


#: Instance attribute where a config keeps its :class:`Datapath`; listed in
#: ``NPUConfig._memos``, so it never rides along in a pickle or a copy.
KEPT_DATAPATH = "_datapath"


def build_datapath(config: NPUConfig) -> Datapath:
    """The ifmap / output / psum buffers and PE of ``config``, built on the
    first call and kept on the (immutable) config instance.

    Integrated designs fold psum storage into the output buffer
    (``psum_buffer is None``); non-integrated designs carry the separate
    psum buffer whose shift-in/out movement Fig. 16 (1) charges.
    """
    datapath = config.__dict__.get(KEPT_DATAPATH)
    if datapath is None:
        datapath = config.__dict__[KEPT_DATAPATH] = _build_datapath(config)
    return datapath


def _build_datapath(config: NPUConfig) -> Datapath:
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
    per_move = 0
    if psum_buffer is not None:
        per_move = (psum_buffer.chunk_length_entries
                    + output_buffer.chunk_length_entries)
    return Datapath(
        ifmap_buffer=ifmap_buffer,
        output_buffer=output_buffer,
        psum_buffer=psum_buffer,
        pe=pe,
        rewind_cycles=ifmap_buffer.rewind_cycles(),
        per_move_cycles=per_move,
    )
