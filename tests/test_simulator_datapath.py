"""Shared datapath-construction tests (engine and trace use one builder)."""

from repro.simulator.datapath import Datapath, build_datapath
from repro.uarch.buffers import IntegratedOutputBuffer, ShiftRegisterBuffer


def test_integrated_design_has_no_psum_buffer(supernpu_config):
    datapath = build_datapath(supernpu_config)
    assert isinstance(datapath, Datapath)
    assert isinstance(datapath.output_buffer, IntegratedOutputBuffer)
    assert datapath.psum_buffer is None


def test_non_integrated_design_builds_psum_buffer(baseline_config):
    datapath = build_datapath(baseline_config)
    assert type(datapath.output_buffer) is ShiftRegisterBuffer
    assert datapath.psum_buffer is not None
    assert datapath.psum_buffer.capacity_bytes == baseline_config.psum_buffer_bytes


def test_dimensions_follow_config(supernpu_config):
    datapath = build_datapath(supernpu_config)
    assert datapath.ifmap_buffer.io_width == supernpu_config.pe_array_height
    assert datapath.output_buffer.io_width == supernpu_config.pe_array_width
    assert datapath.ifmap_buffer.division == supernpu_config.ifmap_division
    assert datapath.pe.registers == supernpu_config.registers_per_pe


def test_engine_and_trace_share_the_builder():
    """Every call site imports the one helper (no hand-built duplicates),
    and only `build_datapath` and the scalar reference derive the rewind and
    per-move charges from the buffers."""
    import inspect

    from repro.simulator import dataflow_ablation, engine, kernel, trace

    assert "build_datapath" in inspect.getsource(engine.simulate)
    assert "build_datapath" in inspect.getsource(trace.trace_layer)
    assert "build_datapath" in inspect.getsource(dataflow_ablation.simulate_os)
    for module in (kernel, trace, dataflow_ablation):
        source = inspect.getsource(module)
        assert "rewind_cycles()" not in source
        assert "chunk_length_entries" not in source


def test_rewind_and_per_move_come_from_the_buffers(supernpu_config, baseline_config):
    integrated = build_datapath(supernpu_config)
    assert integrated.rewind_cycles == integrated.ifmap_buffer.rewind_cycles()
    assert integrated.per_move_cycles == 0

    separate = build_datapath(baseline_config)
    assert separate.rewind_cycles == separate.ifmap_buffer.rewind_cycles()
    assert separate.per_move_cycles == (separate.psum_buffer.chunk_length_entries
                                        + separate.output_buffer.chunk_length_entries)
    # Fig. 16 (1): the 16 MB Baseline pair moves 65,536 cycles per psum move.
    assert separate.per_move_cycles == 65536
