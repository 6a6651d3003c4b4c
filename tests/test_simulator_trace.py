"""Execution-trace tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import all_designs, baseline, supernpu
from repro.simulator.engine import simulate
from repro.simulator.trace import (
    PHASES,
    TraceEvent,
    trace_layer,
    trace_summary,
    trace_to_csv,
)
from repro.workloads.layers import ConvLayer, depthwise_layer, fc_layer
from repro.workloads.models import Network, vgg16


@pytest.fixture(scope="module")
def multi_mapping_layer():
    # conv3_1 of VGG16: reduction 1152 -> several row tiles on 256 rows.
    return vgg16().layers[4]


def test_events_are_contiguous_and_ordered(multi_mapping_layer):
    events = trace_layer(multi_mapping_layer, baseline(), batch=1)
    assert events[0].start_cycle == 0
    for previous, current in zip(events, events[1:]):
        assert current.start_cycle == previous.end_cycle
        assert current.mapping_index >= previous.mapping_index


def test_phases_follow_mapping_structure(multi_mapping_layer):
    events = trace_layer(multi_mapping_layer, baseline(), batch=1)
    # Baseline: first mapping has no rewind; accumulating tiles move psums.
    first = [e.phase for e in events if e.mapping_index == 0]
    assert first[0] == "weight_load"
    assert "ifmap_rewind" not in first
    second = [e.phase for e in events if e.mapping_index == 1]
    assert "ifmap_rewind" in second
    assert any(e.phase == "psum_move" for e in events)


def test_integrated_design_has_no_psum_moves(multi_mapping_layer):
    events = trace_layer(multi_mapping_layer, supernpu(), batch=1)
    assert all(e.phase != "psum_move" for e in events)


def assert_trace_matches_simulate(layer, config, batch):
    """Each phase total of the trace is the matching charge of the
    ``simulate()`` layer row."""
    summary = trace_summary(trace_layer(layer, config, batch))
    row = simulate(config, Network("one", (layer,)), batch=batch).layers[0]
    assert summary["weight_load"] == row.weight_load_cycles
    assert summary["ifmap_rewind"] == row.ifmap_prep_cycles
    assert summary["compute"] == row.compute_cycles
    assert summary["psum_move"] == row.psum_move_cycles
    assert summary["total"] == (row.weight_load_cycles + row.ifmap_prep_cycles
                                + row.compute_cycles + row.psum_move_cycles)


def test_trace_matches_engine_baseline(multi_mapping_layer):
    assert_trace_matches_simulate(multi_mapping_layer, baseline(), batch=1)


def test_trace_matches_engine_supernpu(multi_mapping_layer):
    assert_trace_matches_simulate(multi_mapping_layer, supernpu(), batch=4)


def test_trace_matches_engine_on_depthwise():
    from repro.workloads.models import mobilenet

    dw_layer = next(l for l in mobilenet().layers if l.is_depthwise)
    assert_trace_matches_simulate(dw_layer, supernpu(), batch=2)


@st.composite
def traced_layers(draw):
    """Random conv, depthwise and FC layers, small enough to trace quickly
    yet tiling over several row and column tiles of the named designs."""
    kind = draw(st.sampled_from(["conv", "depthwise", "fc"]))
    if kind == "fc":
        return fc_layer("fc", draw(st.integers(1, 2000)), draw(st.integers(1, 1100)))
    size = draw(st.integers(1, 14))
    kernel = draw(st.integers(1, min(3, size)))
    stride = draw(st.integers(1, 2))
    if kind == "depthwise":
        return depthwise_layer("dw", draw(st.integers(1, 300)), size, kernel=kernel,
                               stride=stride, padding=kernel // 2)
    groups = draw(st.sampled_from([1, 1, 2]))
    return ConvLayer(
        "conv", in_channels=groups * draw(st.integers(1, 200)), in_height=size,
        in_width=size, out_channels=groups * draw(st.integers(1, 600)),
        kernel_height=kernel, kernel_width=kernel, stride=stride,
        padding=draw(st.integers(0, kernel // 2)), groups=groups,
    )


@given(traced_layers(), st.sampled_from(all_designs()), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_trace_summary_equals_the_simulate_row(layer, config, batch):
    """The trace matches the ``simulate()`` layer row on random layers
    and the four named designs."""
    assert_trace_matches_simulate(layer, config, batch)


def test_summary_totals(multi_mapping_layer):
    events = trace_layer(multi_mapping_layer, baseline(), batch=1)
    summary = trace_summary(events)
    assert set(summary) == set(PHASES) | {"total"}
    assert summary["total"] == events[-1].end_cycle
    assert sum(summary[p] for p in PHASES) == summary["total"]


def test_csv_rendering(multi_mapping_layer):
    events = trace_layer(multi_mapping_layer, supernpu(), batch=1)
    text = trace_to_csv(events)
    lines = text.strip().splitlines()
    assert lines[0] == "mapping,phase,start_cycle,end_cycle,duration"
    assert len(lines) == len(events) + 1


def test_csv_round_trip(multi_mapping_layer):
    """The CSV text parses back into the exact event list."""
    events = trace_layer(multi_mapping_layer, baseline(), batch=1)
    lines = trace_to_csv(events).strip().splitlines()
    parsed = []
    for line in lines[1:]:
        mapping, phase, start, end, duration = line.split(",")
        parsed.append(TraceEvent(int(mapping), phase, int(start), int(end)))
        assert int(duration) == parsed[-1].duration
    assert parsed == list(events)


@pytest.mark.parametrize("config_factory", [baseline, supernpu],
                         ids=["non-integrated", "integrated"])
def test_summary_totals_match_engine(config_factory, multi_mapping_layer):
    """Per-phase totals equal the engine's charges on both buffer styles."""
    from repro.simulator.datapath import build_datapath
    from repro.simulator.engine import simulate_layer
    from repro.simulator.memory import MemoryModel
    from repro.simulator.results import ActivityTrace
    from repro.device.cells import rsfq_library
    from repro.estimator.arch_level import estimate_npu

    config = config_factory()
    estimate = estimate_npu(config, rsfq_library())
    memory = MemoryModel(config.memory_bandwidth_gbps, estimate.frequency_ghz)
    datapath = build_datapath(config)
    result, _ = simulate_layer(
        multi_mapping_layer, config, 1, memory, datapath.ifmap_buffer,
        datapath.output_buffer, datapath.psum_buffer, datapath.pe,
        ActivityTrace(), input_resident=True, is_last_layer=True,
    )
    summary = trace_summary(trace_layer(multi_mapping_layer, config, batch=1))
    assert summary["weight_load"] == result.weight_load_cycles
    assert summary["ifmap_rewind"] == result.ifmap_prep_cycles
    assert summary["compute"] == result.compute_cycles
    assert summary["psum_move"] == result.psum_move_cycles


def test_event_validation():
    with pytest.raises(ValueError):
        TraceEvent(0, "siesta", 0, 1)
    with pytest.raises(ValueError):
        TraceEvent(0, "compute", 5, 4)
    with pytest.raises(ValueError):
        trace_layer(vgg16().layers[0], baseline(), batch=0)
