"""Bitwise equivalence of the array cycle model with its scalar reference.

``engine.simulate`` charges a whole network in one array pass
(``repro.simulator.kernel``), and ``engine.charge_designs`` charges
several design points, of one network or of several, in one (designs x
layers) pass, from which ``engine.simulate`` builds each point's result.
``engine.simulate_layer`` walks one layer's mapping tiles and stays in the
package as the golden reference.  Every case here runs them side by side
and demands equal ``LayerResult`` lists, activity floats equal to the last
bit and in the same key order, the same ``simulate/layer`` spans and the
same cycle timeline.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api, obs
from repro.components import component_names
from repro.core.batching import paper_batch
from repro.core.designs import baseline, buffer_opt, resource_opt, supernpu
from repro.core.jobs import JobRunner, ResultCache, SimTask
from repro.errors import SimulationError, WorkloadError
from repro.estimator.arch_level import estimate_npu
from repro.obs.timeline import CycleTimeline
from repro.simulator import engine, kernel
from repro.simulator.dataflow_ablation import simulate_os
from repro.simulator.datapath import build_datapath
from repro.simulator.mapping import map_layer
from repro.simulator.memory import memory_model_for
from repro.simulator.results import ActivityTrace, LayerResult
from repro.simulator.trace import trace_layer
from repro.uarch.config import NPUConfig
from repro.workloads.layers import ConvLayer, check_batch, depthwise_layer, fc_layer
from repro.workloads.models import Network, all_workloads


def reference_run(config, network, batch, frequency_ghz):
    """The scalar model: ``simulate_layer`` layer by layer, as before."""
    memory = memory_model_for(config, frequency_ghz)
    datapath = build_datapath(config)
    activity = ActivityTrace()
    layers = []
    resident = False
    for index, layer in enumerate(network.layers):
        result, resident = engine.simulate_layer(
            layer, config, batch, memory, datapath.ifmap_buffer,
            datapath.output_buffer, datapath.psum_buffer, datapath.pe,
            activity, input_resident=resident,
            is_last_layer=index == len(network.layers) - 1,
        )
        layers.append(result)
    return tuple(layers), dict(sorted(activity.effective_cycles.items()))


def reference_timeline(config, network, batch, frequency_ghz, layers):
    """The cycle timeline the scalar engine recorded for ``layers``."""
    timeline = CycleTimeline(frequency_ghz)
    for layer, result in zip(network.layers, layers):
        timeline.record_layer(result, occupancy={
            "ifmap_buffer_bytes": min(layer.ifmap_bytes * batch, config.ifmap_buffer_bytes),
            "output_buffer_bytes": min(layer.ofmap_bytes * batch, config.output_buffer_bytes),
            "weight_buffer_bytes": min(layer.weight_bytes, config.weight_buffer_bytes),
        })
    return timeline


def _layer_spans(tracer):
    spans = []
    stack = list(tracer.roots)
    while stack:
        span = stack.pop(0)
        if span.name == "simulate/layer":
            spans.append(dict(span.attrs))
        stack[:0] = span.children
    return spans


def assert_equivalent(config, network, batch, frequency_ghz):
    """``simulate()`` against the reference: results, activity bits and key
    order, ``simulate/layer`` spans, timeline, and the overflow guard."""
    estimate = SimpleNamespace(frequency_ghz=frequency_ghz)
    timeline = CycleTimeline(frequency_ghz)
    obs.enable()
    try:
        run = engine.simulate(config, network, batch, estimate=estimate, timeline=timeline)
        spans = _layer_spans(obs.tracer())
    finally:
        obs.disable()
        obs.reset()
    layers, activity = reference_run(config, network, batch, frequency_ghz)
    assert run.layers == layers
    assert all(type(value) is int
               for layer in run.layers for value in vars(layer).values()
               if not isinstance(value, str))
    cycles = run.activity.effective_cycles
    assert list(cycles) == list(activity)
    assert [value.hex() for value in cycles.values()] == [
        value.hex() for value in activity.values()]

    assert spans == [{"layer": layer.name, "cycles": layer.total_cycles, "macs": layer.macs}
                     for layer in layers]
    expected = reference_timeline(config, network, batch, frequency_ghz, layers)
    assert timeline.events == expected.events
    assert timeline.counters == expected.counters
    assert timeline.cursor == expected.cursor

    with pytest.raises(SimulationError) as info:
        engine.simulate(config, network, 2 ** 53, estimate=estimate)
    assert info.value.code == "simulation.charge_overflow"
    return run


# -- hypothesis: random designs, layers and batches ----------------------

@st.composite
def layers(draw, index):
    kind = draw(st.sampled_from(["conv", "depthwise", "fc"]))
    name = f"{kind}{index}"
    if kind == "fc":
        return fc_layer(name, draw(st.integers(1, 5000)), draw(st.integers(1, 1200)))
    size = draw(st.integers(1, 28))
    kernel_size = draw(st.integers(1, min(5, size)))
    stride = draw(st.integers(1, 2))
    if kind == "depthwise":
        return depthwise_layer(name, draw(st.integers(1, 600)), size,
                               kernel=kernel_size, stride=stride, padding=kernel_size // 2)
    groups = draw(st.sampled_from([1, 1, 2, 4]))
    return ConvLayer(
        name, in_channels=groups * draw(st.integers(1, 300)), in_height=size,
        in_width=size, out_channels=groups * draw(st.integers(1, 600)),
        kernel_height=kernel_size, kernel_width=kernel_size, stride=stride,
        padding=draw(st.integers(0, kernel_size // 2)), groups=groups,
    )


@st.composite
def networks(draw):
    count = draw(st.integers(1, 5))
    return Network("hypo", tuple(draw(layers(index)) for index in range(count)))


@st.composite
def configs(draw):
    integrated = draw(st.booleans())
    return NPUConfig(
        name="hypo",
        pe_array_height=draw(st.integers(1, 300)),
        pe_array_width=draw(st.integers(1, 300)),
        registers_per_pe=draw(st.integers(1, 8)),
        ifmap_division=draw(st.sampled_from([1, 2, 3, 8, 64])),
        output_division=draw(st.sampled_from([1, 2, 5, 8, 64])),
        ifmap_buffer_bytes=draw(st.sampled_from([0, 4096, 1 << 20, 8 << 20, 24 << 20])),
        output_buffer_bytes=draw(st.sampled_from([0, 4096, 1 << 20, 8 << 20])),
        psum_buffer_bytes=0 if integrated else draw(st.sampled_from([0, 1 << 20, 8 << 20])),
        integrated_output_buffer=integrated,
        memory_bandwidth_gbps=draw(st.sampled_from([300.0, 25.6, 1200.0])),
        memory_technology=draw(st.sampled_from(component_names(kind="memory"))),
    )


@given(configs(), networks(), st.integers(1, 4096),
       st.sampled_from([52.6, 31.8, 0.7, 100.0]))
@settings(max_examples=300, deadline=None)
def test_simulate_equals_a_loop_of_simulate_layer(config, network, batch, frequency):
    assert_equivalent(config, network, batch, frequency)


# -- groups: several designs of one network in one pass -----------------

def simulate_together(configs, network, batches, estimates):
    """What the job runner does with a group: one joint charge pass, then
    one ``simulate()`` per point."""
    return [engine.simulate(config, network, batch, estimate=estimate, charges=charges)
            for config, batch, estimate, charges in zip(
                configs, batches, estimates,
                engine.charge_designs(configs, network, batches, estimates))]


def assert_group_equivalent(configs, network, batches, frequencies):
    """A joint pass, member by member, against solo ``simulate()``
    and the reference: results, activity bits and key order, spans, and
    ``sim.*`` counts."""
    estimates = [SimpleNamespace(frequency_ghz=frequency) for frequency in frequencies]
    obs.enable()
    try:
        runs = simulate_together(configs, network, batches, estimates)
        roots = obs.tracer().roots
        counters = obs.metrics().snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
    # One span for the joint charge pass, then one ``simulate`` span per
    # design point, as a solo run would leave.
    assert (roots[0].name, roots[0].attrs) == (
        "simulate/group", {"network": network.name, "designs": len(configs)})
    spans = roots[1:]
    assert [(span.name, span.attrs) for span in spans] == [
        ("simulate", {"design": config.name, "network": network.name, "batch": batch})
        for config, batch in zip(configs, batches)]
    assert len(runs) == len(configs)
    for config, batch, estimate, run, span in zip(configs, batches, estimates, runs, spans):
        solo = engine.simulate(config, network, batch, estimate=estimate)
        layers, activity = reference_run(config, network, batch, estimate.frequency_ghz)
        assert (run.design, run.network, run.batch, run.frequency_ghz) == (
            solo.design, solo.network, solo.batch, solo.frequency_ghz)
        assert run.layers == solo.layers == layers
        for cycles in (run.activity.effective_cycles, solo.activity.effective_cycles):
            assert list(cycles) == list(activity)
            assert [value.hex() for value in cycles.values()] == [
                value.hex() for value in activity.values()]
        assert [child.attrs for child in span.children] == [
            {"layer": layer.name, "cycles": layer.total_cycles, "macs": layer.macs}
            for layer in layers]
    assert counters["sim.runs"] == len(configs)
    assert counters["sim.layers_simulated"] == len(configs) * len(network.layers)
    assert counters["sim.cycles"] == sum(run.total_cycles for run in runs)
    assert counters["sim.dram_traffic_bytes"] == sum(
        layer.dram_traffic_bytes for run in runs for layer in run.layers)
    return runs


@given(st.lists(configs(), min_size=1, max_size=8), networks(), st.data())
@settings(max_examples=150, deadline=None)
def test_a_group_equals_solo_runs_and_the_reference(group, network, data):
    batches = [data.draw(st.integers(1, 4096)) for _ in group]
    frequencies = [data.draw(st.sampled_from([52.6, 31.8, 0.7, 100.0])) for _ in group]
    assert_group_equivalent(group, network, batches, frequencies)


def test_a_member_over_the_guard_fails_its_own_task(tmp_path, supernpu_config):
    network = all_workloads()[0]
    estimates = [SimpleNamespace(frequency_ghz=52.6)] * 3
    with pytest.raises(SimulationError) as info:
        engine.charge_designs([supernpu_config] * 3, network, [1, 2 ** 53, 2], estimates)
    assert info.value.code == "simulation.charge_overflow"
    assert info.value.context["batch"] == 2 ** 53

    # Through the runner, the members before it finish and are cached; the
    # member itself raises its own error, and nothing after it runs.
    cache = ResultCache(tmp_path)
    tasks = [SimTask(supernpu_config, network, batch) for batch in (1, 2, 2 ** 53, 4)]
    with pytest.raises(SimulationError) as info:
        JobRunner(cache=cache).run(tasks)
    assert info.value.code == "simulation.charge_overflow"
    assert info.value.context["batch"] == 2 ** 53
    assert [cache.get(task.key()) is not None for task in tasks] == [True, True, False, False]


def test_simulate_seconds_of_a_group_include_each_points_share(monkeypatch, supernpu_config):
    ticks = iter(range(100))  # every clock read advances one second
    monkeypatch.setattr(engine, "time", SimpleNamespace(perf_counter=lambda: next(ticks)))
    network = all_workloads()[0]
    estimates = [SimpleNamespace(frequency_ghz=52.6)] * 4
    obs.enable(metrics=True, tracing=False)
    try:
        simulate_together([supernpu_config] * 4, network, [1, 2, 3, 4], estimates)
        seconds = obs.metrics().snapshot()["histograms"]["sim.simulate_seconds"]
    finally:
        obs.disable()
        obs.reset()
    # The joint pass took one tick, a quarter per point; each point's own
    # simulate() call took one more.
    assert (seconds["count"], seconds["sum"]) == (4, 4 * 1.25)


def test_dau_fallback_inside_a_group(monkeypatch):
    # Batches 1, 1000 and 4096 of this layer round the DAU closed form
    # (see test_rounding_layers_match_end_to_end); batch 3 does not.
    layer = ConvLayer("r", in_channels=7, in_height=40, in_width=25,
                      out_channels=3, kernel_height=1, kernel_width=1)
    ranks = []
    dau_cycles = kernel._dau_cycles

    def spy(full_tile, *args):
        ranks.append(full_tile.ndim)
        return dau_cycles(full_tile, *args)

    monkeypatch.setattr(kernel, "_dau_cycles", spy)
    group = [NPUConfig("r", pe_array_height=3, pe_array_width=2),
             NPUConfig("r2", pe_array_height=3, pe_array_width=2, registers_per_pe=2),
             NPUConfig("r3", pe_array_height=3, pe_array_width=2,
                       integrated_output_buffer=False, psum_buffer_bytes=4096)]
    for batches in ((1, 3, 1000), (4096, 1, 3)):
        assert_group_equivalent(group, Network("r", (layer, layer)), list(batches),
                                [52.6, 31.8, 52.6])
    assert 2 in ranks


def test_dau_fallback_folds_single_cells_of_a_2d_pass():
    # Cell (0, 1) is the rounding case of
    # test_dau_folds_tile_by_tile_where_the_closed_form_rounds; the others
    # add exactly.  Heights are one column per design.
    full_tile = np.array([[4, 1], [7, 2]])
    rem_tile = np.array([[3, 1000], [5, 0]])
    full_rows = np.array([[1, 2], [3, 0]])
    rem_rows = np.array([[2, 1], [0, 1]])
    height = np.array([[3], [4]])
    dau = kernel._dau_cycles(full_tile, rem_tile, full_rows, rem_rows, height)
    for index in np.ndindex(dau.shape):
        f, r, n, m, h = (int(full_tile[index]), int(rem_tile[index]),
                         int(full_rows[index]), int(rem_rows[index]),
                         int(height[index[0], 0]))
        expected = 0.0
        for term in [f] * n + [f * (m / h)] + [r] * n + [r * (m / h)]:
            expected += term
        assert dau[index].hex() == expected.hex()


# -- packed passes: points of several networks in one pass --------------

def charged_bits(parts):
    """Each point's part of a pass, bit for bit: its block's shape and
    bytes, its totals, and its activity units with their float bits."""
    return [(part.charges.shape, part.charges.tobytes(), part.totals,
             [(unit, value.hex()) for unit, value in part.activity.items()])
            for part in parts]


def assert_packed_equivalent(configs, networks, batches, frequencies):
    """One pass over every point, whatever its network, against each
    network's own pass and each point's solo pass."""
    estimates = [SimpleNamespace(frequency_ghz=frequency) for frequency in frequencies]
    packed = charged_bits(engine.charge_designs(configs, networks, batches, estimates))
    for network in {id(network): network for network in networks}.values():
        own = [index for index, each in enumerate(networks) if each is network]
        alone = charged_bits(engine.charge_designs(
            [configs[i] for i in own], network, [batches[i] for i in own],
            [estimates[i] for i in own]))
        assert [packed[i] for i in own] == alone
        assert [shape for shape, *_ in alone] == [(10, len(network.layers))] * len(own)
    for index, (config, network, batch, estimate) in enumerate(
            zip(configs, networks, batches, estimates)):
        assert packed[index] == charged_bits(
            engine.charge_designs([config], network, [batch], [estimate]))[0]
        run = engine.simulate(config, network, batch, estimate=estimate)
        block = np.array([run.columns[name] for name in run.columns if name != "name"])
        assert packed[index][1] == block.astype(np.int64).tobytes()
        assert packed[index][2] == [sum(row) for row in block.tolist()]
    return packed


def test_a_packed_pass_equals_per_network_and_solo_passes():
    # Depthwise MobileNet (28 layers) shares a pass with AlexNet (8): the
    # shallower network's points are padded with 20 zero-shape layers.
    mobilenet, alexnet = api.workload("mobilenet"), api.workload("alexnet")
    designs = [supernpu(), baseline(), buffer_opt(), resource_opt()]
    configs = designs + designs[::-1] + [designs[0]]
    networks = [mobilenet] * 4 + [alexnet] * 4 + [mobilenet]
    batches = [1, 7, 64, 3, 22, 1, 5, 9, 30]
    assert_packed_equivalent(configs, networks, batches, [52.6] * 5 + [31.8] * 4)


def test_a_packed_pass_that_folds_the_dau_tile_by_tile(monkeypatch):
    # Batch 1000 of this layer rounds the DAU closed form (see
    # test_rounding_layers_match_end_to_end): its cells of the padded pass
    # fold tile by tile, and the padding never does.
    layer = ConvLayer("r", in_channels=7, in_height=40, in_width=25,
                      out_channels=3, kernel_height=1, kernel_width=1)
    rounding = Network("r", (layer, layer))
    folded = []
    dau_cycles = kernel._dau_cycles

    def spy(full_tile, rem_tile, full_rows, rem_rows, height):
        # The cells _dau_cycles folds: where its TwoSum error is not 0.
        first = (full_rows * full_tile).astype(np.float64) + full_tile * (rem_rows / height)
        second = (full_rows * rem_tile).astype(np.float64)
        middle = first + second
        shift = middle - first
        error = (first - (middle - shift)) + (second - shift)
        folded.append(sorted(tuple(map(int, cell)) for cell in zip(*np.nonzero(error))))
        return dau_cycles(full_tile, rem_tile, full_rows, rem_rows, height)

    monkeypatch.setattr(kernel, "_dau_cycles", spy)
    config = NPUConfig("r", pe_array_height=3, pe_array_width=2)
    mobilenet = api.workload("mobilenet")
    assert_packed_equivalent([config, supernpu(), config, baseline()],
                             [rounding, mobilenet, rounding, mobilenet],
                             [1000, 4, 3, 2], [52.6, 52.6, 31.8, 52.6])
    # The packed pass folds point 0's two layers and nothing else.
    assert folded[0] == [(0, 0), (0, 1)]


def test_padded_layers_charge_nothing(supernpu_config):
    alexnet, tiny = api.workload("alexnet"), Network("tiny", api.workload("alexnet").layers[:1])
    table = kernel.StackedTable.of([alexnet.layer_table, tiny.layer_table])
    assert table.reduction.shape == (2, 8)
    assert table.live.tolist() == [[True] * 8, [True] + [False] * 7]
    datapath = build_datapath(supernpu_config)
    memory = memory_model_for(supernpu_config, 52.6)
    block, totals, _ = kernel.charge_network(
        table, [(supernpu_config, 4, memory, datapath)] * 2)
    assert not block[1, :, 1:].any()  # every field of every padded layer is 0
    assert totals[1] == block[1, :, :1].sum(axis=-1).tolist()
    assert kernel.StackedTable.of([tiny.layer_table] * 3) is tiny.layer_table


@given(st.lists(st.tuples(configs(), st.integers(0, 2), st.integers(1, 4096)),
                min_size=2, max_size=6),
       st.lists(networks(), min_size=3, max_size=3),
       st.lists(st.sampled_from([52.6, 31.8, 0.7, 100.0]), min_size=6, max_size=6))
@settings(max_examples=100, deadline=None)
def test_packed_passes_over_random_networks(points, pool, frequencies):
    configs, owners, batches = zip(*points)
    networks = [pool[owner] for owner in owners]
    frequencies = frequencies[:len(points)]
    try:
        engine.charge_designs(list(configs), networks, list(batches),
                              [SimpleNamespace(frequency_ghz=f) for f in frequencies])
    except SimulationError:
        # A pass refuses whole when any point is past the guard, as alone.
        with pytest.raises(SimulationError):
            for config, network, batch, frequency in zip(configs, networks, batches,
                                                         frequencies):
                engine.charge_designs([config], network, [batch],
                                      [SimpleNamespace(frequency_ghz=frequency)])
        return
    assert_packed_equivalent(list(configs), networks, list(batches), frequencies)


# -- the paper's grid: named designs x networks x Table II batches -------

@pytest.mark.parametrize("design", [baseline, buffer_opt, resource_opt, supernpu])
def test_named_designs_over_the_paper_networks(design, rsfq):
    config = design()
    frequency = estimate_npu(config, rsfq).frequency_ghz
    for network in all_workloads():
        assert_equivalent(config, network, paper_batch(config.name, network.name), frequency)


@pytest.mark.parametrize("height", [7, 96, 100, 200])
def test_off_grid_heights_over_the_paper_networks(height):
    config = NPUConfig("odd", pe_array_height=height, pe_array_width=100,
                       registers_per_pe=3, ifmap_division=4)
    for network in all_workloads():
        for batch in (1, 17):
            assert_equivalent(config, network, batch, 52.6)


# -- counters and the single path ----------------------------------------

def test_sim_counters_match_the_reference(obs_enabled, supernpu_config):
    network = all_workloads()[2]
    run = engine.simulate(supernpu_config, network, 30,
                          estimate=SimpleNamespace(frequency_ghz=52.6))
    layers, _ = reference_run(supernpu_config, network, 30, 52.6)
    counters = obs_enabled.metrics().snapshot()["counters"]
    assert counters["sim.layers_simulated"] == len(layers)
    assert counters["sim.dram_traffic_bytes"] == sum(
        layer.dram_traffic_bytes for layer in layers)
    assert counters["sim.cycles"] == run.total_cycles


def test_simulate_never_walks_mapping_tiles(monkeypatch, tiny_network, supernpu_config):
    def forbidden(*args, **kwargs):
        raise AssertionError("simulate() must not take the scalar path")

    monkeypatch.setattr(engine, "simulate_layer", forbidden)
    monkeypatch.setattr(engine, "map_layer", forbidden)
    run = engine.simulate(supernpu_config, tiny_network, 4,
                          estimate=SimpleNamespace(frequency_ghz=52.6))
    assert len(run.layers) == len(tiny_network.layers)


# -- the DAU fold ----------------------------------------------------------

def _compensated_sum(terms):
    """Neumaier summation, the algorithm of builtin sum() on floats since
    Python 3.12."""
    total = compensation = 0.0
    for term in terms:
        partial = total + term
        if abs(total) >= abs(term):
            compensation += (total - partial) + term
        else:
            compensation += (term - partial) + total
        total = partial
    return total + compensation


def test_dau_is_a_left_fold_in_tile_order_at_height_100():
    # Reduction 27 * 9 = 243 rows (two full 100-row tiles and one of 43)
    # and 300 filters over 64 columns x 3 registers (a full and a remainder
    # column class): six tiles of 147 vectors each.
    layer = ConvLayer("odd", in_channels=27, in_height=7, in_width=7,
                      out_channels=300, kernel_height=3, kernel_width=3, padding=1)
    config = NPUConfig("h100", pe_array_height=100, pe_array_width=64,
                       registers_per_pe=3)
    tiles = [(3, 100), (3, 100), (3, 43), (2, 100), (2, 100), (2, 43)]
    assert [(t.regs_used, t.rows_used, t.count)
            for t in map_layer(layer, config).tiles] == [
        (regs, rows, 1) for regs, rows in tiles]
    terms = [147 * regs * (rows / 100) for regs, rows in tiles]
    expected = 0.0
    for term in terms:
        expected += term
    # A compensated sum rounds this case differently.
    assert _compensated_sum(terms) != expected

    activity = ActivityTrace()
    datapath = build_datapath(config)
    engine.simulate_layer(
        layer, config, 3, memory_model_for(config, 52.6), datapath.ifmap_buffer,
        datapath.output_buffer, datapath.psum_buffer, datapath.pe, activity,
        input_resident=False, is_last_layer=True)
    assert activity.effective_cycles["dau"].hex() == expected.hex()
    run = engine.simulate(config, Network("one", (layer,)), 3,
                          estimate=SimpleNamespace(frequency_ghz=52.6))
    assert run.activity.effective_cycles["dau"].hex() == expected.hex()


def test_dau_folds_tile_by_tile_where_the_closed_form_rounds():
    # first = 2 + 1/3 carries bits down to 2**-51; adding 2 * 1000 crosses
    # into [2048, 4096), so the closed-form addition is inexact and the
    # layer is folded tile by tile.
    full_tile, rem_tile = np.array([1]), np.array([1000])
    full_rows, rem_rows, height = np.array([2]), np.array([1]), 3
    first = 2.0 + 1 * (1 / 3)
    assert Fraction(first) + 2000 != Fraction(first + 2000.0)
    expected = 0.0
    for term in (1, 1, 1 * (1 / 3), 1000, 1000, 1000 * (1 / 3)):
        expected += term
    dau = kernel._dau_cycles(full_tile, rem_tile, full_rows, rem_rows, height)
    assert dau.tolist()[0].hex() == expected.hex()


def test_rounding_layers_match_end_to_end():
    # Width 2 x 1 register splits 3 filters into a full and a remainder
    # column tile; 7 rows over height 3 leave a remainder row tile.
    layer = ConvLayer("r", in_channels=7, in_height=40, in_width=25,
                      out_channels=3, kernel_height=1, kernel_width=1)
    config = NPUConfig("r", pe_array_height=3, pe_array_width=2)
    for batch in (1, 3, 1000, 4096):
        assert_equivalent(config, Network("r", (layer, layer)), batch, 52.6)


# -- the output-stationary pass --------------------------------------------

def os_closed_forms(config, network, batch, frequency_ghz):
    """The OS charges of ``kernel.charge_network_os``'s docstring, layer by
    layer in Python ints."""
    memory = memory_model_for(config, frequency_ghz)
    datapath = build_datapath(config)
    height, width = config.pe_array_height, config.pe_array_width
    layers = []
    resident = False
    for index, layer in enumerate(network.layers):
        tiles = (-(-layer.output_pixels * batch // height)
                 * -(-layer.filters_per_group // width) * layer.groups)
        compute = tiles * (layer.reduction_size + datapath.pe.pipeline_stages)
        weight_tile = min(layer.reduction_size, height) * min(layer.filters_per_group, width)
        weight_load = tiles * -(-weight_tile // width)
        ifmap_prep = (tiles - 1) * datapath.rewind_cycles
        output_resident = (index < len(network.layers) - 1
                           and layer.ofmap_bytes * batch <= config.output_buffer_bytes)
        traffic = (tiles * weight_tile + (0 if resident else layer.ifmap_bytes * batch)
                   + (0 if output_resident else layer.ofmap_bytes * batch))
        dram = memory.transfer_cycles(traffic)
        on_chip = compute + tiles * height + weight_load + ifmap_prep
        layers.append(LayerResult(
            layer.name, tiles, weight_load, ifmap_prep, 0, tiles * height, compute,
            traffic, dram, max(on_chip, dram), layer.macs_per_image * batch))
        resident = output_resident
    return tuple(layers)


@given(st.lists(configs(), min_size=1, max_size=4), networks(), st.data())
@settings(max_examples=150, deadline=None)
def test_os_pass_equals_its_closed_forms_alone_and_in_a_group(group, network, data):
    batches = [data.draw(st.integers(1, 4096)) for _ in group]
    frequencies = [data.draw(st.sampled_from([52.6, 31.8, 0.7, 100.0])) for _ in group]
    designs = [(config, batch, memory_model_for(config, frequency), build_datapath(config))
               for config, batch, frequency in zip(group, batches, frequencies)]
    joint = kernel.charge_network_os(network.layer_table, designs)
    for design, config, batch, frequency, columns in zip(
            designs, group, batches, frequencies, joint):
        run = simulate_os(config, network, batch,
                          estimate=SimpleNamespace(frequency_ghz=frequency))
        expected = os_closed_forms(config, network, batch, frequency)
        assert run.layers == expected
        assert tuple(map(LayerResult, network.layer_table.names, *columns)) == expected
        assert all(type(value) is int
                   for layer in run.layers for value in vars(layer).values()
                   if not isinstance(value, str))
        assert run.activity.effective_cycles == {}
        on_chip, traffic = kernel._os_bounds(network.layer_table, batch, config, design[3])
        for layer in run.layers:
            assert (layer.weight_load_cycles + layer.ifmap_prep_cycles + layer.compute_cycles
                    + layer.activation_transfer_cycles) <= on_chip
            assert layer.dram_traffic_bytes <= traffic

    with pytest.raises(SimulationError) as info:
        simulate_os(group[0], network, 2 ** 53,
                    estimate=SimpleNamespace(frequency_ghz=frequencies[0]))
    assert info.value.code == "simulation.charge_overflow"


# -- guards and errors -----------------------------------------------------

def test_largest_batches_stay_inside_the_guard(supernpu_config):
    # Batch 4096 on VGG16 is far from 2**53; 2**40 is not.
    network = all_workloads()[5]
    assert_equivalent(supernpu_config, network, 4096, 52.6)
    with pytest.raises(SimulationError):
        engine.simulate(supernpu_config, network, 2 ** 40,
                        estimate=SimpleNamespace(frequency_ghz=52.6))


def test_huge_layer_raises_at_table_build(supernpu_config):
    layer = fc_layer("giant", 2 ** 27, 2 ** 27)
    with pytest.raises(SimulationError) as info:
        engine.simulate(supernpu_config, Network("giant", (layer,)), 1,
                        estimate=SimpleNamespace(frequency_ghz=52.6))
    assert info.value.code == "simulation.charge_overflow"


def test_bad_batch_is_a_workload_error(supernpu_config, tiny_network):
    with pytest.raises(WorkloadError) as info:
        api.simulate("supernpu", "alexnet", batch=0,
                     timeline=CycleTimeline(52.6))
    assert info.value.code == "workload.invalid_batch"
    for call in (lambda: simulate_os(supernpu_config, tiny_network, batch=0),
                 lambda: trace_layer(tiny_network.layers[0], supernpu_config, batch=0),
                 lambda: engine.simulate(supernpu_config, tiny_network, batch=-1),
                 lambda: engine.simulate(supernpu_config, tiny_network, batch=2.5),
                 lambda: engine.simulate(supernpu_config, tiny_network, batch=True)):
        with pytest.raises(WorkloadError) as info:
            call()
        assert info.value.code == "workload.invalid_batch"
        assert isinstance(info.value, ValueError)
    # Truncating 2.5 to 2 (or True to 1) would misreport the batch and
    # file the run under its own cache key; integers of any kind pass.
    # The runner's task applies the same rule as the timeline path.
    for batch in (0, 2.5, 2.0, True, np.bool_(True)):
        with pytest.raises(WorkloadError) as info:
            api.simulate("supernpu", "mobilenet", batch=batch)
        assert info.value.code == "workload.invalid_batch"
    # check_batch itself, past its exact-int fast path: a bool is an int
    # subclass and numpy's bool is no Integral; numpy integers pass.
    for batch in (True, 2.0, 0, np.bool_(True)):
        with pytest.raises(WorkloadError) as info:
            check_batch(batch)
        assert info.value.code == "workload.invalid_batch"
    check_batch(np.int64(3))
    assert SimTask(supernpu_config, tiny_network, np.int64(2)).key() \
        == SimTask(supernpu_config, tiny_network, 2).key()
    run = api.simulate(supernpu_config, tiny_network, batch=np.int64(2))
    assert run == api.simulate(supernpu_config, tiny_network, batch=2)
    assert engine.simulate(supernpu_config, tiny_network, batch=np.int64(3),
                           estimate=SimpleNamespace(frequency_ghz=52.6)) \
        == engine.simulate(supernpu_config, tiny_network, batch=3,
                           estimate=SimpleNamespace(frequency_ghz=52.6))


# -- the layer table memo ---------------------------------------------------

def test_layer_table_is_kept_once_and_never_pickled(tiny_network):
    network = Network("fresh", tiny_network.layers)
    before = pickle.dumps(network)
    table = network.layer_table
    assert network.layer_table is table
    assert table.names == tuple(layer.name for layer in network.layers)
    assert table.macs.tolist() == [layer.macs_per_image for layer in network.layers]
    assert not table.macs.flags.writeable
    assert pickle.dumps(network) == before
    assert "layer_table" not in copy.copy(network).__dict__
    assert "layer_table" not in pickle.loads(pickle.dumps(network)).__dict__
