"""CMOS (TPU) baseline model tests."""

import math

import pytest

from repro.baselines.scalesim import CMOSNPUConfig, TPU_CORE, simulate_cmos
from repro.errors import SimulationError
from repro.simulator.kernel import EXACT_LIMIT
from repro.simulator.memory import memory_model_for
from repro.simulator.results import LAYER_FIELDS, ActivityTrace, SimulationResult
from repro.workloads.layers import ConvLayer
from repro.workloads.models import Network, alexnet, all_workloads, mobilenet, resnet50, vgg16


def test_tpu_core_matches_table1():
    assert TPU_CORE.pe_array_width == 256
    assert TPU_CORE.frequency_ghz == 0.7
    assert TPU_CORE.average_power_w == 40.0
    # Peak 45 TMAC/s (Table I).
    assert math.isclose(TPU_CORE.peak_mac_per_s, 45.9e12, rel_tol=0.02)


def test_tpu_high_utilization_on_big_convs():
    """A well-batched dense conv net keeps the TPU array fairly busy."""
    run = simulate_cmos(TPU_CORE, vgg16(), batch=3)
    assert run.mac_per_s / TPU_CORE.peak_mac_per_s > 0.2


def test_tpu_poor_on_depthwise():
    """Depthwise groups serialize on a systolic array."""
    run = simulate_cmos(TPU_CORE, mobilenet(), batch=20)
    assert run.mac_per_s / TPU_CORE.peak_mac_per_s < 0.05


def test_cycle_model_vs_hand_computation():
    """One fold: cycles = 2*rows + cols + vectors - 2 (SCALE-SIM WS)."""
    from repro.workloads.layers import ConvLayer

    layer = ConvLayer("c", 16, 8, 8, 32, 1, 1)  # one fold: 16 rows, 32 cols
    from repro.workloads.models import Network

    run = simulate_cmos(TPU_CORE, Network("one", (layer,)), batch=1)
    expected = (2 * 16 + 32 - 2) + 64
    assert run.layers[0].total_cycles >= expected  # may be DRAM-bound
    assert run.layers[0].weight_load_cycles + run.layers[0].compute_cycles == expected


def test_batching_improves_tpu_throughput():
    one = simulate_cmos(TPU_CORE, alexnet(), batch=1)
    many = simulate_cmos(TPU_CORE, alexnet(), batch=22)
    assert many.mac_per_s > 2 * one.mac_per_s


def test_no_preparation_costs_in_cmos():
    """SRAM is random-access: no shift-register rewinds or psum moves."""
    run = simulate_cmos(TPU_CORE, resnet50(), batch=8)
    assert all(l.ifmap_prep_cycles == 0 for l in run.layers)
    assert all(l.psum_move_cycles == 0 for l in run.layers)


def test_effective_tpu_performance_in_paper_band():
    """TPU effective throughput should land in the tens of TMAC/s."""
    run = simulate_cmos(TPU_CORE, resnet50(), batch=20)
    assert 5e12 < run.mac_per_s < 45.9e12


def test_invalid_configs():
    with pytest.raises(ValueError):
        CMOSNPUConfig(frequency_ghz=0)
    with pytest.raises(ValueError):
        CMOSNPUConfig(pe_array_width=0)
    with pytest.raises(ValueError):
        CMOSNPUConfig(average_power_w=0)
    with pytest.raises(ValueError):
        simulate_cmos(TPU_CORE, alexnet(), batch=0)


# -- the closed form against the fold loop it replaced ---------------------

def fold_loop_cmos(config, network, batch):
    """The reference: every fold of every layer walked in Python ints, as
    ``simulate_cmos`` did before it charged the layers in closed form."""
    memory = memory_model_for(config, config.frequency_ghz)
    height, width = config.pe_array_height, config.pe_array_width
    columns = {name: [] for name in LAYER_FIELDS}
    resident = False
    for index, layer in enumerate(network.layers):
        vectors = layer.output_pixels * batch
        row_sizes = [height] * (layer.reduction_size // height)
        if layer.reduction_size % height:
            row_sizes.append(layer.reduction_size % height)
        col_sizes = [width] * (layer.filters_per_group // width)
        if layer.filters_per_group % width:
            col_sizes.append(layer.filters_per_group % width)
        fill_drain = streaming = 0
        for rows in row_sizes:
            for cols in col_sizes:
                fill_drain += layer.groups * (2 * rows + cols - 2)
                streaming += layer.groups * vectors
        traffic = layer.weight_bytes
        if not resident:
            traffic += layer.ifmap_bytes * batch
        resident = (index < len(network.layers) - 1
                    and layer.ofmap_bytes * batch <= config.onchip_buffer_bytes)
        if not resident:
            traffic += layer.ofmap_bytes * batch
        dram = memory.transfer_cycles(traffic)
        row = (layer.name, len(row_sizes) * len(col_sizes) * layer.groups, fill_drain,
               0, 0, 0, streaming, traffic, dram, max(fill_drain + streaming, dram),
               layer.macs_per_image * batch)
        for name, value in zip(LAYER_FIELDS, row):
            columns[name].append(value)
    return SimulationResult(config.name, network.name, batch, config.frequency_ghz,
                            columns, ActivityTrace())


@pytest.mark.parametrize("config", [
    TPU_CORE, CMOSNPUConfig(name="odd", pe_array_height=100, pe_array_width=37)],
    ids=["tpu", "100x37"])
@pytest.mark.parametrize("network", all_workloads(), ids=lambda network: network.name)
@pytest.mark.parametrize("batch", [1, 3, 8, 30])
def test_closed_form_equals_the_fold_loop(config, network, batch):
    run = simulate_cmos(config, network, batch)
    reference = fold_loop_cmos(config, network, batch)
    assert run == reference
    assert run.layers == reference.layers
    assert all(type(value) is int
               for layer in run.layers for value in vars(layer).values()
               if not isinstance(value, str))
    assert (run.total_cycles, run.total_macs, run.compute_cycles, run.preparation_cycles) == (
        reference.total_cycles, reference.total_macs, reference.compute_cycles,
        reference.preparation_cycles)


def test_a_charge_past_the_exact_limit_raises():
    layer = ConvLayer("c", 16, 8, 8, 32, 1, 1)
    network = Network("one", (layer,))
    # The MACs column reaches the limit first: 2**53 // 8,192 MACs per image.
    batch = EXACT_LIMIT // layer.macs_per_image
    assert simulate_cmos(TPU_CORE, network, batch - 1).total_macs < EXACT_LIMIT
    with pytest.raises(SimulationError) as info:
        simulate_cmos(TPU_CORE, network, batch)
    assert info.value.code == "simulation.charge_overflow"
    assert info.value.context["bound"] == batch * layer.macs_per_image
    with pytest.raises(SimulationError):  # past int64: refused before charging
        simulate_cmos(TPU_CORE, network, 2 ** 62)
