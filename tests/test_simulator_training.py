"""Training-step extension tests."""

import pytest

from repro import obs
from repro.core.designs import supernpu
from repro.errors import WorkloadError
from repro.simulator.engine import simulate
from repro.simulator.training import (
    gradient_layer,
    gradient_network,
    simulate_training_step,
)
from repro.workloads.layers import ConvLayer
from repro.workloads.models import mobilenet, resnet50


def test_gradient_layer_swaps_channels():
    layer = ConvLayer("c", 64, 28, 28, 128, 3, 3, padding=1)
    grad = gradient_layer(layer)
    assert grad.in_channels == 128
    assert grad.out_channels == 64
    assert grad.kernel_height == 3
    assert grad.padding == 2  # full correlation
    assert grad.in_height == layer.out_height


def test_gradient_layer_macs_match_forward_for_unit_stride():
    """For stride-1 same-padded layers, dX costs the same MACs as forward."""
    layer = ConvLayer("c", 64, 28, 28, 128, 3, 3, padding=1)
    grad = gradient_layer(layer)
    # Full padding grows the gradient map slightly; volumes stay comparable.
    assert grad.macs_per_image == pytest.approx(layer.macs_per_image, rel=0.2)


def test_gradient_network_skips_input_layer():
    net = resnet50()
    grad = gradient_network(net)
    assert len(grad.layers) == len(net.layers) - 1
    assert grad.layers[0].name.endswith("_dgrad")


def test_training_step_phases(rsfq, supernpu_config):
    result = simulate_training_step(supernpu_config, resnet50(), batch=4)
    phases = result.phase_cycles()
    assert set(phases) == {"forward", "input_gradient", "weight_gradient", "weight_update"}
    assert all(v > 0 for v in phases.values())
    assert result.total_cycles == sum(phases.values())


def test_training_costs_about_three_forward_passes():
    """The canonical rule of thumb: one step ~ 3x inference compute."""
    result = simulate_training_step(supernpu(), mobilenet(), batch=8)
    assert 2.0 <= result.training_vs_inference_ratio <= 6.0


def test_training_macs_accounting():
    net = mobilenet()
    result = simulate_training_step(supernpu(), net, batch=2)
    forward_macs = net.total_macs * 2
    assert result.forward.total_macs == forward_macs
    assert result.weight_gradient.total_macs == forward_macs
    assert result.total_macs > 2.5 * forward_macs


def test_training_throughput_positive():
    result = simulate_training_step(supernpu(), mobilenet(), batch=2)
    assert result.mac_per_s > 0
    assert result.step_latency_s > 0


def test_training_batch_validation():
    with pytest.raises(ValueError):
        simulate_training_step(supernpu(), mobilenet(), batch=0)


def test_training_batch_is_a_workload_error():
    with pytest.raises(WorkloadError) as info:
        simulate_training_step(supernpu(), mobilenet(), batch=0)
    assert info.value.code == "workload.invalid_batch"


def test_weight_gradient_is_the_forward_pass_simulated_once():
    """dW is charged as the forward pass: same layers and activity as a
    fresh forward simulation, held in its own objects, and the step
    simulates two networks (forward and dX), not three."""
    config, network = supernpu(), mobilenet()
    obs.enable()
    try:
        result = simulate_training_step(config, network, batch=2)
        runs = obs.metrics().snapshot()["counters"]["sim.runs"]
    finally:
        obs.disable()
        obs.reset()
    assert runs == 2
    forward = simulate(config, network, batch=2)
    weight_gradient = result.weight_gradient
    assert weight_gradient.network == f"{network.name}-wgrad"
    assert (weight_gradient.design, weight_gradient.batch, weight_gradient.frequency_ghz) == (
        forward.design, 2, forward.frequency_ghz)
    assert weight_gradient.layers == forward.layers
    assert [value.hex() for value in weight_gradient.activity.effective_cycles.values()] == [
        value.hex() for value in forward.activity.effective_cycles.values()]
    assert list(weight_gradient.activity.effective_cycles) == list(
        forward.activity.effective_cycles)
    assert weight_gradient.layers is not result.forward.layers
    assert weight_gradient.layers[0] is not result.forward.layers[0]
    assert weight_gradient.activity is not result.forward.activity
