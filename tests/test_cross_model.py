"""The three models of the hardware checked against each other.

The bit-true, cycle-stepped functional arrays (``repro.functional``), the
gate-level ``gatesim`` netlists and the analytical cycle model
(``repro.simulator.kernel``) describe the same NPU.  Each test here pins
one relation between two of them exactly, with every term by which they
disagree written out, so that a change on either side fails.  The
disagreements are listed in EXPERIMENTS.md ("Summary of known
deviations").

Arrays are at most 8 x 8 and hold one weight per PE (``registers = 1``):
the functional arrays have no register planes.
"""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.designs import all_designs
from repro.functional.inference import FunctionalNPU, TinyQuantCNN, max_pool2d
from repro.functional.os_systolic import OSSystolicArray, conv2d_os
from repro.functional.quantize import calibrate, quantize
from repro.functional.systolic import SystolicArray, conv2d_systolic
from repro.gatesim.circuits import build_adder, build_mac, build_multiplier
from repro.simulator.dataflow_ablation import simulate_os
from repro.simulator.datapath import build_datapath
from repro.simulator.engine import simulate
from repro.simulator.kernel import tile_charges
from repro.uarch.config import NPUConfig
from repro.workloads.layers import ConvLayer
from repro.workloads.models import Network, all_workloads

#: The functional PEs multiply and add in the cycle their operands arrive.
FUNCTIONAL_PE_STAGES = 0


def _config(height: int, width: int) -> NPUConfig:
    return NPUConfig(name="small", pe_array_height=height, pe_array_width=width,
                     integrated_output_buffer=True, psum_buffer_bytes=0)


def _first_complete(run, expected) -> int:
    """The fewest clock steps after which ``run(limit)`` returns
    ``expected``: the cycle on which the last needed result is ready."""
    limit = 0
    while not np.array_equal(run(limit), expected):
        limit += 1
    return limit


def ws_finish_cycle(height: int, width: int, weights: np.ndarray,
                    streams: np.ndarray) -> int:
    """Steps of :meth:`SystolicArray.run_stepped` until the last used
    column's last output has left the bottom edge.

    Every step after ``limit`` hands back a poisoned bottom edge; the
    outputs come out right only if all of them left within ``limit``.
    """
    cols_used = weights.shape[1]
    step = SystolicArray.step

    def run(limit):
        calls = []

        def poisoned(self, left_inputs):
            calls.append(None)
            bottom = step(self, left_inputs)
            return bottom if len(calls) <= limit else np.full_like(bottom, -1)

        array = SystolicArray(height, width)
        array.load_weights(weights)
        with mock.patch.object(SystolicArray, "step", poisoned):
            return array.run_stepped(streams)[:cols_used]

    array = SystolicArray(height, width)
    array.load_weights(weights)
    return _first_complete(run, array.run(streams)[:cols_used])


def os_finish_cycle(height: int, width: int, x_streams: np.ndarray,
                    w_streams: np.ndarray) -> int:
    """Steps of :meth:`OSSystolicArray.run_stepped` until the last operand
    pair has met: later steps are dropped, and with positive operands any
    dropped product changes a result."""
    step = OSSystolicArray.step

    def run(limit):
        calls = []

        def truncated(self, left_inputs, top_inputs):
            calls.append(None)
            if len(calls) <= limit:
                step(self, left_inputs, top_inputs)

        with mock.patch.object(OSSystolicArray, "step", truncated):
            return OSSystolicArray(height, width).run_stepped(x_streams, w_streams)

    return _first_complete(run, OSSystolicArray(height, width).run(x_streams, w_streams))


# -- weight-stationary: one tile ---------------------------------------------

@st.composite
def ws_tiles(draw):
    height = draw(st.integers(1, 8))
    width = draw(st.integers(1, 8))
    rows_used = draw(st.integers(1, height))
    cols_used = draw(st.integers(1, width))
    duration = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = rng.integers(1, 10, size=(rows_used, cols_used))
    streams = rng.integers(1, 10, size=(rows_used, duration))
    return height, width, weights, streams


@given(ws_tiles())
@settings(max_examples=60, deadline=None)
def test_ws_tile_fill_against_run_stepped(tile):
    """The stepped array's last output leaves on cycle
    ``duration + height + cols_used - 1``; the kernel charges
    ``duration + rows_used + cols_used`` (plus the PE pipeline)."""
    height, width, weights, streams = tile
    rows_used, cols_used = weights.shape
    duration = streams.shape[1]
    _, fill = tile_charges(rows_used, cols_used, 1, duration, FUNCTIONAL_PE_STAGES)
    stepped = ws_finish_cycle(height, width, weights, streams)
    # Deviations: psums descend all `height` physical rows, while the
    # kernel charges only the used rows; and the kernel's fill is one
    # cycle longer than the stepped array's.
    assert stepped == fill + (height - rows_used) - 1


def test_ws_remainder_rows_finish_with_the_full_tile():
    """On a 4 x 3 array streaming 5 vectors, a 2-row tile finishes on the
    same cycle (11) as a 4-row tile; the kernel charges them 2 apart."""
    rng = np.random.default_rng(0)
    for rows_used, charged in ((2, 10), (4, 12)):
        weights = rng.integers(1, 10, size=(rows_used, 3))
        streams = rng.integers(1, 10, size=(rows_used, 5))
        assert ws_finish_cycle(4, 3, weights, streams) == 11
        assert tile_charges(rows_used, 3, 1, 5, FUNCTIONAL_PE_STAGES)[1] == charged


# -- weight-stationary: a whole layer -----------------------------------------

@st.composite
def small_layers(draw):
    size = draw(st.integers(1, 5))
    kernel = draw(st.integers(1, min(3, size)))
    return ConvLayer(
        "small", in_channels=draw(st.integers(1, 4)), in_height=size,
        in_width=size, out_channels=draw(st.integers(1, 20)),
        kernel_height=kernel, kernel_width=kernel,
        stride=draw(st.integers(1, 2)), padding=draw(st.integers(0, kernel // 2)),
    )


def _operands(layer: ConvLayer, seed: int):
    rng = np.random.default_rng(seed)
    ifmap = rng.integers(1, 10, size=(layer.in_channels, layer.in_height, layer.in_width))
    weights = rng.integers(1, 10, size=(layer.out_channels, layer.in_channels,
                                        layer.kernel_height, layer.kernel_width))
    return ifmap, weights


@given(small_layers(), st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_ws_layer_tiles_against_conv2d_systolic(layer, height, width, seed):
    """``conv2d_systolic`` loads exactly the kernel's mappings, and the
    kernel's weight-load and compute charges are ``tile_charges`` summed
    over the functional tiles."""
    tiles = []
    load_weights = SystolicArray.load_weights
    run = SystolicArray.run

    def recording_load(self, weights):
        tiles.append(list(weights.shape))
        load_weights(self, weights)

    def recording_run(self, streams):
        tiles[-1].append(streams.shape[1])
        return run(self, streams)

    ifmap, weights = _operands(layer, seed)
    with mock.patch.object(SystolicArray, "load_weights", recording_load), \
            mock.patch.object(SystolicArray, "run", recording_run):
        conv2d_systolic(ifmap, weights, height, width, layer.stride, layer.padding)

    config = _config(height, width)
    pe_stages = build_datapath(config).pe.pipeline_stages
    row = simulate(config, Network("one", (layer,)), batch=1,
                   estimate=SimpleNamespace(frequency_ghz=52.6)).layers[0]
    charges = [tile_charges(rows, cols, 1, duration, pe_stages)
               for rows, cols, duration in tiles]
    assert row.mappings == len(tiles)
    assert all(duration == layer.output_pixels for *_, duration in tiles)
    assert row.weight_load_cycles == sum(load for load, _ in charges)
    assert row.compute_cycles == sum(fill for _, fill in charges)


# -- output-stationary: one tile ----------------------------------------------

@st.composite
def os_tiles(draw):
    height = draw(st.integers(1, 8))
    width = draw(st.integers(1, 8))
    rows_used = draw(st.integers(1, height))
    cols_used = draw(st.integers(1, width))
    depth = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x_streams = rng.integers(1, 10, size=(rows_used, depth))
    w_streams = rng.integers(1, 10, size=(cols_used, depth))
    return height, width, x_streams, w_streams


@given(os_tiles())
@settings(max_examples=60, deadline=None)
def test_os_tile_stream_against_run_stepped(tile):
    """The stepped OS array's last operand pair meets on cycle
    ``depth + rows_used + cols_used - 2``; the OS model charges a tile
    ``reduction + pe_stages`` compute cycles and ``height`` drain cycles."""
    height, width, x_streams, w_streams = tile
    rows_used, depth = x_streams.shape
    cols_used = w_streams.shape[0]
    # One output tile of a layer whose reduction is `depth`.
    layer = ConvLayer("tile", in_channels=depth, in_height=1, in_width=rows_used,
                      out_channels=cols_used, kernel_height=1, kernel_width=1)
    config = _config(height, width)
    pe_stages = build_datapath(config).pe.pipeline_stages
    row = simulate_os(config, Network("one", (layer,)), batch=1,
                      estimate=SimpleNamespace(frequency_ghz=31.8)).layers[0]
    assert row.mappings == 1
    assert row.activation_transfer_cycles == height
    stepped = os_finish_cycle(height, width, x_streams, w_streams)
    # Deviation: the operand skew across the used rows and columns, which
    # the OS model replaces with the PE pipeline fill.
    assert stepped == row.compute_cycles - pe_stages + (rows_used - 1) + (cols_used - 1)


# -- output-stationary: a whole layer -----------------------------------------

@given(small_layers(), st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_os_layer_tiles_and_weight_volume_against_conv2d_os(layer, height, width, seed):
    """``conv2d_os`` runs the OS model's output tiles, each streaming the
    whole reduction; its streamed weight volume differs from the model's
    per-tile ``min(reduction, height) * min(filters, width)`` by the term
    written out below."""
    tiles = []
    run = OSSystolicArray.run

    def recording_run(self, x_streams, w_streams):
        tiles.append((x_streams.shape, w_streams.shape))
        return run(self, x_streams, w_streams)

    ifmap, weights = _operands(layer, seed)
    with mock.patch.object(OSSystolicArray, "run", recording_run):
        conv2d_os(ifmap, weights, height, width, layer.stride, layer.padding)

    config = _config(height, width)
    pe_stages = build_datapath(config).pe.pipeline_stages
    row = simulate_os(config, Network("one", (layer,)), batch=1,
                      estimate=SimpleNamespace(frequency_ghz=31.8)).layers[0]
    reduction = layer.reduction_size
    filters = layer.out_channels
    assert row.mappings == len(tiles)
    assert all(x[1] == w[1] == reduction for x, w in tiles)
    assert row.compute_cycles == len(tiles) * (reduction + pe_stages)

    streamed = sum(w[0] * w[1] for _, w in tiles)  # cols_used * reduction per tile
    # One single-layer run: its input and output both cross DRAM.
    modeled = row.dram_traffic_bytes - layer.ifmap_bytes - layer.ofmap_bytes
    assert modeled == len(tiles) * min(reduction, height) * min(filters, width)
    # Deviation: per tile, the model charges at most `height` reduction
    # rows and a full `width` of filters, where conv2d_os streams the
    # whole reduction for the tile's used columns.
    deviation = sum(w[0] * reduction - min(reduction, height) * min(filters, width)
                    for _, w in tiles)
    assert streamed == modeled + deviation


def test_most_paper_layers_stream_more_than_one_array_height():
    """The OS weight-volume deviation is not a corner case: 132 of the 184
    layers of the six workloads reduce over more than the SuperNPU's 256
    PE rows."""
    layers = [layer for network in all_workloads() for layer in network.layers]
    assert len(layers) == 184
    assert sum(layer.reduction_size > 256 for layer in layers) == 132


# -- gate level against the cycle model's PE depth ---------------------------

def test_gatesim_mac_latency_against_pipeline_stages():
    """``gatesim`` pipelines every gate of a ripple-carry MAC: the 8-bit
    multiplier is 47 levels deep, and the 24-bit accumulate adder's carry
    chain alone is 2 levels per bit plus 1 (49), so a product leaves after
    65 levels.  The cycle model's PE charges the paper's 2 * bits - 1 = 15
    pipeline stages.  The 50-cycle difference is per-mapping fill the
    cycle model does not charge."""
    assert build_multiplier(8).latency == 47
    assert build_adder(24).latency == 49
    for config in all_designs():
        mac = build_mac(config.data_bits, config.psum_bits)
        stages = build_datapath(config).pe.pipeline_stages
        assert mac.latency == 65
        assert stages == 2 * config.data_bits - 1 == 15
        assert mac.latency - stages == 50


# -- integer inference against a numpy reference -----------------------------

def _conv_int(q_input: np.ndarray, q_weights: np.ndarray, stride: int,
              padding: int) -> np.ndarray:
    padded = np.pad(q_input, ((0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, q_weights.shape[2:], axis=(1, 2))[:, ::stride, ::stride]
    return np.einsum("cefrs,kcrs->kef", windows, q_weights)


def _reference_conv(layer, activation):
    params = calibrate(activation)
    q_output = _conv_int(quantize(activation, params), layer.q_weights,
                         layer.stride, layer.padding)
    output = q_output.astype(np.float64) * (params.scale * layer.weight_params.scale)
    return np.maximum(output, 0.0) if layer.relu else output


def _reference_forward(model: TinyQuantCNN, image: np.ndarray) -> np.ndarray:
    x = max_pool2d(_reference_conv(model.conv1, image))
    x = max_pool2d(_reference_conv(model.conv2, x))
    features = x.reshape(-1)
    params = calibrate(features)
    q_output = model.head.q_weights @ quantize(features, params)
    output = q_output.astype(np.float64) * (params.scale * model.head.weight_params.scale)
    return np.maximum(output, 0.0) if model.head.relu else output


def test_quantized_cnn_on_the_systolic_npu_equals_the_integer_reference():
    """Every MAC layer of the tiny CNN, run on the bit-true WS array, is
    exactly the numpy integer convolution of the same quantized operands."""
    npu = FunctionalNPU(array_rows=8, array_cols=4)
    for seed in range(4):
        model = TinyQuantCNN.random(seed=seed)
        image = np.random.default_rng(100 + seed).normal(0, 1, size=(1, 12, 12))
        systolic_out = model.forward_systolic(image, npu)
        assert np.array_equal(systolic_out, _reference_forward(model, image))
        assert systolic_out.shape == (10,)

