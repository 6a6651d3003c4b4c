"""NPUConfig validation and derived-quantity tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.device.cells import rsfq_library
from repro.errors import ConfigError, ReproError
from repro.estimator.arch_level import estimate_npu
from repro.simulator import simulate
from repro.uarch.config import INTEGER_FIELDS, KIB, MAX_INTEGER_FIELD, MIB, NPUConfig
from repro.workloads.layers import ConvLayer, fc_layer
from repro.workloads.models import Network


def test_default_config_is_valid():
    config = NPUConfig(name="default")
    assert config.num_pes == 65536
    assert config.weights_per_tile == 256


def test_onchip_buffer_total():
    config = NPUConfig(name="x")
    assert config.onchip_buffer_bytes == 24 * MIB + 64 * KIB


def test_peak_performance():
    config = NPUConfig(name="x")
    # 65536 PEs at 52.6 GHz = ~3447 TMAC/s (Table I's peak magnitude).
    assert math.isclose(config.peak_mac_per_s(52.6), 65536 * 52.6e9)


def test_dram_bytes_per_cycle():
    config = NPUConfig(name="x", memory_bandwidth_gbps=300.0)
    # ~5.7 bytes per 52.6 GHz cycle — the starvation number.
    assert math.isclose(config.dram_bytes_per_cycle(52.6), 300 / 52.6)


def test_weights_per_tile_includes_registers():
    config = NPUConfig(
        name="x", pe_array_width=64, registers_per_pe=8,
        psum_buffer_bytes=0, integrated_output_buffer=True,
    )
    assert config.weights_per_tile == 512


def test_with_updates_creates_modified_copy():
    config = NPUConfig(name="x")
    other = config.with_updates(name="y", ifmap_division=64)
    assert other.name == "y"
    assert other.ifmap_division == 64
    assert config.ifmap_division == 1


@pytest.mark.parametrize(
    "changes",
    [
        {"pe_array_width": 0},
        {"pe_array_height": -1},
        {"data_bits": 0},
        {"psum_bits": 4},
        {"ifmap_division": 0},
        {"output_division": 0},
        {"registers_per_pe": 0},
        {"ifmap_buffer_bytes": -1},
    ],
)
def test_invalid_configs_rejected(changes):
    with pytest.raises(ValueError):
        NPUConfig(name="bad", **changes)


def test_integrated_design_must_drop_psum_buffer():
    with pytest.raises(ValueError, match="psum"):
        NPUConfig(name="bad", integrated_output_buffer=True, psum_buffer_bytes=8 * MIB)


def test_every_count_field_is_an_integer_field():
    assert len(INTEGER_FIELDS) == 11
    assert {"pe_array_width", "data_bits", "weight_buffer_bytes", "registers_per_pe"} <= set(
        INTEGER_FIELDS)
    assert "memory_bandwidth_gbps" not in INTEGER_FIELDS


@pytest.mark.parametrize("field", INTEGER_FIELDS)
@pytest.mark.parametrize("value", [True, False, 2.0, 8.5, "4", None])
def test_integer_fields_reject_non_integers(field, value):
    with pytest.raises(ConfigError) as excinfo:
        NPUConfig(name="bad", **{field: value})
    assert excinfo.value.code == "config.invalid_value"
    assert excinfo.value.context["field"] == field


def test_integer_fields_reject_values_beyond_64_bits():
    NPUConfig(name="big", weight_buffer_bytes=MAX_INTEGER_FIELD)
    with pytest.raises(ConfigError) as excinfo:
        NPUConfig(name="bad", weight_buffer_bytes=MAX_INTEGER_FIELD + 1)
    assert excinfo.value.code == "config.invalid_value"


def test_numpy_integers_are_kept_as_ints():
    config = NPUConfig(name="np", pe_array_width=np.int64(64), registers_per_pe=np.int32(2))
    assert type(config.pe_array_width) is int and type(config.registers_per_pe) is int
    assert config == NPUConfig(name="np", pe_array_width=64, registers_per_pe=2)


def test_psum_width_must_hold_the_full_product():
    NPUConfig(name="ok", data_bits=4, psum_bits=8)
    for data_bits, psum_bits in ((8, 15), (1, 24)):
        with pytest.raises(ConfigError, match="psum"):
            NPUConfig(name="bad", data_bits=data_bits, psum_bits=psum_bits)


_FIELD_VALUES = st.one_of(
    st.integers(-3, 40),
    st.integers(-3, 2**20),
    st.sampled_from([True, False, MAX_INTEGER_FIELD, MAX_INTEGER_FIELD + 1]),
    st.integers(2**26, 2**62),  # two of these multiply past 2**53
    st.integers(2**40, 2**1100),  # past a float's range
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.none(),
)


#: Four layers: a plain, a depthwise and a strided convolution, then an FC.
_FUZZ_NETWORK = Network("FuzzNet", (
    ConvLayer("conv1", in_channels=3, in_height=16, in_width=16, out_channels=8,
              kernel_height=3, kernel_width=3, padding=1),
    ConvLayer("dw2", in_channels=8, in_height=16, in_width=16, out_channels=8,
              kernel_height=3, kernel_width=3, padding=1, groups=8),
    ConvLayer("conv3", in_channels=8, in_height=16, in_width=16, out_channels=16,
              kernel_height=3, kernel_width=3, stride=2, padding=1),
    fc_layer("fc", 16 * 8 * 8, 10),
))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(INTEGER_FIELDS + ("integrated_output_buffer",)),
                       _FIELD_VALUES, max_size=5))
@example({"pe_array_width": 2**40, "registers_per_pe": 2**30})
@example({"registers_per_pe": 2**62, "pe_array_width": 4})
@example({"pe_array_height": 2**40, "ifmap_division": 2**30})
def test_any_integer_field_input_estimates_or_raises_a_repro_error(changes):
    try:
        config = NPUConfig(name="fuzz", **changes)
        estimate = estimate_npu(config, rsfq_library())
    except ReproError:
        return
    assert 0 < estimate.frequency_ghz < math.inf
    assert 0 < estimate.area_mm2 < math.inf
    # An accepted config simulates too, or raises a ReproError.  Numpy
    # warns when int64 arithmetic overflows; here that is an error.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            run = simulate(config, _FUZZ_NETWORK, estimate=estimate)
        except ReproError:
            return
    assert run.total_cycles > 0
