"""Layer-geometry, volume and field-validation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import ReproError, WorkloadError
from repro.uarch.config import MAX_INTEGER_FIELD
from repro.workloads.layers import ConvLayer, ceil_div, depthwise_layer, fc_layer, pooled
from repro.workloads.models import Network

FIELDS = ("in_channels", "in_height", "in_width", "out_channels",
          "kernel_height", "kernel_width", "stride", "padding", "groups")


def _layer(**overrides):
    params = dict(
        name="l", in_channels=3, in_height=8, in_width=8,
        out_channels=4, kernel_height=3, kernel_width=3, stride=1, padding=1,
    )
    params.update(overrides)
    return ConvLayer(**params)


def test_output_geometry_same_padding():
    layer = _layer()
    assert layer.out_height == 8
    assert layer.out_width == 8
    assert layer.output_pixels == 64


def test_output_geometry_stride():
    layer = _layer(stride=2, padding=1)
    assert layer.out_height == 4


def test_macs_per_image():
    layer = _layer()
    assert layer.macs_per_image == 64 * 4 * (3 * 3 * 3)


def test_reduction_size():
    assert _layer().reduction_size == 27
    assert _layer(groups=3, out_channels=3).reduction_size == 9


def test_weight_and_activation_volumes():
    layer = _layer()
    assert layer.weight_bytes == 4 * 27
    assert layer.ifmap_bytes == 3 * 64
    assert layer.ofmap_bytes == 4 * 64
    assert layer.footprint_bytes(2) == 2 * (192 + 256)


def test_fc_layer_shape():
    fc = fc_layer("fc", 512, 10)
    assert fc.is_fully_connected
    assert fc.output_pixels == 1
    assert fc.macs_per_image == 5120
    assert fc.reduction_size == 512


def test_depthwise_layer_shape():
    dw = depthwise_layer("dw", channels=32, in_size=16)
    assert dw.is_depthwise
    assert dw.groups == 32
    assert dw.reduction_size == 9
    assert dw.filters_per_group == 1
    assert dw.macs_per_image == 32 * 16 * 16 * 9


def test_unique_vs_streamed_pixels():
    layer = _layer(padding=0)
    # 3x3 kernel: every row tile needs E*F pixels, 9 copies per channel.
    assert layer.streamed_ifmap_pixels() == 27 * 36
    assert layer.unique_ifmap_pixels() == 3 * 64
    assert layer.streamed_ifmap_pixels() > 4 * layer.unique_ifmap_pixels()


def test_unique_pixels_respects_stride_clipping():
    layer = _layer(in_height=9, in_width=9, stride=2, padding=0)
    # out = 4, used extent = 3*2+3 = 9 -> all pixels used.
    assert layer.unique_ifmap_pixels() == 3 * 81


def test_pooled_helper():
    assert pooled(224) == 112
    assert pooled(55, kernel=3, stride=2) == 27
    assert pooled(112, kernel=3, stride=2, padding=1) == 56


def test_ceil_div():
    assert ceil_div(7, 3) == 3
    assert ceil_div(6, 3) == 2
    with pytest.raises(ValueError):
        ceil_div(4, 0)


@pytest.mark.parametrize(
    "overrides",
    [
        {"in_channels": 0},
        {"stride": 0},
        {"padding": -1},
        {"groups": 2},  # 3 channels not divisible by 2 groups
        {"kernel_height": 12, "padding": 0},  # kernel does not fit
    ],
)
def test_invalid_layers_rejected(overrides):
    with pytest.raises(ValueError):
        _layer(**overrides)


def test_footprint_requires_positive_batch():
    with pytest.raises(ValueError):
        _layer().footprint_bytes(0)


# -- field validation: NPUConfig's integer-field rule ----------------------

@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("value", ["3", None, True, 3.5, 3.0, float("nan"),
                                   MAX_INTEGER_FIELD + 1])
def test_non_integer_field_is_an_invalid_layer(field, value):
    with pytest.raises(WorkloadError) as excinfo:
        _layer(**{field: value})
    assert excinfo.value.code == "workload.invalid_layer"
    assert excinfo.value.context["field"] == field


def test_fractional_channels_report_the_type_not_the_groups():
    with pytest.raises(WorkloadError, match="must be an integer, not float"):
        _layer(in_channels=3.5)


def test_numpy_integers_are_kept_as_ints():
    layer = _layer(in_channels=np.int64(3), padding=np.int32(1))
    assert type(layer.in_channels) is int and type(layer.padding) is int
    assert layer == _layer()


_FIELD_VALUES = st.one_of(
    st.integers(-2, 12),
    st.integers(-2, 2**12),
    st.sampled_from([True, False, MAX_INTEGER_FIELD, MAX_INTEGER_FIELD + 1]),
    st.integers(2**40, 2**1100),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.none(),
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(FIELDS), _FIELD_VALUES, max_size=4),
       st.sampled_from([1, 3]))
def test_any_field_input_simulates_or_raises_a_repro_error(changes, batch):
    try:
        run = api.simulate("supernpu", Network("fuzz", (_layer(**changes),)),
                           batch=batch)
    except ReproError:
        return
    assert run.total_cycles > 0
    assert 0 < run.latency_s < math.inf
