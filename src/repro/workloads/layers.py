"""DNN layer descriptions consumed by the NPU simulators.

The simulators are shape-driven (like SCALE-SIM): a layer is fully
described by its input feature-map geometry, filter geometry and stride.
Fully-connected layers are expressed as 1x1 convolutions over a 1x1
feature map, and depthwise convolutions as grouped convolutions with one
input channel per group — both map onto the weight-stationary systolic
array the same way the paper's workloads do.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.uarch.config import check_integer_fields

_INTEGER_FIELDS = ("in_channels", "in_height", "in_width", "out_channels",
                   "kernel_height", "kernel_width", "stride", "padding", "groups")


@dataclass(frozen=True)
class ConvLayer:
    """One convolutional (or FC / depthwise) layer.

    Attributes:
        name: Layer name for reports.
        in_channels: Input feature-map channels (C).
        in_height / in_width: Input spatial size (H x W), pre-padding.
        out_channels: Number of filters (K).
        kernel_height / kernel_width: Filter window (R x S).
        stride: Convolution stride (same in both dimensions).
        padding: Zero padding on each border.
        groups: Channel groups; ``groups == in_channels`` is a depthwise
            convolution.
    """

    name: str
    in_channels: int
    in_height: int
    in_width: int
    out_channels: int
    kernel_height: int
    kernel_width: int
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self) -> None:
        check_integer_fields(self, _INTEGER_FIELDS, lambda message, field: WorkloadError(
            f"{message} in layer {self.name!r}", code="workload.invalid_layer",
            layer=self.name, field=field))
        for field_name in _INTEGER_FIELDS:
            lowest, bound = (0, "non-negative") if field_name == "padding" else (1, "positive")
            if getattr(self, field_name) < lowest:
                raise WorkloadError(
                    f"{field_name} must be {bound} in layer {self.name!r}",
                    code="workload.invalid_layer", layer=self.name, field=field_name,
                )
        if self.in_channels % self.groups or self.out_channels % self.groups:
            raise WorkloadError(
                f"channels must divide evenly into groups in layer {self.name!r}",
                code="workload.invalid_layer", layer=self.name, groups=self.groups,
            )
        if self.out_height < 1 or self.out_width < 1:
            raise WorkloadError(
                f"kernel does not fit the input in layer {self.name!r}",
                code="workload.invalid_layer", layer=self.name,
                hint="check kernel size, stride, and padding against the input shape",
            )

    # -- Geometry -------------------------------------------------------------

    @property
    def out_height(self) -> int:
        return (self.in_height + 2 * self.padding - self.kernel_height) // self.stride + 1

    @property
    def out_width(self) -> int:
        return (self.in_width + 2 * self.padding - self.kernel_width) // self.stride + 1

    @property
    def output_pixels(self) -> int:
        """Output spatial positions per image (E x F)."""
        return self.out_height * self.out_width

    @property
    def channels_per_group(self) -> int:
        return self.in_channels // self.groups

    @property
    def filters_per_group(self) -> int:
        return self.out_channels // self.groups

    @property
    def reduction_size(self) -> int:
        """MAC-reduction depth per output value: C/g * R * S.

        This is the dimension mapped onto the PE-array *height* by the
        weight-stationary dataflow.
        """
        return self.channels_per_group * self.kernel_height * self.kernel_width

    @property
    def is_depthwise(self) -> bool:
        return self.groups == self.in_channels and self.groups > 1

    @property
    def is_fully_connected(self) -> bool:
        return (
            self.kernel_height == self.in_height
            and self.kernel_width == self.in_width
            and self.padding == 0
            and self.output_pixels == 1
        )

    # -- Volumes (bytes assume 8-bit data) ------------------------------------

    @property
    def macs_per_image(self) -> int:
        """Multiply-accumulate operations per input image."""
        return self.output_pixels * self.out_channels * self.reduction_size

    @property
    def weight_count(self) -> int:
        return self.out_channels * self.reduction_size

    @property
    def weight_bytes(self) -> int:
        return self.weight_count

    @property
    def ifmap_bytes(self) -> int:
        return self.in_channels * self.in_height * self.in_width

    @property
    def ofmap_bytes(self) -> int:
        return self.out_channels * self.output_pixels

    def footprint_bytes(self, batch: int = 1) -> int:
        """On-chip residency needed to run the layer without re-fetch."""
        check_batch(batch)
        return (self.ifmap_bytes + self.ofmap_bytes) * batch

    def unique_ifmap_pixels(self) -> int:
        """Ifmap pixels actually referenced (zero padding excluded)."""
        used_h = min(self.in_height, (self.out_height - 1) * self.stride + self.kernel_height)
        used_w = min(self.in_width, (self.out_width - 1) * self.stride + self.kernel_width)
        return self.in_channels * used_h * used_w

    def streamed_ifmap_pixels(self) -> int:
        """Ifmap pixels streamed if every PE row held its own copy.

        Each of the ``reduction_size`` weight rows consumes one pixel per
        output position, and the whole set repeats per filter group.  The
        gap between this and :meth:`unique_ifmap_pixels` is the duplication
        the DAU removes (Fig. 8).
        """
        return self.groups * self.reduction_size * self.output_pixels


def check_batch(batch: int) -> None:
    """Reject anything but a Python / numpy integer of at least one image
    (never a ``bool`` or a float)."""
    if type(batch) is int and batch >= 1:  # the common case, without the ABC check
        return
    if not (isinstance(batch, numbers.Integral) and not isinstance(batch, bool)
            and batch >= 1):
        raise WorkloadError("batch must be a positive integer",
                            code="workload.invalid_batch", batch=batch)


def fc_layer(name: str, in_features: int, out_features: int) -> ConvLayer:
    """A fully-connected layer as a 1x1 convolution over a 1x1 map."""
    return ConvLayer(
        name=name,
        in_channels=in_features,
        in_height=1,
        in_width=1,
        out_channels=out_features,
        kernel_height=1,
        kernel_width=1,
    )


def depthwise_layer(
    name: str,
    channels: int,
    in_size: int,
    kernel: int = 3,
    stride: int = 1,
    padding: int = 1,
) -> ConvLayer:
    """A depthwise 2D convolution (one filter per input channel)."""
    return ConvLayer(
        name=name,
        in_channels=channels,
        in_height=in_size,
        in_width=in_size,
        out_channels=channels,
        kernel_height=kernel,
        kernel_width=kernel,
        stride=stride,
        padding=padding,
        groups=channels,
    )


def pooled(size: int, kernel: int = 2, stride: int | None = None, padding: int = 0) -> int:
    """Output size of a pooling layer (pooling itself runs off-array)."""
    stride = stride or kernel
    return (size + 2 * padding - kernel) // stride + 1


def ceil_div(a: int, b: int) -> int:
    if b <= 0:
        raise WorkloadError("divisor must be positive",
                            code="workload.invalid_value", divisor=b)
    return math.ceil(a / b)
