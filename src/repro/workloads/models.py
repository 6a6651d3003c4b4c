"""The six CNN benchmark workloads of the paper (Section V/VI, Table II).

All networks take the paper's "typical DNN input images (224 x 224 x 3)"
(AlexNet uses its canonical 227 x 227 crop).  Only MAC-bearing layers are
modeled (convolutions and fully-connected layers); pooling and activation
run off the MAC array and contribute no systolic work, exactly as in
SCALE-SIM-style simulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.canonical import KeepsCanonicalText
from repro.errors import UnknownWorkloadError, WorkloadError
from repro.workloads.layers import ConvLayer, depthwise_layer, fc_layer, pooled

if TYPE_CHECKING:
    from repro.simulator.kernel import LayerTable


@dataclass(frozen=True)
class Network(KeepsCanonicalText):
    """A named feed-forward network: an ordered list of MAC layers."""

    name: str
    layers: Tuple[ConvLayer, ...]

    _memos = KeepsCanonicalText._memos + ("layer_table",)

    def __post_init__(self) -> None:
        if not self.layers:
            raise WorkloadError(f"network {self.name!r} has no layers",
                                code="workload.empty", network=self.name)

    @property
    def conv_layers(self) -> Tuple[ConvLayer, ...]:
        return tuple(layer for layer in self.layers if not layer.is_fully_connected)

    @property
    def total_macs(self) -> int:
        """MACs per image over all layers."""
        return sum(layer.macs_per_image for layer in self.layers)

    @property
    def total_weight_bytes(self) -> int:
        return sum(layer.weight_bytes for layer in self.layers)

    @cached_property
    def batch_bounds(self) -> Tuple[int, int, int]:
        """Largest ifmap bytes, input channels and ofmap bytes per image over
        the conv layers (all layers when there are none): the worst-layer
        terms :func:`repro.core.batching.derived_batch` sizes batches by.
        Computed once per (immutable) network."""
        layers = self.conv_layers or self.layers
        return (max(layer.ifmap_bytes for layer in layers),
                max(layer.in_channels for layer in layers),
                max(layer.ofmap_bytes for layer in layers))

    @cached_property
    def layer_table(self) -> LayerTable:
        """The int64 table of shape terms the cycle model reads, built once
        per (immutable) network and left out of pickles and copies."""
        from repro.simulator.kernel import LayerTable

        return LayerTable.of(self.layers)

    @property
    def max_layer_footprint_bytes(self) -> int:
        """Largest per-image (ifmap + ofmap) residency over all layers.

        This is the quantity the paper sizes batches with (Section VI-A1:
        AlexNet's largest layer holds 1.05 MB per image, so 22 images fit
        in the TPU's 24 MB buffer).
        """
        return max(layer.footprint_bytes(1) for layer in self.layers)


def _conv(
    name: str,
    cin: int,
    size: int,
    cout: int,
    kernel: int,
    stride: int = 1,
    padding: int | None = None,
) -> ConvLayer:
    if padding is None:
        padding = kernel // 2
    return ConvLayer(
        name=name,
        in_channels=cin,
        in_height=size,
        in_width=size,
        out_channels=cout,
        kernel_height=kernel,
        kernel_width=kernel,
        stride=stride,
        padding=padding,
    )


def alexnet() -> Network:
    """AlexNet (Krizhevsky et al., 2012), 227x227 input, single tower."""
    layers = [
        _conv("conv1", 3, 227, 96, 11, stride=4, padding=0),  # -> 55x55
        _conv("conv2", 96, 27, 256, 5, padding=2),  # after 3x3/2 pool: 27
        _conv("conv3", 256, 13, 384, 3),  # after pool: 13
        _conv("conv4", 384, 13, 384, 3),
        _conv("conv5", 384, 13, 256, 3),
        fc_layer("fc6", 256 * 6 * 6, 4096),
        fc_layer("fc7", 4096, 4096),
        fc_layer("fc8", 4096, 1000),
    ]
    return Network("AlexNet", tuple(layers))


def _vgg16_backbone(size: int = 224) -> List[ConvLayer]:
    plan = [
        (2, 3, 64),
        (2, 64, 128),
        (3, 128, 256),
        (3, 256, 512),
        (3, 512, 512),
    ]
    layers: List[ConvLayer] = []
    current = size
    for block_index, (repeats, cin, cout) in enumerate(plan, start=1):
        for i in range(repeats):
            in_ch = cin if i == 0 else cout
            layers.append(_conv(f"conv{block_index}_{i + 1}", in_ch, current, cout, 3))
        current = pooled(current)
    return layers


def vgg16() -> Network:
    """VGG-16 (Simonyan & Zisserman, 2014), configuration D."""
    layers = _vgg16_backbone()
    layers += [
        fc_layer("fc6", 512 * 7 * 7, 4096),
        fc_layer("fc7", 4096, 4096),
        fc_layer("fc8", 4096, 1000),
    ]
    return Network("VGG16", tuple(layers))


def resnet50() -> Network:
    """ResNet-50 (He et al., 2016), v1 bottleneck residual blocks."""
    layers: List[ConvLayer] = [_conv("conv1", 3, 224, 64, 7, stride=2, padding=3)]
    size = pooled(112, kernel=3, stride=2, padding=1)  # 56 after max pool
    in_ch = 64
    stage_plan = [  # (mid channels, out channels, blocks)
        (64, 256, 3),
        (128, 512, 4),
        (256, 1024, 6),
        (512, 2048, 3),
    ]
    for stage_index, (mid, out, blocks) in enumerate(stage_plan, start=2):
        for block in range(blocks):
            stride = 2 if (block == 0 and stage_index > 2) else 1
            prefix = f"conv{stage_index}_{block + 1}"
            layers.append(_conv(f"{prefix}a", in_ch, size, mid, 1, padding=0))
            layers.append(_conv(f"{prefix}b", mid, size, mid, 3, stride=stride))
            out_size = size // stride
            layers.append(_conv(f"{prefix}c", mid, out_size, out, 1, padding=0))
            if block == 0:
                layers.append(
                    _conv(f"{prefix}_proj", in_ch, size, out, 1, stride=stride, padding=0)
                )
            in_ch = out
            size = out_size
    layers.append(fc_layer("fc", 2048, 1000))
    return Network("ResNet50", tuple(layers))


_INCEPTION_PLAN: List[Tuple[str, int, int, Tuple[int, int], Tuple[int, int], int]] = [
    # name, in_ch, 1x1, (3x3 reduce, 3x3), (5x5 reduce, 5x5), pool proj
    ("3a", 192, 64, (96, 128), (16, 32), 32),
    ("3b", 256, 128, (128, 192), (32, 96), 64),
    ("4a", 480, 192, (96, 208), (16, 48), 64),
    ("4b", 512, 160, (112, 224), (24, 64), 64),
    ("4c", 512, 128, (128, 256), (24, 64), 64),
    ("4d", 512, 112, (144, 288), (32, 64), 64),
    ("4e", 528, 256, (160, 320), (32, 128), 128),
    ("5a", 832, 256, (160, 320), (32, 128), 128),
    ("5b", 832, 384, (192, 384), (48, 128), 128),
]


def googlenet() -> Network:
    """GoogLeNet / Inception-v1 (Szegedy et al., 2014), main branch only."""
    layers: List[ConvLayer] = [
        _conv("conv1", 3, 224, 64, 7, stride=2, padding=3),  # -> 112
        _conv("conv2_reduce", 64, 56, 64, 1, padding=0),  # after pool: 56
        _conv("conv2", 64, 56, 192, 3),
    ]
    sizes = {"3": 28, "4": 14, "5": 7}
    for name, cin, b1, (b2r, b2), (b3r, b3), b4 in _INCEPTION_PLAN:
        size = sizes[name[0]]
        layers += [
            _conv(f"inc{name}_1x1", cin, size, b1, 1, padding=0),
            _conv(f"inc{name}_3x3r", cin, size, b2r, 1, padding=0),
            _conv(f"inc{name}_3x3", b2r, size, b2, 3),
            _conv(f"inc{name}_5x5r", cin, size, b3r, 1, padding=0),
            _conv(f"inc{name}_5x5", b3r, size, b3, 5),
            _conv(f"inc{name}_pool", cin, size, b4, 1, padding=0),
        ]
    layers.append(fc_layer("fc", 1024, 1000))
    return Network("GoogLeNet", tuple(layers))


def mobilenet() -> Network:
    """MobileNet v1 (Howard et al., 2017), width multiplier 1.0."""
    layers: List[ConvLayer] = [_conv("conv1", 3, 224, 32, 3, stride=2)]
    plan = [  # (in channels, out channels, stride, input size)
        (32, 64, 1, 112),
        (64, 128, 2, 112),
        (128, 128, 1, 56),
        (128, 256, 2, 56),
        (256, 256, 1, 28),
        (256, 512, 2, 28),
        (512, 512, 1, 14),
        (512, 512, 1, 14),
        (512, 512, 1, 14),
        (512, 512, 1, 14),
        (512, 512, 1, 14),
        (512, 1024, 2, 14),
        (1024, 1024, 1, 7),
    ]
    for index, (cin, cout, stride, size) in enumerate(plan, start=2):
        layers.append(depthwise_layer(f"dw{index}", cin, size, stride=stride))
        layers.append(_conv(f"pw{index}", cin, size // stride, cout, 1, padding=0))
    layers.append(fc_layer("fc", 1024, 1000))
    return Network("MobileNet", tuple(layers))


def faster_rcnn() -> Network:
    """Faster R-CNN (Ren et al., 2015) with the VGG-16 backbone.

    The backbone runs on the 224 x 224 input (the paper feeds all networks
    the same typical image size); the region-proposal network adds a 3x3
    conv plus the objectness / box 1x1 convs on the conv5 map, and the
    detection head's FC stack runs once per image on the pooled 7x7x512
    feature (a single-RoI approximation of the head, documented in
    DESIGN.md).
    """
    layers = _vgg16_backbone()
    layers += [
        _conv("rpn_conv", 512, 14, 512, 3),
        _conv("rpn_cls", 512, 14, 18, 1, padding=0),
        _conv("rpn_bbox", 512, 14, 36, 1, padding=0),
        fc_layer("head_fc6", 512 * 7 * 7, 4096),
        fc_layer("head_fc7", 4096, 4096),
        fc_layer("head_cls", 4096, 21),
        fc_layer("head_bbox", 4096, 84),
    ]
    return Network("FasterRCNN", tuple(layers))


_BUILDERS: Dict[str, Callable[[], Network]] = {
    "alexnet": alexnet,
    "fasterrcnn": faster_rcnn,
    "googlenet": googlenet,
    "mobilenet": mobilenet,
    "resnet50": resnet50,
    "vgg16": vgg16,
}

#: Canonical workload order used in the paper's figures.
WORKLOAD_NAMES = ("AlexNet", "FasterRCNN", "GoogLeNet", "MobileNet", "ResNet50", "VGG16")


def by_name(name: str) -> Network:
    """Look up a benchmark network case-insensitively.

    Networks are immutable, so every lookup of one benchmark returns the
    same shared instance (built on first use).
    """
    key = name.lower().replace("-", "").replace("_", "")
    if key not in _BUILDERS:
        raise UnknownWorkloadError(
            f"unknown workload {name!r}; known: {sorted(_BUILDERS)}",
            hint="run `supernpu workloads` to list the paper's benchmarks",
            name=name, known=sorted(_BUILDERS),
        )
    return _shared_network(key)


@lru_cache(maxsize=None)
def _shared_network(key: str) -> Network:
    return _BUILDERS[key]()


def all_workloads() -> List[Network]:
    """The six paper workloads, in canonical order."""
    return [by_name(name) for name in WORKLOAD_NAMES]
