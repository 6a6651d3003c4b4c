"""Batch-size policy (paper Table II).

The paper sets every workload's batch to "the maximum value which can be
held by a given on-chip buffer capacity without additional off-chip memory
access", conservatively capped (all SuperNPU entries sit at 30).  Table II
itself is part of the published experimental setup, so the evaluation
pipeline uses those values verbatim for the five named design points
(:func:`paper_batch`), while design-space sweeps over *unnamed* configs
(Figs. 20-22) use the capacity-derived rule (:func:`derived_batch`).
"""

from __future__ import annotations

from typing import Dict

from repro.uarch.config import NPUConfig
from repro.workloads.models import Network

#: The paper's conservative global batch cap (Table II's plateau).
BATCH_CAP = 30

#: Table II of the paper, verbatim.
PAPER_BATCHES: Dict[str, Dict[str, int]] = {
    "TPU": {
        "AlexNet": 22, "FasterRCNN": 20, "GoogLeNet": 20,
        "MobileNet": 20, "ResNet50": 20, "VGG16": 3,
    },
    "Baseline": {
        "AlexNet": 1, "FasterRCNN": 1, "GoogLeNet": 1,
        "MobileNet": 1, "ResNet50": 1, "VGG16": 1,
    },
    "Buffer opt.": {
        "AlexNet": 15, "FasterRCNN": 3, "GoogLeNet": 3,
        "MobileNet": 3, "ResNet50": 3, "VGG16": 1,
    },
    "Resource opt.": {
        "AlexNet": 30, "FasterRCNN": 30, "GoogLeNet": 30,
        "MobileNet": 30, "ResNet50": 30, "VGG16": 7,
    },
    "SuperNPU": {
        "AlexNet": 30, "FasterRCNN": 30, "GoogLeNet": 30,
        "MobileNet": 30, "ResNet50": 30, "VGG16": 7,
    },
}


def paper_batch(design_name: str, workload_name: str) -> int:
    """Table II batch size for a named design / workload pair."""
    try:
        return PAPER_BATCHES[design_name][workload_name]
    except KeyError:
        raise KeyError(
            f"no Table II batch for design {design_name!r} / workload "
            f"{workload_name!r}; use derived_batch() for unnamed configs"
        ) from None


def derived_batch(config: NPUConfig, network: Network, cap: int = BATCH_CAP) -> int:
    """Capacity-derived batch for arbitrary (swept) configurations.

    The batch is bounded by three on-chip residency constraints, evaluated
    at the worst layer, then capped:

    * raw ifmap capacity;
    * ifmap channel slots (each shift-register lane holds one channel, so
      an undivided buffer holds at most ``pe_array_height`` channels —
      Fig. 18(c); division multiplies the slots — Fig. 19 (4));
    * output-buffer capacity (shared with in-flight psums when the buffers
      are integrated).
    """
    if cap < 1:
        raise ValueError("batch cap must be positive")
    # Each bound is capacity // per-layer demand; capacities are
    # non-negative, so the worst layer is the one with the largest demand.
    ifmap_bytes, in_channels, ofmap_bytes = network.batch_bounds
    best = cap
    if ifmap_bytes:
        best = min(best, config.ifmap_buffer_bytes // ifmap_bytes)
    channel_slots = config.pe_array_height * config.ifmap_division
    best = min(best, channel_slots // in_channels)
    if ofmap_bytes:
        out_capacity = config.output_buffer_bytes + config.psum_buffer_bytes
        best = min(best, out_capacity // ofmap_bytes)
    return max(1, best)


def batch_for(config: NPUConfig, network: Network) -> int:
    """Paper batch when the design is a named Table II point, else derived."""
    if config.name in PAPER_BATCHES:
        return paper_batch(config.name, network.name)
    return derived_batch(config, network)
