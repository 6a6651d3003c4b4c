"""Training-step extension (the paper targets inference "as the first case
study"; this models the obvious next one).

A training step on the weight-stationary array costs three MAC passes plus
a weight write-back:

* **forward** — the existing inference pass;
* **input-gradient** (dX = dY * W^T) — a convolution with the reduction
  over the *filters*: modeled by simulating each layer's transposed
  counterpart (in/out channels swapped, full padding, unit stride — the
  standard dilated-gradient approximation for strided layers);
* **weight-gradient** (dW = X * dY) — the same MAC volume as the forward
  pass with the same tiling, re-streaming activations per filter tile:
  modeled as a second forward-shaped pass, charged as the forward pass;
* **weight update** — every weight streams DRAM -> array-edge adder ->
  DRAM once.

The result reports per-phase cycles so the training/inference cost ratio
(canonically ~3x compute) can be inspected per design point.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.device.cells import CellLibrary
from repro.estimator.arch_level import NPUEstimate, estimate_npu
from repro.simulator.engine import simulate
from repro.simulator.memory import memory_model_for
from repro.simulator.results import SimulationResult
from repro.uarch.config import NPUConfig
from repro.workloads.layers import ConvLayer, check_batch
from repro.workloads.models import Network


def gradient_layer(layer: ConvLayer) -> ConvLayer:
    """The input-gradient counterpart of a convolution layer.

    dX = full-correlation of dY with the flipped kernels: channels and
    filters swap roles, spatial size is the layer's output map, padding is
    "full" (kernel-1).  Strided layers are approximated at unit stride on
    the (smaller) output map — the dilated-input correction is a constant
    factor the cycle model does not need.
    """
    return ConvLayer(
        name=f"{layer.name}_dgrad",
        in_channels=layer.out_channels,
        in_height=layer.out_height,
        in_width=layer.out_width,
        out_channels=layer.in_channels,
        kernel_height=layer.kernel_height,
        kernel_width=layer.kernel_width,
        stride=1,
        padding=max(layer.kernel_height, layer.kernel_width) - 1,
        groups=layer.groups,
    )


def gradient_network(network: Network) -> Network:
    """The backward-data pass as a network (first layer needs no dX)."""
    layers = tuple(gradient_layer(layer) for layer in network.layers[1:])
    if not layers:
        layers = (gradient_layer(network.layers[0]),)
    return Network(f"{network.name}-dgrad", layers)


@dataclass
class TrainingResult:
    """Cycle accounting of one training step (one batch)."""

    design: str
    network: str
    batch: int
    frequency_ghz: float
    forward: SimulationResult
    input_gradient: SimulationResult
    weight_gradient: SimulationResult
    weight_update_cycles: int

    @property
    def total_cycles(self) -> int:
        return (
            self.forward.total_cycles
            + self.input_gradient.total_cycles
            + self.weight_gradient.total_cycles
            + self.weight_update_cycles
        )

    @property
    def total_macs(self) -> int:
        return (
            self.forward.total_macs
            + self.input_gradient.total_macs
            + self.weight_gradient.total_macs
        )

    @property
    def step_latency_s(self) -> float:
        return self.total_cycles / (self.frequency_ghz * 1e9)

    @property
    def mac_per_s(self) -> float:
        if self.step_latency_s == 0:
            return 0.0
        return self.total_macs / self.step_latency_s

    def phase_cycles(self) -> Dict[str, int]:
        return {
            "forward": self.forward.total_cycles,
            "input_gradient": self.input_gradient.total_cycles,
            "weight_gradient": self.weight_gradient.total_cycles,
            "weight_update": self.weight_update_cycles,
        }

    @property
    def training_vs_inference_ratio(self) -> float:
        """Step cycles over forward-only cycles (canonically ~3)."""
        return self.total_cycles / self.forward.total_cycles


def simulate_training_step(
    config: NPUConfig,
    network: Network,
    batch: int = 1,
    estimate: Optional[NPUEstimate] = None,
    library: Optional[CellLibrary] = None,
) -> TrainingResult:
    """Cycle-model one SGD step of ``network`` on ``config``."""
    check_batch(batch)
    if estimate is None:
        if library is None:
            from repro.device.cells import rsfq_library

            library = rsfq_library()
        estimate = estimate_npu(config, library)

    forward = simulate(config, network, batch=batch, estimate=estimate)
    input_gradient = simulate(
        config, gradient_network(network), batch=batch, estimate=estimate
    )
    # Weight gradient: same MAC volume and tiling as the forward pass;
    # modeled as a forward-shaped pass (activations re-stream per tile),
    # so its charges are the forward pass's.
    weight_gradient = replace(copy.deepcopy(forward), network=f"{network.name}-wgrad")

    # Weight update: read + write every weight once through the array edge.
    memory = memory_model_for(config, estimate.frequency_ghz)
    update_bytes = 2 * network.total_weight_bytes
    stream_cycles = network.total_weight_bytes // config.pe_array_width
    weight_update = max(stream_cycles, memory.transfer_cycles(update_bytes))

    return TrainingResult(
        design=config.name,
        network=network.name,
        batch=batch,
        frequency_ghz=estimate.frequency_ghz,
        forward=forward,
        input_gradient=input_gradient,
        weight_gradient=weight_gradient,
        weight_update_cycles=weight_update,
    )
