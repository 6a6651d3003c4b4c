"""Throughput-vs-batch analysis.

Section V-A3's insight is that batch size *is* computational intensity for
a weight-stationary NPU; this module produces the full curve — throughput
and latency at every batch — and locates the knee where the design stops
being preparation/memory-bound, which is what Table II's "maximum
resident batch" policy exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.device.cells import CellLibrary
from repro.errors import ConfigError
from repro.estimator.arch_level import NPUEstimate
from repro.simulator.engine import simulate
from repro.uarch.config import NPUConfig
from repro.workloads.models import Network

if TYPE_CHECKING:  # jobs imports the simulator; avoid the import cycle here
    from repro.core.plan import ExperimentPlan


@dataclass(frozen=True)
class BatchPoint:
    """One point of the throughput/latency-vs-batch curve."""

    batch: int
    mac_per_s: float
    latency_s: float

    @property
    def tmacs(self) -> float:
        return self.mac_per_s / 1e12

    @property
    def latency_per_image_s(self) -> float:
        return self.latency_s / self.batch


def batch_plan(
    config: NPUConfig,
    network: Network,
    batches: Sequence[int] = (1, 2, 4, 8, 16, 30),
    library: Optional[CellLibrary] = None,
) -> "ExperimentPlan":
    """The throughput-vs-batch curve as a one-grid plan (batch axis)."""
    from repro.core.plan import (
        ExperimentPlan,
        Grid,
        batch_axis,
        config_axis,
        library_axis,
        workload_axis,
    )

    if not batches:
        raise ConfigError("need at least one batch size",
                          code="config.empty_sweep")
    if any(b < 1 for b in batches):
        raise ConfigError("batch sizes must be positive",
                          code="config.invalid_batch")
    grid = Grid("curve", (
        config_axis((config,)),
        workload_axis((network,)),
        batch_axis(tuple(batches)),
        library_axis((library,)),
    ))
    return ExperimentPlan(
        "batch_knee", (grid,),
        description="throughput/latency vs batch size (knee location)",
    )


def batch_sweep(
    config: NPUConfig,
    network: Network,
    batches: Sequence[int] = (1, 2, 4, 8, 16, 30),
    estimate: Optional[NPUEstimate] = None,
    library: Optional[CellLibrary] = None,
) -> List[BatchPoint]:
    """Simulate ``network`` at each batch size.

    The sweep lowers onto a plan executed by the ambient job
    runner, so the per-batch simulations parallelize and cache.  Passing
    an explicit ``estimate`` bypasses the runner: a hand-built estimate
    is not reconstructible from a cache key, so those runs are simulated
    directly, serially.
    """
    if not batches:
        raise ConfigError("need at least one batch size",
                          code="config.empty_sweep")
    if any(b < 1 for b in batches):
        raise ConfigError("batch sizes must be positive",
                          code="config.invalid_batch")
    if estimate is not None:
        return [
            _point(simulate(config, network, batch=batch, estimate=estimate))
            for batch in batches
        ]
    from repro.core.plan import execute

    resultset = execute(batch_plan(config, network, batches, library))
    return [_point(result.run) for result in resultset]


def _point(run) -> BatchPoint:
    return BatchPoint(batch=run.batch, mac_per_s=run.mac_per_s,
                      latency_s=run.latency_s)


def knee_batch(points: List[BatchPoint], threshold: float = 0.10) -> int:
    """Smallest batch whose next doubling gains under ``threshold``.

    The "knee" of the throughput curve: past it, extra batch buys little
    throughput while still costing per-batch latency.
    """
    if not points:
        raise ValueError("empty sweep")
    if not 0 < threshold < 1:
        raise ConfigError("threshold must lie in (0, 1)",
                          code="config.invalid_threshold")
    ordered = sorted(points, key=lambda p: p.batch)
    for current, following in zip(ordered, ordered[1:]):
        gain = following.mac_per_s / current.mac_per_s - 1.0
        scale = following.batch / current.batch - 1.0
        if scale > 0 and gain / scale < threshold:
            return current.batch
    return ordered[-1].batch
