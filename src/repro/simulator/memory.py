"""Off-chip memory model (Section IV-B: "models the memory stall incurred
by limited memory bandwidth by taking memory bandwidth as its input").

The 4 K environment has no practical JJ-based main memory (Section II-B4),
so the NPU talks to room-temperature CMOS DRAM; the paper abstracts it as a
flat bandwidth (300 GB/s, the TPUv2 HBM figure).  We model a DMA engine
that overlaps transfers with on-chip work: a layer's wall-clock cycles are
``max(on_chip_cycles, traffic / bytes_per_cycle)``.

Which memory/link the bandwidth comes from is a registry choice:
:func:`memory_model_for` resolves a config's ``memory_technology`` /
``link_technology`` fields against ``repro.components`` — the default
technologies inherit ``memory_bandwidth_gbps`` unchanged, reproducing the
paper's fixed-DRAM model bitwise, while e.g. ``cryo-sram-4k`` substitutes
its own sustained bandwidth (capped by the link's, if any).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class MemoryModel:
    """A bandwidth-limited off-chip memory attached to an NPU clock."""

    bandwidth_gbps: float
    frequency_ghz: float

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ConfigError(
                "memory bandwidth must be positive",
                code="config.invalid_value",
                bandwidth_gbps=self.bandwidth_gbps,
                hint="transfer_cycles would divide by a non-positive "
                     "bytes-per-cycle rate",
            )
        if self.frequency_ghz <= 0:
            raise ConfigError(
                "clock frequency must be positive",
                code="config.invalid_value",
                frequency_ghz=self.frequency_ghz,
            )

    @property
    def bytes_per_cycle(self) -> float:
        """DRAM bytes deliverable per NPU clock cycle.

        At 52.6 GHz and 300 GB/s this is only ~5.7 B/cycle — the number
        that makes the SFQ NPU's compute units starve (Fig. 17).
        """
        return self.bandwidth_gbps * 1e9 / (self.frequency_ghz * 1e9)

    def transfer_cycles(self, num_bytes: float) -> int:
        """NPU cycles needed to move ``num_bytes`` at full bandwidth."""
        if num_bytes < 0:
            raise ValueError("byte count must be non-negative")
        return math.ceil(num_bytes / self.bytes_per_cycle)


#: Instance attribute where a config keeps its last :class:`MemoryModel`;
#: listed in the config classes' ``_memos``, so it never rides along in a
#: pickle or a copy.
KEPT_MEMORY_MODEL = "_memory_model"


def memory_model_for(config, frequency_ghz: float) -> MemoryModel:
    """The registry-backed :class:`MemoryModel` of one design point, kept
    on the (immutable) config instance and reused at the same clock.

    Resolves ``config.memory_technology`` / ``config.link_technology``
    (via ``getattr`` with defaults, so CMOS baseline configs without the
    fields work unchanged) and takes the slower of the memory's and the
    link's sustained bandwidth.  Components that declare no bandwidth
    inherit ``config.memory_bandwidth_gbps`` — with default technologies
    the result is exactly ``MemoryModel(config.memory_bandwidth_gbps,
    frequency_ghz)``.
    """
    kept = config.__dict__.get(KEPT_MEMORY_MODEL)
    if kept is not None and kept.frequency_ghz == frequency_ghz:
        return kept
    from repro.components import (
        DEFAULT_LINK_TECHNOLOGY,
        DEFAULT_MEMORY_TECHNOLOGY,
        component_by_name,
    )

    memory = component_by_name(
        getattr(config, "memory_technology", DEFAULT_MEMORY_TECHNOLOGY),
        kind="memory")
    link = component_by_name(
        getattr(config, "link_technology", DEFAULT_LINK_TECHNOLOGY),
        kind="link")
    bandwidth = memory.resolved_bandwidth_gbps(config.memory_bandwidth_gbps)
    if link.bandwidth_gbps is not None:
        bandwidth = min(bandwidth, link.bandwidth_gbps)
    model = config.__dict__[KEPT_MEMORY_MODEL] = MemoryModel(bandwidth, frequency_ghz)
    return model
