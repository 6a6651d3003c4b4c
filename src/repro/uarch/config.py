"""Architecture-level configuration of an SFQ NPU (paper Table I).

:class:`NPUConfig` is the single description consumed by the estimator (for
frequency / power / area) and by the cycle-level simulator (for
performance).  Named design points — Baseline, Buffer opt., Resource opt.,
SuperNPU — are constructed in :mod:`repro.core.designs`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.canonical import KeepsCanonicalText
from repro.errors import ConfigError

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class NPUConfig(KeepsCanonicalText):
    """Configuration of an SFQ-based weight-stationary systolic NPU.

    Attributes:
        name: Design-point name for reports.
        pe_array_width: Number of PE columns (filters mapped per tile).
        pe_array_height: Number of PE rows (reduction dimension per tile).
        data_bits: Operand width of ifmap/weight data (8-bit inference).
        psum_bits: Partial-sum accumulator width.
        ifmap_buffer_bytes: Capacity of the ifmap buffer.
        output_buffer_bytes: Capacity of the output-side buffer.  When
            ``integrated_output_buffer`` is ``True`` this is the single
            merged psum+ofmap buffer (SuperNPU, Fig. 19); otherwise it is
            the ofmap buffer and ``psum_buffer_bytes`` the separate psum
            buffer (Baseline, Fig. 3).
        psum_buffer_bytes: Separate psum buffer (0 when integrated).
        weight_buffer_bytes: Weight staging buffer.
        integrated_output_buffer: Whether psum and ofmap buffers are merged.
        ifmap_division: Number of chunks the ifmap buffer is divided into.
        output_division: Number of chunks the output buffer is divided into.
        registers_per_pe: Weight registers per PE (multi-kernel execution).
        memory_bandwidth_gbps: Off-chip DRAM bandwidth in GB/s.
        memory_technology: Registered memory component the off-chip
            traffic is charged to (``repro.components``); the default
            (``"dram-300k"``) inherits ``memory_bandwidth_gbps`` and
            reproduces the paper's fixed-DRAM model bitwise.
        link_technology: Registered link component carrying that traffic
            across temperature stages (default: the paper's implicit
            4.2K-to-300K cable bundle).
    """

    name: str
    pe_array_width: int = 256
    pe_array_height: int = 256
    data_bits: int = 8
    psum_bits: int = 24
    ifmap_buffer_bytes: int = 8 * MIB
    output_buffer_bytes: int = 8 * MIB
    psum_buffer_bytes: int = 8 * MIB
    weight_buffer_bytes: int = 64 * KIB
    integrated_output_buffer: bool = False
    ifmap_division: int = 1
    output_division: int = 1
    registers_per_pe: int = 1
    memory_bandwidth_gbps: float = 300.0
    memory_technology: str = "dram-300k"
    link_technology: str = "4k-300k-link"

    def __post_init__(self) -> None:
        if self.pe_array_width < 1 or self.pe_array_height < 1:
            raise ConfigError("PE array dimensions must be positive",
                              code="config.invalid_value",
                              width=self.pe_array_width, height=self.pe_array_height)
        if self.data_bits < 1 or self.psum_bits < self.data_bits:
            raise ConfigError("psum width must be at least the data width",
                              code="config.invalid_value",
                              data_bits=self.data_bits, psum_bits=self.psum_bits)
        if self.ifmap_division < 1 or self.output_division < 1:
            raise ConfigError("buffer division degree must be >= 1",
                              code="config.invalid_value")
        if self.registers_per_pe < 1:
            raise ConfigError("registers per PE must be >= 1",
                              code="config.invalid_value")
        if self.integrated_output_buffer and self.psum_buffer_bytes:
            raise ConfigError(
                "an integrated design has no separate psum buffer",
                code="config.invalid_value",
                hint="set psum_buffer_bytes=0 when integrated_output_buffer is true",
            )
        for field_name in (
            "ifmap_buffer_bytes",
            "output_buffer_bytes",
            "psum_buffer_bytes",
            "weight_buffer_bytes",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigError(f"{field_name} must be non-negative",
                                  code="config.invalid_value", field=field_name)
        # Technology names must resolve in the component registry; the
        # import is deferred so repro.components stays a leaf package
        # (importing the package, not just base, loads the built-ins).
        from repro.components import component_by_name

        component_by_name(self.memory_technology, kind="memory")
        component_by_name(self.link_technology, kind="link")

    # -- Derived quantities --------------------------------------------------

    @property
    def num_pes(self) -> int:
        return self.pe_array_width * self.pe_array_height

    @property
    def onchip_buffer_bytes(self) -> int:
        """Total on-chip buffering (ifmap + output [+ psum] + weight)."""
        return (
            self.ifmap_buffer_bytes
            + self.output_buffer_bytes
            + self.psum_buffer_bytes
            + self.weight_buffer_bytes
        )

    @property
    def weights_per_tile(self) -> int:
        """Distinct filters resident per weight mapping (width x registers)."""
        return self.pe_array_width * self.registers_per_pe

    def peak_mac_per_s(self, frequency_ghz: float) -> float:
        """Peak throughput in MAC/s at the given clock (Table I row)."""
        return self.num_pes * frequency_ghz * 1e9

    def dram_bytes_per_cycle(self, frequency_ghz: float) -> float:
        """Off-chip bytes deliverable per NPU clock cycle."""
        return self.memory_bandwidth_gbps * 1e9 / (frequency_ghz * 1e9)

    def with_updates(self, **changes) -> "NPUConfig":
        """Return a modified copy (used by the design-space optimizer)."""
        return replace(self, **changes)
