"""Architecture-level estimation layer (paper Section IV-A3).

Integrates the microarchitecture-level unit estimates into a whole-NPU
report: clock frequency (including inter-unit interface pairs), static
power, access energies, and area (including inter-unit wiring), for a given
:class:`~repro.uarch.config.NPUConfig` and cell library.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.components.base import ComponentEstimator

from repro import obs
from repro.device import cells
from repro.device.cells import CellLibrary, library_text
from repro.device.process import CMOS_28NM_UM
from repro.errors import ConfigError
from repro.timing.clocking import ClockingScheme
from repro.timing.frequency import GatePair
from repro.uarch.activation import MaxPoolUnit, ReLUUnit
from repro.uarch.buffers import IntegratedOutputBuffer, ShiftRegisterBuffer
from repro.uarch.config import NPUConfig
from repro.uarch.dau import DataAlignmentUnit
from repro.uarch.network import JTL_SPAN_MM, SystolicChain
from repro.uarch.pe import ProcessingElement
from repro.uarch.unit import GateCounts, Unit
from repro.estimator.uarch_level import UnitEstimate, estimate_unit

#: Center-to-center distance between interfacing units on the floorplan
#: (mm).  Calibrated so the inter-unit pair yields the 52.6 GHz NPU clock
#: of Table I: 6.0 ps setup + 1.3 mm * 10.01 ps/mm = 19.01 ps cycle time.
INTERFACE_DISTANCE_MM = 1.3

#: Passive-transmission-line propagation delay (ps per mm).
PTL_DELAY_PS_PER_MM = 10.01


class ReplicatedUnit(Unit):
    """``count`` copies of a unit treated as one aggregate (e.g. PE array)."""

    def __init__(self, prototype: Unit, count: int, kind: str | None = None) -> None:
        if count < 1:
            raise ValueError("replication count must be positive")
        self.prototype = prototype
        self.count = count
        self.kind = kind or f"{prototype.kind}[x{count}]"

    def signature(self) -> tuple:
        return (type(self).__name__, self.prototype.signature(), self.count, self.kind)

    def gate_counts(self) -> GateCounts:
        return self.prototype.gate_counts().scaled(self.count)

    def gate_pairs(self) -> List[GatePair]:
        return self.prototype.gate_pairs()


def build_units(config: NPUConfig) -> Dict[str, Unit]:
    """Instantiate every microarchitectural unit of ``config`` (Fig. 3/19)."""
    pe = ProcessingElement(
        bits=config.data_bits,
        psum_bits=config.psum_bits,
        registers=config.registers_per_pe,
    )
    units: Dict[str, Unit] = {
        "pe_array": ReplicatedUnit(pe, config.num_pes, kind="pe-array"),
        "network": SystolicChain(
            config.pe_array_width + config.pe_array_height, config.data_bits
        ),
        "dau": DataAlignmentUnit(
            rows=config.pe_array_height,
            bits=config.data_bits,
            pe_pipeline_stages=pe.pipeline_stages,
        ),
        "ifmap_buffer": ShiftRegisterBuffer(
            config.ifmap_buffer_bytes,
            io_width=config.pe_array_height,
            entry_bits=config.data_bits,
            division=config.ifmap_division,
        ),
        "weight_buffer": ShiftRegisterBuffer(
            config.weight_buffer_bytes,
            io_width=config.pe_array_width,
            entry_bits=config.data_bits,
        ),
        "relu": ReLUUnit(lanes=config.pe_array_width, bits=config.psum_bits),
        "maxpool": MaxPoolUnit(lanes=config.pe_array_width, bits=config.data_bits),
    }
    if config.integrated_output_buffer:
        units["output_buffer"] = IntegratedOutputBuffer(
            config.output_buffer_bytes,
            io_width=config.pe_array_width,
            entry_bits=config.data_bits,
            division=config.output_division,
        )
    else:
        units["output_buffer"] = ShiftRegisterBuffer(
            config.output_buffer_bytes,
            io_width=config.pe_array_width,
            entry_bits=config.data_bits,
            division=config.output_division,
        )
        units["psum_buffer"] = ShiftRegisterBuffer(
            config.psum_buffer_bytes,
            io_width=config.pe_array_width,
            entry_bits=config.data_bits,
            division=config.output_division,
        )
    return units


def interface_gate_pairs(interface_distance_mm: float = INTERFACE_DISTANCE_MM) -> List[GatePair]:
    """Inter-unit connections that participate in the chip clock.

    The interfacing gates of two units cannot be skew-matched across the
    unit boundary, so the PTL flight time appears as residual delta_t
    (Section IV-A3: "we calculate all the inter-unit communication latency
    based on the interfacing gates' timing parameters").
    """
    residual = interface_distance_mm * PTL_DELAY_PS_PER_MM
    return [
        GatePair(
            cells.DFF,
            cells.AND,
            scheme=ClockingScheme.CONCURRENT_FLOW,
            skew_residual_ps=residual,
            label="inter-unit interface (buffer->PE array)",
        )
    ]


def _interface_wiring_counts(config: NPUConfig, interface_distance_mm: float) -> GateCounts:
    """JTL wire cells connecting the units across the floorplan."""
    lanes = 2 * config.pe_array_height + 2 * config.pe_array_width
    jtls_per_lane = math.ceil(interface_distance_mm / JTL_SPAN_MM)
    return GateCounts({cells.JTL: lanes * config.data_bits * jtls_per_lane})


@dataclass
class NPUEstimate:
    """Architecture-level estimation result for one NPU design point."""

    config: NPUConfig
    technology: str
    frequency_ghz: float
    cycle_time_ps: float
    critical_path: str
    units: Dict[str, UnitEstimate] = field(default_factory=dict)
    wiring_area_mm2: float = 0.0
    wiring_static_power_w: float = 0.0

    @property
    def static_power_w(self) -> float:
        return sum(u.static_power_w for u in self.units.values()) + self.wiring_static_power_w

    @property
    def area_mm2(self) -> float:
        """Native layout area on the library process (mm^2)."""
        return sum(u.area_mm2 for u in self.units.values()) + self.wiring_area_mm2

    @property
    def jj_count(self) -> float:
        return sum(u.jj_count for u in self.units.values())

    @property
    def peak_mac_per_s(self) -> float:
        return self.config.peak_mac_per_s(self.frequency_ghz)

    @property
    def peak_tmacs(self) -> float:
        return self.peak_mac_per_s / 1e12

    def area_mm2_scaled(self, target_feature_um: float = CMOS_28NM_UM, process=None) -> float:
        """Area re-scaled to another feature size (Table I's "(28nm)" row)."""
        from repro.device.process import AIST_10UM

        proc = process or AIST_10UM
        return self.area_mm2 * proc.area_scale_factor(target_feature_um)

    def unit_access_energy_j(self, name: str) -> float:
        try:
            return self.units[name].access_energy_j
        except KeyError:
            raise ConfigError(
                f"design {self.config.name!r} has no unit {name!r}",
                code="estimator.unknown_unit",
                hint="known units: " + ", ".join(sorted(self.units)),
                unit=name, design=self.config.name,
            ) from None

    def components(self) -> Dict[str, "ComponentEstimator"]:
        """The design's registered off-chip components, resolved by name.

        Keys are the component kinds (``"memory"``, ``"link"``); values
        come from the ``repro.components`` registry via the config's
        technology fields.  Derived on demand — not part of the
        serialized estimate payload, so cached estimates are unchanged.
        """
        from repro.components import component_by_name

        return {
            "memory": component_by_name(self.config.memory_technology,
                                        kind="memory"),
            "link": component_by_name(self.config.link_technology,
                                      kind="link"),
        }

    def off_chip_access_energy_j(self, num_bytes: float = 1.0) -> float:
        """Energy to move ``num_bytes`` off chip and back once: the mean
        memory read/write energy plus the link transfer energy, from the
        registered components."""
        parts = self.components()
        memory, link = parts["memory"], parts["link"]
        return (memory.action_energy_j("read", num_bytes / 2)
                + memory.action_energy_j("write", num_bytes / 2)
                + link.action_energy_j("transfer", num_bytes))


def chip_clock(units: Dict[str, UnitEstimate], library: CellLibrary,
               interface_distance_mm: float = INTERFACE_DISTANCE_MM,
               cycle_time_ps: float = 0.0, critical: str = "") -> Tuple[float, str]:
    """The chip's cycle time (ps) and critical-path label: the slowest of
    the unit estimates' critical pairs, the interface pairs and the
    constraint ``cycle_time_ps`` / ``critical`` the caller starts from (the
    OS PE's for the dataflow ablation); ties keep the earlier one."""
    for name, unit in units.items():
        if unit.cycle_time_ps is not None and unit.cycle_time_ps > cycle_time_ps:
            cycle_time_ps = unit.cycle_time_ps
            critical = f"{name}: {unit.critical_pair}"
    for pair in interface_gate_pairs(interface_distance_mm):
        constraint = pair.resolve(library)
        if constraint.cycle_time_ps > cycle_time_ps:
            cycle_time_ps = constraint.cycle_time_ps
            critical = pair.label
    return cycle_time_ps, critical


#: Most unit estimates the process keeps; once full, the oldest goes
#: first.  A default-grid search holds 77 distinct units per library.
UNIT_MEMO_SIZE = 2048

#: Process-wide memo of unit estimates, keyed on (unit name, the unit's
#: :meth:`~repro.uarch.unit.Unit.signature`, the library's canonical
#: text).  Estimates are frozen, so callers share them.
_UNIT_MEMO: Dict[Tuple[str, tuple, str], UnitEstimate] = {}
_UNIT_MEMO_LOCK = threading.Lock()


def clear_unit_memo() -> None:
    """Forget every memoized unit estimate (the next estimates run cold)."""
    with _UNIT_MEMO_LOCK:
        _UNIT_MEMO.clear()


def _remember(key: Tuple[str, tuple, str], estimate: UnitEstimate) -> UnitEstimate:
    with _UNIT_MEMO_LOCK:
        if len(_UNIT_MEMO) >= UNIT_MEMO_SIZE:
            del _UNIT_MEMO[next(iter(_UNIT_MEMO))]
        _UNIT_MEMO[key] = estimate
    return estimate


def estimate_npu(
    config: NPUConfig,
    library: CellLibrary,
    interface_distance_mm: float = INTERFACE_DISTANCE_MM,
) -> NPUEstimate:
    """Run the full three-layer estimation for one NPU design point.

    Each distinct unit is estimated once per process and library; the
    returned estimate has its own ``units`` dict over the shared entries.
    """
    with obs.trace_span(
        "estimate", design=config.name, technology=library.technology.value
    ):
        text = library_text(library)
        estimates: Dict[str, UnitEstimate] = {}
        hits = 0
        for name, unit in build_units(config).items():
            key = (name, unit.signature(), text)
            estimate = _UNIT_MEMO.get(key)
            with obs.trace_span("estimate/unit", unit=name,
                                memo="miss" if estimate is None else "hit"):
                if estimate is None:
                    estimate = _remember(key, estimate_unit(unit, library, name))
                else:
                    hits += 1
            estimates[name] = estimate
        obs.counter("estimator.units_estimated").add(len(estimates))
        obs.counter("estimator.unit_memo.hits").add(hits)
        obs.counter("estimator.unit_memo.misses").add(len(estimates) - hits)

        worst_cct, critical = chip_clock(estimates, library, interface_distance_mm)
        wiring = _interface_wiring_counts(config, interface_distance_mm)
        obs.counter("estimator.designs_estimated").inc()
        return NPUEstimate(
            config=config,
            technology=library.technology.value,
            frequency_ghz=1e3 / worst_cct,
            cycle_time_ps=worst_cct,
            critical_path=critical,
            units=estimates,
            wiring_area_mm2=library.total_area_um2(wiring.as_dict()) * 1e-6,
            wiring_static_power_w=library.static_power_w(wiring.as_dict()),
        )
