"""Base abstractions for SFQ microarchitectural units.

Each unit (PE, MAC, network, DAU, buffers) is described the way the paper's
microarchitecture-level estimator consumes it (Fig. 10): a *gate-count
histogram* (how many of each library cell the unit instantiates) and a set
of *intra-unit gate pairs* (the adjacent connections that bound the clock
frequency).  Everything else — frequency, power, area — is derived by the
estimator from a :class:`~repro.device.cells.CellLibrary`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.device import cells as cell_names
from repro.device.cells import (
    CLOCK_SELF_CONTAINED_CELLS,
    UNCLOCKED_CELLS,
    CellLibrary,
)
from repro.timing.frequency import FrequencyReport, GatePair, unit_frequency


class GateCounts:
    """A histogram of library cell instances, with arithmetic helpers."""

    def __init__(self, counts: Mapping[str, float] | None = None) -> None:
        self._counts: Counter = Counter()
        if counts:
            for name, count in counts.items():
                if count < 0:
                    raise ValueError(f"negative gate count for {name!r}")
                if count:
                    self._counts[name] += count

    def add(self, name: str, count: float = 1) -> "GateCounts":
        if count < 0:
            raise ValueError(f"negative gate count for {name!r}")
        self._counts[name] += count
        return self

    def merge(self, other: "GateCounts", times: float = 1) -> "GateCounts":
        for name, count in other.items():
            self._counts[name] += count * times
        return self

    def scaled(self, factor: float) -> "GateCounts":
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return GateCounts({name: count * factor for name, count in self.items()})

    def items(self) -> Iterable[Tuple[str, float]]:
        return self._counts.items()

    def as_dict(self) -> Dict[str, float]:
        return dict(self._counts)

    def total(self) -> float:
        return sum(self._counts.values())

    def __getitem__(self, name: str) -> float:
        return self._counts.get(name, 0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GateCounts):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counts.items()))
        return f"GateCounts({inner})"


class Unit:
    """Base class for microarchitectural units.

    Subclasses implement :meth:`gate_counts` and :meth:`gate_pairs`; the
    shared derived metrics below implement the microarchitecture-level
    estimation layer of the paper (Section IV-A2).
    """

    #: Human-readable unit kind, overridden by subclasses.
    kind: str = "unit"

    def gate_counts(self) -> GateCounts:
        raise NotImplementedError

    def gate_pairs(self) -> List[GatePair]:
        raise NotImplementedError

    def signature(self) -> tuple:
        """The unit's class name and constructor values, as a hashable tuple.

        Two units with equal signatures have equal estimates under one
        cell library, so the estimator memoizes unit estimates on it.  It
        holds values only: object identity is never part of it.
        """
        raise NotImplementedError

    # -- Derived metrics ---------------------------------------------------

    def full_gate_counts(self) -> GateCounts:
        """Gate counts including the clock-distribution tree.

        Every clocked SFQ gate must receive its own clock pulse, so the
        clock network needs one splitter per clocked cell (Section II-A).
        Cells in :data:`CLOCK_SELF_CONTAINED_CELLS` already embed their
        clock coupling and are exempt.
        """
        counts = GateCounts()
        counts.merge(self.gate_counts())
        clocked = sum(
            count
            for name, count in counts.items()
            if name not in UNCLOCKED_CELLS and name not in CLOCK_SELF_CONTAINED_CELLS
        )
        if clocked:
            counts.add(cell_names.SPLITTER, clocked)
        return counts

    def frequency(self, library: CellLibrary) -> FrequencyReport:
        """The unit's maximum clock frequency (minimum over gate pairs)."""
        return unit_frequency(self.gate_pairs(), library)

    def static_power_w(self, library: CellLibrary) -> float:
        """DC bias dissipation in watts (zero under ERSFQ)."""
        return library.static_power_w(self.full_gate_counts().as_dict())

    def area_mm2(self, library: CellLibrary) -> float:
        """Layout area on the library's process in mm^2."""
        return library.total_area_um2(self.full_gate_counts().as_dict()) * 1e-6

    def jj_count(self, library: CellLibrary) -> float:
        return library.total_jj_count(self.full_gate_counts().as_dict())

    def access_energy_j(self, library: CellLibrary) -> float:
        """Energy of one fully-active clock cycle of the unit (joules).

        The cycle-level simulator multiplies this by per-unit activity
        factors and active-cycle counts to obtain dynamic power.
        """
        return library.access_energy_j(self.full_gate_counts().as_dict())
