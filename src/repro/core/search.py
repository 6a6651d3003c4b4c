"""Automated design-space search (Section V, done exhaustively).

The paper reaches SuperNPU through three guided optimization steps; this
module searches the same space mechanically — every combination of PE
array width, buffer division and registers per PE, with buffer capacity
re-balanced from the area freed by narrowing the array — under the
TPU-class area budget, and ranks the candidates by mean throughput.

Finding that the winner is a 64/128-wide, division-64+, multi-register
design *is* the reproduction of the paper's design narrative.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro import obs
from repro.core.designs import buffer_opt
from repro.core.jobs import get_runner
from repro.core.optimizer import balanced_buffer_bytes, resource_config
from repro.core.plan import (
    ExperimentPlan,
    Grid,
    batch_axis,
    config_axis,
    execute,
    library_axis,
    workload_axis,
)
from repro.device.cells import CellLibrary, Technology, library_for
from repro.errors import ConfigError
from repro.uarch.config import MAX_INTEGER_FIELD, NPUConfig
from repro.workloads.models import Network, all_workloads

#: TPU die budget the paper compares against (Table I: "<330" mm2 @28nm).
AREA_BUDGET_MM2 = 330.0

DEFAULT_WIDTHS = (256, 128, 64, 32)
DEFAULT_DIVISIONS = (1, 16, 64, 256)
DEFAULT_REGISTERS = (1, 2, 8, 16)


@dataclass(frozen=True)
class Candidate:
    """One evaluated design point."""

    config: NPUConfig
    mean_mac_per_s: float
    area_mm2_28nm: float
    peak_tmacs: float

    @property
    def mean_tmacs(self) -> float:
        return self.mean_mac_per_s / 1e12

    @property
    def within_budget(self) -> bool:
        return self.area_mm2_28nm <= AREA_BUDGET_MM2


def _check_axes(widths: Sequence[int], divisions: Sequence[int],
                registers: Sequence[int]) -> None:
    """The checks NPUConfig makes of the fields these axes set, made before
    any work: whole numbers of at least 1.  A width also may not exceed the
    Buffer opt. array, whose freed area :func:`resource_config` re-balances.
    """
    widest = buffer_opt().pe_array_width
    for axis, values, most in (("widths", widths, widest),
                               ("divisions", divisions, MAX_INTEGER_FIELD),
                               ("registers", registers, MAX_INTEGER_FIELD)):
        for value in values:
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or not 1 <= value <= most):
                raise ConfigError(
                    f"search {axis} must be whole numbers from 1 to {most}, "
                    f"not {value!r}", code="config.invalid_value", field=axis, value=value)


def _candidate_config(base: NPUConfig, width: int, division: int,
                      registers: int) -> NPUConfig:
    """``base``, the :func:`resource_config` of ``width`` and ``registers``,
    re-divided for the requested ``division``."""
    # resource_config fixes divisions for chunk-length constancy; scale
    # both by the requested degree relative to its 64-chunk reference.
    factor = division // 64
    return base.with_updates(
        name=f"w{width}-d{division}-r{registers}",
        ifmap_division=division if division < 64 else base.ifmap_division * factor,
        output_division=division if division < 64 else base.output_division * factor,
    )


def search_plan(
    widths: Sequence[int] = DEFAULT_WIDTHS,
    divisions: Sequence[int] = DEFAULT_DIVISIONS,
    registers: Sequence[int] = DEFAULT_REGISTERS,
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
) -> ExperimentPlan:
    """The exhaustive width x division x registers candidate grid.

    Raises:
        ConfigError: ``config.invalid_value`` for an axis value no design
            can take (see :func:`_check_axes`).
    """
    _check_axes(widths, divisions, registers)
    library = library or library_for(Technology.RSFQ)
    workloads = workloads if workloads is not None else all_workloads()
    # One buffer capacity per width, one base per width and register count.
    capacity = {width: balanced_buffer_bytes(width, library) for width in widths}
    bases = {(width, regs): resource_config(width, capacity[width], regs, library)
             for width in widths for regs in registers}
    configs = tuple(
        _candidate_config(bases[width, regs], width, division, regs)
        for width in widths
        for division in divisions
        for regs in registers
    )
    grid = Grid("candidates", (
        config_axis(configs),
        workload_axis(tuple(workloads)),
        batch_axis(("derived",)),
        library_axis((library,)),
    ))
    return ExperimentPlan(
        "search", (grid,),
        description="exhaustive design-space search under the TPU area budget",
    )


def search(
    widths: Sequence[int] = DEFAULT_WIDTHS,
    divisions: Sequence[int] = DEFAULT_DIVISIONS,
    registers: Sequence[int] = DEFAULT_REGISTERS,
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
    area_budget_mm2: float = AREA_BUDGET_MM2,
) -> List[Candidate]:
    """Exhaustive sweep; returns in-budget candidates, best first.

    The full candidate x workload grid lowers onto one plan, so the
    search is embarrassingly parallel and every design point is
    individually cacheable.
    """
    if area_budget_mm2 <= 0:
        raise ConfigError("area budget must be positive",
                          code="config.invalid_budget")
    library = library or library_for(Technology.RSFQ)
    workloads = workloads if workloads is not None else all_workloads()

    plan = search_plan(widths, divisions, registers, workloads, library)
    configs = plan.grids[0].axes[0].values
    candidates: List[Candidate] = []
    with obs.trace_span("search", points=len(configs)):
        entries = []
        for config in configs:
            with obs.trace_span("search/candidate", design=config.name):
                entries.append((config, get_runner().estimate(config, library)))
        # A candidate's points are its workloads', in workload order: the
        # builtin sum folds them as a per-candidate selection would.
        throughput = execute(plan).column("mac_per_s", grid="candidates")
        width = len(workloads)
        for done, (config, estimate) in enumerate(entries):
            candidates.append(
                Candidate(
                    config=config,
                    mean_mac_per_s=sum(throughput[done * width:(done + 1) * width])
                    / len(workloads),
                    area_mm2_28nm=estimate.area_mm2_scaled(),
                    peak_tmacs=estimate.peak_tmacs,
                )
            )
            obs.counter("search.candidates_evaluated").inc()
            obs.gauge("search.progress").set((done + 1) / len(configs))
    feasible = [c for c in candidates if c.area_mm2_28nm <= area_budget_mm2]
    feasible.sort(key=lambda c: c.mean_mac_per_s, reverse=True)
    return feasible


def best(candidates: List[Candidate]) -> Candidate:
    if not candidates:
        raise ValueError("no feasible candidates")
    return candidates[0]


def pareto_frontier(candidates: List[Candidate]) -> List[Candidate]:
    """The performance/area Pareto set: candidates no other candidate
    dominates (more throughput *and* less area).

    Returned sorted by area ascending, so the frontier reads as "what the
    next mm^2 buys".
    """
    frontier: List[Candidate] = []
    for candidate in candidates:
        dominated = any(
            other.mean_mac_per_s >= candidate.mean_mac_per_s
            and other.area_mm2_28nm <= candidate.area_mm2_28nm
            and (
                other.mean_mac_per_s > candidate.mean_mac_per_s
                or other.area_mm2_28nm < candidate.area_mm2_28nm
            )
            for other in candidates
        )
        if not dominated:
            frontier.append(candidate)
    frontier.sort(key=lambda c: c.area_mm2_28nm)
    return frontier
