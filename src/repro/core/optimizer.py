"""Design-space exploration reproducing the optimization study (Section V-B).

Three sweeps, one per figure:

* :func:`buffer_sweep` — Fig. 20: psum/ofmap integration followed by
  increasing buffer division; single-batch and max-batch performance plus
  area, normalized to the Baseline.
* :func:`resource_sweep` — Fig. 21: narrowing the PE array and reinvesting
  the area into on-chip buffers; performance and computational intensity.
* :func:`register_sweep` — Fig. 22: weight registers per PE for the
  64- and 128-wide arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.batching import derived_batch
from repro.core.designs import baseline, buffer_opt
from repro.core.jobs import get_runner
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
from repro.uarch.config import MIB, NPUConfig
from repro.uarch.pe import ProcessingElement
from repro.workloads.models import Network, all_workloads

#: Division degrees swept in Fig. 20 (integration alone counts as 2).
FIG20_DIVISIONS = (2, 4, 16, 64, 256, 1024, 4096)

#: PE-array widths swept in Fig. 21.
FIG21_WIDTHS = (256, 128, 64, 32, 16)

#: Register counts swept in Fig. 22.
FIG22_REGISTERS = (1, 2, 4, 8, 16, 32)


@dataclass
class SweepPoint:
    """One configuration of a sweep with its measured metrics."""

    label: str
    config: NPUConfig
    metrics: Dict[str, float]


def _fig20_configs(divisions: "tuple[int, ...]") -> List[NPUConfig]:
    return [
        buffer_opt().with_updates(
            name=f"+Division {division}",
            ifmap_division=division,
            output_division=division,
        )
        for division in divisions
    ]


def buffer_plan(
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
    divisions: "tuple[int, ...]" = FIG20_DIVISIONS,
) -> ExperimentPlan:
    """Fig. 20's grids: Baseline + division points at batch 1 and max batch."""
    library = library or library_for(Technology.RSFQ)
    workloads = tuple(workloads if workloads is not None else all_workloads())
    configs = _fig20_configs(divisions)
    single = Grid("single", (
        config_axis((baseline(),) + tuple(configs)),
        workload_axis(workloads),
        batch_axis((1,)),
        library_axis((library,)),
    ))
    max_batch = Grid("max", (
        config_axis(tuple(configs)),
        workload_axis(workloads),
        batch_axis(("derived",)),
        library_axis((library,)),
    ))
    return ExperimentPlan(
        "fig20_buffers", (single, max_batch),
        description="Fig. 20: buffer integration + division sweep",
    )


def buffer_sweep(
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
    divisions: "tuple[int, ...]" = FIG20_DIVISIONS,
) -> List[SweepPoint]:
    """Fig. 20: buffer integration + division sweep, normalized to Baseline."""
    library = library or library_for(Technology.RSFQ)
    resultset = execute(buffer_plan(workloads, library, divisions))
    base = baseline()
    base_perf = resultset.mean("mac_per_s", grid="single", config=base.name)
    base_area = get_runner().estimate(base, library).area_mm2

    points = [
        SweepPoint(
            "Baseline",
            base,
            {"single_batch": 1.0, "max_batch": 1.0, "area": 1.0},
        )
    ]
    for division, config in zip(divisions, _fig20_configs(divisions)):
        single = resultset.mean("mac_per_s", grid="single", config=config.name)
        max_batch = resultset.mean("mac_per_s", grid="max", config=config.name)
        area = get_runner().estimate(config, library).area_mm2
        label = "+Integration (Division 2)" if division == 2 else f"+Division {division}"
        points.append(
            SweepPoint(
                label,
                config,
                {
                    "single_batch": single / base_perf,
                    "max_batch": max_batch / base_perf,
                    "area": area / base_area,
                },
            )
        )
    return points


def balanced_buffer_bytes(
    width: int,
    library: Optional[CellLibrary] = None,
    reference: Optional[NPUConfig] = None,
) -> int:
    """Buffer capacity affordable when the PE array narrows to ``width``.

    Implements Section V-B2's area re-balancing: the JJs freed by removing
    PE columns (relative to the 256-wide buffer-optimized design) are
    reinvested into shift-register buffer bits at the library's cost per
    stored byte.  Reproduces the Fig. 21 capacities (256 -> 24 MB,
    64 -> ~46 MB, 16 -> ~51 MB).
    """
    library = library or library_for(Technology.RSFQ)
    reference = reference or buffer_opt()
    pe = ProcessingElement(
        bits=reference.data_bits,
        psum_bits=reference.psum_bits,
        registers=reference.registers_per_pe,
    )
    pe_jj = pe.jj_count(library)
    pes_saved = (reference.pe_array_width - width) * reference.pe_array_height
    if pes_saved < 0:
        raise ValueError("width exceeds the reference array width")
    # JJ cost of one buffered byte (storage cells only).
    srcell = library["SRCELL"]
    jj_per_byte = srcell.jj_count * 8
    extra_bytes = int(pes_saved * pe_jj // jj_per_byte)
    return reference.ifmap_buffer_bytes + reference.output_buffer_bytes + extra_bytes


def resource_config(
    width: int,
    buffer_bytes: Optional[int] = None,
    registers: int = 1,
    library: Optional[CellLibrary] = None,
) -> NPUConfig:
    """A Fig. 21/22 design point: ``width``-wide array, balanced buffers."""
    total = buffer_bytes if buffer_bytes is not None else balanced_buffer_bytes(width, library)
    half = total // 2
    # Keep each chunk's length constant (Section V-B2): the output buffer is
    # divided further as the array narrows, and both buffers as they grow.
    reference_half = 12 * MIB
    capacity_scale = max(1, round(half / reference_half))
    ifmap_division = 64 * capacity_scale
    output_division = max(64, 64 * 256 // width) * capacity_scale
    return buffer_opt().with_updates(
        name=f"width{width}-{total // MIB}MB-r{registers}",
        pe_array_width=width,
        ifmap_buffer_bytes=half,
        output_buffer_bytes=total - half,
        ifmap_division=ifmap_division,
        output_division=output_division,
        registers_per_pe=registers,
        weight_buffer_bytes=16 * 1024 * max(1, registers),
    )


def resource_plan(
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
    widths: "tuple[int, ...]" = FIG21_WIDTHS,
) -> ExperimentPlan:
    """Fig. 21's grids: Baseline plus fixed-/added-buffer width ladders."""
    library = library or library_for(Technology.RSFQ)
    workloads = tuple(workloads if workloads is not None else all_workloads())
    fixed = tuple(resource_config(w, buffer_bytes=24 * MIB, library=library)
                  for w in widths)
    added = tuple(resource_config(w, library=library) for w in widths)
    grids = (
        Grid("baseline", (config_axis((baseline(),)), workload_axis(workloads),
                          batch_axis((1,)), library_axis((library,)))),
        Grid("fixed", (config_axis(fixed), workload_axis(workloads),
                       batch_axis(("derived",)), library_axis((library,)))),
        Grid("added", (config_axis(added), workload_axis(workloads),
                       batch_axis(("derived",)), library_axis((library,)))),
    )
    return ExperimentPlan(
        "fig21_resources", grids,
        description="Fig. 21: PE-array width vs reinvested buffer capacity",
    )


def resource_sweep(
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
    widths: "tuple[int, ...]" = FIG21_WIDTHS,
) -> List[SweepPoint]:
    """Fig. 21: PE-array width vs buffer capacity, normalized to Baseline."""
    library = library or library_for(Technology.RSFQ)
    workloads = workloads if workloads is not None else all_workloads()
    resultset = execute(resource_plan(workloads, library, widths))
    base_perf = resultset.mean("mac_per_s", grid="baseline", config=baseline().name)

    points = []
    for width in widths:
        fixed = resource_config(width, buffer_bytes=24 * MIB, library=library)
        added = resource_config(width, library=library)
        perf_fixed = resultset.mean("mac_per_s", grid="fixed", config=fixed.name)
        perf_added = resultset.mean("mac_per_s", grid="added", config=added.name)
        intensity = sum(
            derived_batch(added, network) * _mean_output_pixels(network)
            for network in workloads
        ) / len(workloads)
        points.append(
            SweepPoint(
                f"{width}, {added.onchip_buffer_bytes // MIB} MB",
                added,
                {
                    "max_batch_fixed_buffer": perf_fixed / base_perf,
                    "max_batch_added_buffer": perf_added / base_perf,
                    "intensity": intensity,
                },
            )
        )
    return points


def register_plan(
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
    widths: "tuple[int, ...]" = (64, 128),
    registers: "tuple[int, ...]" = FIG22_REGISTERS,
) -> ExperimentPlan:
    """Fig. 22's grids: Baseline plus every width x register design point."""
    library = library or library_for(Technology.RSFQ)
    workloads = tuple(workloads if workloads is not None else all_workloads())
    configs = tuple(
        resource_config(width, registers=regs, library=library)
        for width in widths
        for regs in registers
    )
    grids = (
        Grid("baseline", (config_axis((baseline(),)), workload_axis(workloads),
                          batch_axis((1,)), library_axis((library,)))),
        Grid("points", (config_axis(configs), workload_axis(workloads),
                        batch_axis(("derived",)), library_axis((library,)))),
    )
    return ExperimentPlan(
        "fig22_registers", grids,
        description="Fig. 22: weight registers per PE, 64/128-wide arrays",
    )


def register_sweep(
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
    widths: "tuple[int, ...]" = (64, 128),
    registers: "tuple[int, ...]" = FIG22_REGISTERS,
) -> Dict[int, List[SweepPoint]]:
    """Fig. 22: registers per PE for each array width, vs Baseline."""
    library = library or library_for(Technology.RSFQ)
    resultset = execute(register_plan(workloads, library, widths, registers))
    base_perf = resultset.mean("mac_per_s", grid="baseline", config=baseline().name)

    result: Dict[int, List[SweepPoint]] = {}
    for width in widths:
        rows = []
        for regs in registers:
            config = resource_config(width, registers=regs, library=library)
            perf = resultset.mean("mac_per_s", grid="points", config=config.name)
            rows.append(
                SweepPoint(
                    f"width {width}, {regs} regs",
                    config,
                    {"speedup": perf / base_perf},
                )
            )
        result[width] = rows
    return result


def _mean_output_pixels(network: Network) -> float:
    """Average output pixels per layer — the per-weight MAC count driving
    the Fig. 21 'computational intensity' series."""
    layers = network.layers
    return sum(layer.output_pixels for layer in layers) / len(layers)
