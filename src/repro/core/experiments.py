"""One-command reproduction: run every experiment, write every artifact.

``reproduce_all()`` executes the full figure/table pipeline and returns
(or writes, one JSON per experiment) machine-readable results.  Used by
``supernpu reproduce --out results/``, and the measurement path of most
rows of the claims table (:mod:`repro.core.golden`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.device import cells
from repro.device.cells import CellLibrary, Technology, library_for
from repro.errors import ConfigError, ReproError, SimulationError
from repro.timing.clocking import concurrent_flow_cct, counter_flow_cct
from repro.uarch.buffers import ShiftRegisterBuffer
from repro.workloads.models import Network, all_workloads


def _fig05(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.uarch.network import compare_designs

    return {
        str(width): compare_designs(width, bits=8, library=library)
        for width in (4, 16, 64)
    }


def feedback_frequencies(library: CellLibrary) -> Dict[str, Tuple[float, float]]:
    """Full adder and shift register clock (GHz), without and with a loop."""
    and_gate = library[cells.AND]
    dff = library[cells.DFF]
    fa_fast = concurrent_flow_cct(and_gate.setup_ps, and_gate.hold_ps).frequency_ghz
    fa_loop = and_gate.delay_ps + 1.6 + dff.delay_ps + 1.6
    fa_slow = counter_flow_cct(and_gate.setup_ps, and_gate.hold_ps, fa_loop).frequency_ghz
    sr_fast = concurrent_flow_cct(dff.setup_ps, dff.hold_ps).frequency_ghz
    sr_slow = ShiftRegisterBuffer(64, io_width=1).frequency(library).frequency_ghz
    return {"FA": (fa_fast, fa_slow), "SR": (sr_fast, sr_slow)}


def _fig07(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.uarch.mac import Dataflow, MACUnit

    ws = MACUnit(8, 24, Dataflow.WEIGHT_STATIONARY).frequency(library).frequency_ghz
    os = MACUnit(8, 24, Dataflow.OUTPUT_STATIONARY).frequency(library).frequency_ghz
    return {"ws_ghz": ws, "os_ghz": os, **feedback_frequencies(library)}


def _fig08(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.workloads.analysis import duplication_report

    return {
        network.name: duplication_report(network).duplication_ratio
        for network in workloads
    }


def _fig13(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.estimator.validation import validate

    return {
        name: {
            "frequency_error": row.frequency_error,
            "power_error": row.power_error,
            "area_error": row.area_error,
        }
        for name, row in validate(library).items()
    }


def fig15_plan(
    library: Optional[CellLibrary] = None,
    workloads: Optional[List[Network]] = None,
):
    """Fig. 15's grid: the Baseline at batch 1 on every workload."""
    from repro.core.designs import baseline
    from repro.core.plan import (
        ExperimentPlan,
        Grid,
        batch_axis,
        config_axis,
        library_axis,
        workload_axis,
    )

    library = library or library_for(Technology.RSFQ)
    workloads = tuple(workloads if workloads is not None else all_workloads())
    grid = Grid("breakdown", (
        config_axis((baseline(),)),
        workload_axis(workloads),
        batch_axis((1,)),
        library_axis((library,)),
    ))
    return ExperimentPlan(
        "fig15_breakdown", (grid,),
        description="Fig. 15: per-phase cycle breakdown of the Baseline",
    )


def _fig15(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.core.plan import execute

    resultset = execute(fig15_plan(library, workloads))
    return {
        result.run.network: result.run.cycle_breakdown()
        for result in resultset
    }


def roofline_points(library: CellLibrary, workloads: List[Network]) -> list:
    """The batch-1 Baseline's roofline point per workload, with its simulation."""
    from repro.core.designs import baseline
    from repro.core.metrics import roofline_point
    from repro.estimator.arch_level import estimate_npu
    from repro.simulator.engine import simulate

    config = baseline()
    estimate = estimate_npu(config, library)
    points = []
    for network in workloads:
        run = simulate(config, network, batch=1, estimate=estimate)
        points.append(
            roofline_point(
                network, 1, estimate.peak_mac_per_s,
                config.memory_bandwidth_gbps, measured=run,
            )
        )
    return points


def _fig17(library: CellLibrary, workloads: List[Network]) -> object:
    return {
        point.network: {
            "intensity_mac_per_byte": point.intensity_mac_per_byte,
            "attainable_gmacs": point.attainable_mac_per_s / 1e9,
            "measured_gmacs": point.measured_mac_per_s / 1e9,
            "max_utilization": point.max_pe_utilization,
        }
        for point in roofline_points(library, workloads)
    }


def _fig20(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.core.optimizer import buffer_sweep

    return [
        {"label": point.label, **point.metrics}
        for point in buffer_sweep(workloads=workloads, library=library)
    ]


def _fig21(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.core.optimizer import resource_sweep

    return [
        {"label": point.label, "width": point.config.pe_array_width, **point.metrics}
        for point in resource_sweep(workloads=workloads, library=library)
    ]


def _fig22(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.core.optimizer import register_sweep

    return {
        str(width): [point.metrics["speedup"] for point in rows]
        for width, rows in register_sweep(workloads=workloads, library=library).items()
    }


def _fig23(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.core.evaluate import evaluate_suite

    return evaluate_suite(workloads=workloads, library=library).speedups()


def _table1(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.core.designs import all_designs
    from repro.estimator.arch_level import estimate_npu

    return {
        config.name: {
            "frequency_ghz": estimate_npu(config, library).frequency_ghz,
            "peak_tmacs": estimate_npu(config, library).peak_tmacs,
            "area_mm2_28nm": estimate_npu(config, library).area_mm2_scaled(),
        }
        for config in all_designs()
    }


def derived_batches(workloads: List[Network]) -> Dict[str, Dict[str, int]]:
    """The capacity-derived batch of every design (and the TPU) per workload."""
    from repro.baselines.scalesim import TPU_CORE
    from repro.core.batching import derived_batch
    from repro.core.designs import all_designs
    from repro.workloads.analysis import max_batch_for_buffer

    derived = {}
    for config in all_designs():
        sweep_alias = config.with_updates(name=f"{config.name} (derived)")
        derived[config.name] = {
            network.name: derived_batch(sweep_alias, network) for network in workloads
        }
    derived["TPU"] = {
        network.name: min(30, max_batch_for_buffer(network, TPU_CORE.onchip_buffer_bytes))
        for network in workloads
    }
    return derived


def _table2(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.core.batching import PAPER_BATCHES

    return {"paper": PAPER_BATCHES, "derived": derived_batches(workloads)}


def _table3(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.core.evaluate import evaluate_suite, table3_rows

    suite = evaluate_suite(workloads=workloads, library=library)
    rows = table3_rows(suite)
    reference = rows[0]
    return {
        row.label: {
            "chip_power_w": row.chip_power_w,
            "wall_power_w": row.wall_power_w,
            "perf_per_watt_vs_tpu": row.normalized_to(reference),
        }
        for row in rows
    }


EXPERIMENTS: Dict[str, Callable[[CellLibrary, List[Network]], object]] = {
    "fig05_network": _fig05,
    "fig07_feedback": _fig07,
    "fig08_duplication": _fig08,
    "fig13_validation": _fig13,
    "fig15_cycle_breakdown": _fig15,
    "fig17_roofline": _fig17,
    "fig20_buffer_opt": _fig20,
    "fig21_resource_balancing": _fig21,
    "fig22_registers": _fig22,
    "fig23_performance": _fig23,
    "table1_setup": _table1,
    "table2_batches": _table2,
    "table3_power": _table3,
}


def reproduce_all(
    out_dir: Union[str, Path, None] = None,
    workloads: Optional[List[Network]] = None,
    library: Optional[CellLibrary] = None,
    only: Optional[List[str]] = None,
    include_extensions: bool = False,
) -> Dict[str, object]:
    """Run every experiment (or the ``only`` subset); optionally write JSON.

    Returns {experiment id: result object}.  When ``out_dir`` is given,
    each experiment lands in ``<out_dir>/<id>.json``.  Extension studies
    (the ``ext_*`` registry) join the default set when
    ``include_extensions`` is true, and can always be named via ``only``.
    """
    library = library or library_for(Technology.RSFQ)
    workloads = workloads if workloads is not None else all_workloads()
    registry = {**EXPERIMENTS, **EXTENSIONS}
    if only is not None:
        selected = only
    else:
        selected = list(EXPERIMENTS) + (list(EXTENSIONS) if include_extensions else [])
    unknown = set(selected) - set(registry)
    if unknown:
        raise ConfigError(f"unknown experiments {sorted(unknown)}",
                          code="config.unknown_experiment", unknown=sorted(unknown),
                          hint=f"known experiments: {', '.join(sorted(registry))}")
    directory = None if out_dir is None else Path(out_dir)
    if directory is not None and directory.exists() and not directory.is_dir():
        raise ConfigError(f"output path {directory} exists and is not a directory",
                          code="config.invalid_value", path=str(directory),
                          hint="pass a directory to hold one JSON file per experiment")

    results: Dict[str, object] = {}
    for name in selected:
        try:
            results[name] = registry[name](library, workloads)
        except ReproError:
            raise  # already structured; the experiment name is in the trace
        except Exception as error:
            raise SimulationError(
                f"experiment {name!r} failed: {error}",
                code="sim.experiment_failed",
                hint="re-run with --only to isolate; completed experiments "
                     "stay cached",
                experiment=name,
                completed=sorted(results),
            ) from error

    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, result in results.items():
            (directory / f"{name}.json").write_text(
                json.dumps(result, indent=2, sort_keys=True, default=str) + "\n",
                encoding="utf-8",
            )
    return results


def _ext_ablation(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.core.ablate import ablation_study

    return [
        {
            "feature": row.feature,
            "mean_tmacs": row.mean_mac_per_s / 1e12,
            "relative_to_full": row.relative_to_full,
        }
        for row in ablation_study(workloads=workloads, library=library)
    ]


def _ext_scaling(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.core.designs import supernpu
    from repro.core.scaling import scaling_sweep

    return [
        {
            "feature_um": point.feature_size_um,
            "frequency_ghz": point.frequency_ghz,
            "peak_tmacs": point.peak_tmacs,
            "area_mm2": point.area_mm2,
        }
        for point in scaling_sweep(supernpu(), library=library)
    ]


def _ext_bandwidth(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.core.sensitivity import bandwidth_sweep

    return [
        {
            "bandwidth_gbps": point.bandwidth_gbps,
            "sfq_tmacs": point.sfq_tmacs,
            "tpu_tmacs": point.tpu_tmacs,
            "speedup": point.speedup,
        }
        for point in bandwidth_sweep(workloads=workloads, library=library)
    ]


def _ext_cooling(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.core.sensitivity import cooling_sweep

    return [
        {
            "factor": point.factor,
            "rsfq": point.rsfq_perf_per_watt,
            "ersfq": point.ersfq_perf_per_watt,
        }
        for point in cooling_sweep(network=workloads[0])
    ]


def dataflow_runs(library: CellLibrary, workloads: List[Network]):
    """SuperNPU's WS and OS estimates and its (WS, OS) run per workload."""
    from repro.core.batching import batch_for
    from repro.core.designs import supernpu
    from repro.estimator.arch_level import estimate_npu
    from repro.simulator.dataflow_ablation import estimate_os_npu, simulate_os
    from repro.simulator.engine import simulate

    config = supernpu()
    ws_estimate = estimate_npu(config, library)
    os_estimate = estimate_os_npu(config, library)
    rows = {}
    for network in workloads:
        batch = batch_for(config, network)
        ws = simulate(config, network, batch=batch, estimate=ws_estimate)
        os = simulate_os(config, network, batch=batch, estimate=os_estimate)
        rows[network.name] = (ws, os)
    return ws_estimate, os_estimate, rows


def _ext_dataflow(library: CellLibrary, workloads: List[Network]) -> object:
    ws_estimate, os_estimate, rows = dataflow_runs(library, workloads)
    return {
        name: {
            "ws_tmacs": ws.tmacs,
            "os_tmacs": os.tmacs,
            "ws_ghz": ws_estimate.frequency_ghz,
            "os_ghz": os_estimate.frequency_ghz,
        }
        for name, (ws, os) in rows.items()
    }


def _ext_training(library: CellLibrary, workloads: List[Network]) -> object:
    from repro.core.designs import supernpu
    from repro.estimator.arch_level import estimate_npu
    from repro.simulator.training import simulate_training_step

    config = supernpu()
    estimate = estimate_npu(config, library)
    return {
        network.name: {
            "step_over_forward": step.training_vs_inference_ratio,
            "macs_over_forward": step.total_macs / step.forward.total_macs,
        }
        for network in workloads
        for step in [simulate_training_step(config, network, batch=4, estimate=estimate)]
    }


#: Studies beyond the paper's figures; run with ``include_extensions=True``
#: or ``supernpu reproduce --extensions``.
EXTENSIONS: Dict[str, Callable[[CellLibrary, List[Network]], object]] = {
    "ext_feature_ablation": _ext_ablation,
    "ext_process_scaling": _ext_scaling,
    "ext_bandwidth_sensitivity": _ext_bandwidth,
    "ext_cooling_sensitivity": _ext_cooling,
    "ext_dataflow_ablation": _ext_dataflow,
    "ext_training_step": _ext_training,
}
