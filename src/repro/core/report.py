"""Structured result export: JSON / CSV records of simulation runs.

Turns estimator and simulator outputs into plain dictionaries (and JSON or
CSV text) so downstream tooling — plotting scripts, regression dashboards,
spreadsheets — can consume the reproduction's numbers without importing
the library.  These are the one record per verb that both front ends
print: the CLI's ``--json`` ``data`` and ``supernpu serve``'s wire ``data``.
"""

from __future__ import annotations

import csv
import io
import json
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.estimator.arch_level import NPUEstimate
from repro.simulator.power import PowerReport, power_report
from repro.simulator.results import SimulationResult

if TYPE_CHECKING:
    from repro.core.evaluate import EvaluationSuite
    from repro.core.plan import ResultSet


def estimate_record(estimate: NPUEstimate) -> Dict[str, object]:
    """Flatten an architecture estimate into a JSON-ready dict."""
    return {
        "design": estimate.config.name,
        "technology": estimate.technology,
        "frequency_ghz": estimate.frequency_ghz,
        "cycle_time_ps": estimate.cycle_time_ps,
        "critical_path": estimate.critical_path,
        "peak_tmacs": estimate.peak_tmacs,
        "static_power_w": estimate.static_power_w,
        "area_mm2_native": estimate.area_mm2,
        "area_mm2_28nm": estimate.area_mm2_scaled(),
        "units": {
            name: {
                "jj_count": unit.jj_count,
                "static_power_w": unit.static_power_w,
                "area_mm2": unit.area_mm2,
                "frequency_ghz": unit.frequency_ghz,
            }
            for name, unit in estimate.units.items()
        },
    }


def simulation_record(run: SimulationResult, power: PowerReport | None = None) -> Dict[str, object]:
    """Flatten a simulation result (and optional power report)."""
    breakdown = run.cycle_breakdown()
    record: Dict[str, object] = {
        "design": run.design,
        "network": run.network,
        "batch": run.batch,
        "frequency_ghz": run.frequency_ghz,
        "total_cycles": run.total_cycles,
        "latency_us": run.latency_s * 1e6,
        "tmacs": run.tmacs,
        "images_per_s": run.images_per_s,
        "preparation_share": breakdown["preparation"],
        "computation_share": breakdown["computation"],
        "memory_share": breakdown["memory"],
    }
    if power is not None:
        record["static_power_w"] = power.static_w
        record["dynamic_power_w"] = power.dynamic_w
        record["total_power_w"] = power.total_w
    return record


def simulate_with_power(design, workload, *, batch: Optional[int] = None,
                        technology="rsfq") -> Tuple[SimulationResult, PowerReport]:
    """Estimate, simulate and power one design point under the ambient runner.

    Accepts the spellings :func:`repro.api.simulate` does;
    ``simulation_record(*simulate_with_power(...))`` is the ``simulate``
    record.
    """
    from repro import api  # the facade imports this package

    config = api.design(design)
    library = api.library(technology)
    estimate = api.estimate(config, technology=library)
    run = api.simulate(config, workload, batch=batch, technology=library)
    return run, power_report(run, estimate)


def evaluation_record(suite: "EvaluationSuite") -> Dict[str, object]:
    """The Fig. 23 suite: speedups vs the TPU plus each design's mean rate."""
    return {
        "speedups": suite.speedups(),
        "workloads": list(suite.tpu_runs) + ["Average"],
        "designs": [d.config.name for d in suite.designs],
        "mean_mac_per_s": {d.config.name: d.mean_mac_per_s for d in suite.designs},
    }


def plan_run_record(resultset: "ResultSet") -> Dict[str, object]:
    """An executed plan, without its cache temperature.

    ``points_cached`` / ``points_executed`` and each record's ``cached``
    flag vary between otherwise-identical runs, so they stay out.
    """
    return {
        "plan": resultset.plan.name,
        "plan_hash": resultset.plan_hash,
        "points_total": resultset.points_total,
        "records": [{k: v for k, v in record.items() if k != "cached"}
                    for record in resultset.records()],
    }


def layer_records(run: SimulationResult) -> List[Dict[str, object]]:
    """One record per layer: the per-layer cycle accounting."""
    return [
        {
            "design": run.design,
            "network": run.network,
            "layer": layer.name,
            "mappings": layer.mappings,
            "weight_load_cycles": layer.weight_load_cycles,
            "ifmap_prep_cycles": layer.ifmap_prep_cycles,
            "psum_move_cycles": layer.psum_move_cycles,
            "activation_transfer_cycles": layer.activation_transfer_cycles,
            "compute_cycles": layer.compute_cycles,
            "dram_traffic_bytes": layer.dram_traffic_bytes,
            "total_cycles": layer.total_cycles,
            "macs": layer.macs,
        }
        for layer in run.layers
    ]


def to_json(records: object, indent: int = 2) -> str:
    return json.dumps(records, indent=indent, sort_keys=True)


def to_csv(records: List[Dict[str, object]]) -> str:
    """Render homogeneous records as CSV text (column order preserved)."""
    if not records:
        raise ValueError("no records to render")
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(records[0].keys()))
    writer.writeheader()
    for record in records:
        writer.writerow(record)
    return buffer.getvalue()
