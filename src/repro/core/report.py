"""Structured result export: JSON / CSV records of simulation runs.

Turns estimator and simulator outputs into plain dictionaries (and JSON or
CSV text) so downstream tooling — plotting scripts, regression dashboards,
spreadsheets — can consume the reproduction's numbers without importing
the library.  These are the one record per command that both front ends
print: the CLI's ``--json`` ``data`` and ``supernpu serve``'s wire ``data``.
:data:`VERBS` is the table of the verbs both front ends run: each row's
params, its :mod:`repro.api` call and its record.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core.compare import ComparisonColumn, comparison_records, phase_deltas, winner
from repro.errors import ConfigError
from repro.estimator.arch_level import NPUEstimate
from repro.simulator.attribution import (
    AttributionReport,
    RooflineReport,
    attribution_records,
    roofline_records,
)
from repro.simulator.power import PowerReport, power_report
from repro.simulator.results import SimulationResult
from repro.simulator.utilization import UtilizationReport

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


def comparison_record(columns: List[ComparisonColumn]) -> Dict[str, object]:
    """Side-by-side design scorecards, the mean-throughput winner and,
    for two or more designs, the per-phase cycle movement."""
    record: Dict[str, object] = {"columns": comparison_records(columns),
                                 "winner": winner(columns).config.name}
    if len(columns) > 1:
        record["phase_deltas"] = phase_deltas(columns)
    return record


def bottleneck_record(run: SimulationResult, report: AttributionReport,
                      roof: RooflineReport, utilization: UtilizationReport, *,
                      technology: str, simulated_us: float,
                      top: int) -> Dict[str, object]:
    """Per-layer bound attribution, the ``top`` critical layers, the
    roofline and unit utilization of one run."""
    return {
        "design": run.design,
        "network": run.network,
        "batch": run.batch,
        "technology": technology,
        "frequency_ghz": run.frequency_ghz,
        "total_cycles": run.total_cycles,
        "simulated_us": simulated_us,
        "layers": attribution_records(report),
        "summary": {
            "fractions": report.summary_fractions,
            "bound_counts": report.bound_counts,
        },
        "critical_layers": [
            {
                "layer": layer.name,
                "share": share,
                "bound": layer.bound,
                "dominant_phase": layer.dominant_phase,
            }
            for layer, share in report.critical_layers(top)
        ],
        "roofline": {
            "compute_roof_gops": roof.compute_roof_gops,
            "bandwidth_gbytes_per_s": roof.bandwidth_gbytes_per_s,
            "ridge_macs_per_byte": roof.ridge_macs_per_byte,
            "points": roofline_records(roof),
        },
        "utilization": utilization.to_dict(),
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
    writer = csv.DictWriter(buffer, fieldnames=list(records[0].keys()),
                            lineterminator="\n")
    writer.writeheader()
    for record in records:
        writer.writerow(record)
    return buffer.getvalue()


# -- the verbs both front ends run --------------------------------------

@dataclass(frozen=True)
class Verb:
    """One verb: the params it accepts with their defaults, its
    :mod:`repro.api` call (params -> result) and its record (result ->
    the ``--json`` / wire ``data``).  ``headers`` gives serve's volatile
    response headers for a result."""

    params: Dict[str, Any]
    call: Callable[..., Any]
    record: Callable[[Any], Dict[str, object]]
    headers: Callable[[Any], Dict[str, str]] = lambda result: {}

    def __call__(self, **params: Any) -> Any:
        """Run the call on ``params`` over the defaults."""
        return self.call(**{**self.params, **params})


def _api():
    from repro import api  # the facade imports this package

    return api


def _simulate_with_power(design, workload, batch: Optional[int],
                         technology) -> Tuple[SimulationResult, PowerReport]:
    """Estimate, simulate and power one design point under the ambient runner."""
    api = _api()
    config = api.design(design)
    library = api.library(technology)
    estimate = api.estimate(config, technology=library)
    run = api.simulate(config, workload, batch=batch, technology=library)
    return run, power_report(run, estimate)


def _names(param: str, value: Any) -> Any:
    """A ``designs`` / ``workloads`` list: the verbs take any sequence, so a
    JSON string or object here would silently become one-letter names."""
    if value is not None and not isinstance(value, list):
        raise ConfigError(f"{param} must be a list of names or specs",
                          code="serve.bad_params")
    return value


def _plan_name(value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError("plan/run requires a plan name",
                          code="serve.bad_params",
                          hint="see 'supernpu plan list'")
    return value


#: verb -> its row.  The CLI's ``estimate``, ``simulate``, ``evaluate``
#: and ``plan run`` and serve's endpoints of the same names run these
#: rows, so the daemon accepts exactly the CLI's vocabulary and its wire
#: ``data`` is the CLI's ``--json`` ``data``.
VERBS: Dict[str, Verb] = {
    "estimate": Verb(
        {"design": "SuperNPU", "technology": "rsfq"},
        lambda design, technology: _api().estimate(design, technology=technology),
        estimate_record),
    "simulate": Verb(
        {"design": "SuperNPU", "workload": "mobilenet", "batch": None,
         "technology": "rsfq"},
        _simulate_with_power,
        lambda result: simulation_record(*result)),
    "evaluate": Verb(
        {"designs": None, "workloads": None, "technology": "rsfq"},
        lambda designs, workloads, technology: _api().evaluate(
            _names("designs", designs), _names("workloads", workloads),
            technology=technology),
        evaluation_record),
    "plan/run": Verb(
        {"plan": None},
        lambda plan: _api().run_plan(_plan_name(plan)),
        plan_run_record,
        # A plan's cache temperature varies between otherwise identical
        # requests, so it rides in headers, not in the record.
        headers=lambda resultset: {
            "X-Points-Cached": str(resultset.points_cached),
            "X-Points-Executed": str(resultset.points_executed),
        }),
}
