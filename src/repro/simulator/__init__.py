"""Cycle-level SFQ-NPU simulator (mapping, engine, memory, power)."""

from repro.simulator.datapath import Datapath, build_datapath
from repro.simulator.mapping import LayerMapping, MappingTile, map_layer, utilization
from repro.simulator.memory import MemoryModel
from repro.simulator.results import ActivityTrace, LayerResult, SimulationResult
from repro.simulator.engine import (
    DesignCharges,
    charge_designs,
    simulate,
    simulate_layer,
)
from repro.simulator.power import DATA_ACTIVITY, PowerReport, power_report
from repro.simulator.dataflow_ablation import estimate_os_npu, simulate_os
from repro.simulator.batch_sweep import BatchPoint, batch_sweep, knee_batch
from repro.simulator.utilization import (
    UtilizationReport,
    compare_utilization,
    utilization_report,
)
from repro.simulator.training import (
    TrainingResult,
    gradient_layer,
    gradient_network,
    simulate_training_step,
)
from repro.simulator.trace import (
    TraceEvent,
    trace_layer,
    trace_summary,
    trace_to_csv,
)

__all__ = [
    "Datapath",
    "build_datapath",
    "LayerMapping",
    "MappingTile",
    "map_layer",
    "utilization",
    "MemoryModel",
    "ActivityTrace",
    "LayerResult",
    "SimulationResult",
    "simulate",
    "charge_designs",
    "DesignCharges",
    "simulate_layer",
    "DATA_ACTIVITY",
    "PowerReport",
    "power_report",
    "estimate_os_npu",
    "simulate_os",
    "BatchPoint",
    "batch_sweep",
    "knee_batch",
    "UtilizationReport",
    "compare_utilization",
    "utilization_report",
    "TrainingResult",
    "gradient_layer",
    "gradient_network",
    "simulate_training_step",
    "TraceEvent",
    "trace_layer",
    "trace_summary",
    "trace_to_csv",
]
