"""Fig. 15 — Baseline cycle breakdown per CNN workload (claims ``fig15.*``)."""

from repro.core.designs import baseline
from repro.estimator.arch_level import estimate_npu
from repro.simulator.engine import simulate


def run_fig15(library, workloads):
    config = baseline()
    estimate = estimate_npu(config, library)
    return {
        network.name: simulate(config, network, batch=1, estimate=estimate)
        for network in workloads
    }


def test_fig15_cycle_breakdown(benchmark, rsfq, workloads):
    benchmark(run_fig15, rsfq, workloads)
