"""Fig. 15 — Baseline cycle breakdown per CNN workload (claims ``fig15.*``).

Times the ``fig15_cycle_breakdown`` experiment, which executes
``fig15_plan``: the call the claims measure.
"""

from repro.core.experiments import EXPERIMENTS

run_fig15 = EXPERIMENTS["fig15_cycle_breakdown"]


def test_fig15_cycle_breakdown(benchmark, rsfq, workloads):
    benchmark(run_fig15, rsfq, workloads)
