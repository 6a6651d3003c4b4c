"""Fig. 17 — roofline analysis of the single-batch Baseline (claims ``fig17.*``)."""

from repro.core.experiments import roofline_points as run_fig17


def test_fig17_roofline(benchmark, rsfq, workloads):
    benchmark(run_fig17, rsfq, workloads)
