"""Fig. 20 — performance and area of the buffer optimizations (``fig20.*``)."""

from repro.core.optimizer import buffer_sweep

DIVISIONS = (2, 4, 16, 64, 256, 1024, 4096)


def test_fig20_buffer_optimization(benchmark, workloads, rsfq):
    benchmark(buffer_sweep, workloads, rsfq, DIVISIONS)


def test_fig20_monotone_before_saturation(benchmark, workloads, rsfq):
    benchmark(buffer_sweep, workloads, rsfq, (2, 4, 16, 64))
