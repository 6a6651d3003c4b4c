"""Fig. 22 — weight registers per PE (claims ``fig22.*``)."""

from repro.core.optimizer import register_sweep

REGISTERS = (1, 2, 4, 8, 16, 32)


def test_fig22_registers(benchmark, workloads, rsfq):
    benchmark(register_sweep, workloads, rsfq, (64, 128), REGISTERS)
