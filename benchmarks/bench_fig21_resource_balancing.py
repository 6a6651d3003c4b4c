"""Fig. 21 — PE-array / buffer resource balancing (claims ``fig21.*``)."""

from repro.core.optimizer import balanced_buffer_bytes, resource_sweep
from repro.uarch.config import MIB

WIDTHS = (256, 128, 64, 32, 16)


def test_fig21_resource_balancing(benchmark, workloads, rsfq):
    benchmark(resource_sweep, workloads, rsfq, WIDTHS)


def test_fig21_buffer_capacities(benchmark):
    benchmark(
        lambda: {w: balanced_buffer_bytes(w) / MIB for w in WIDTHS}
    )
