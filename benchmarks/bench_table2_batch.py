"""Table II — capacity-derived batch sizes (claims ``table2.*``)."""

from repro.core.experiments import derived_batches as run_table2


def test_table2_batches(benchmark, workloads):
    benchmark(run_table2, workloads)
