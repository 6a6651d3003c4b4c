"""Table I — evaluation setup: frequency, peak throughput, area (``table1.*``)."""

from repro.core.designs import all_designs
from repro.estimator.arch_level import estimate_npu


def run_table1(library):
    return {config.name: estimate_npu(config, library) for config in all_designs()}


def test_table1_setup(benchmark, rsfq):
    benchmark(run_table1, rsfq)
