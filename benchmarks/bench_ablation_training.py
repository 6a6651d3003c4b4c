"""Extension — training-step cost (the paper's stated follow-up to its
inference-only "first case study").

Models one SGD step as forward + input-gradient + weight-gradient passes
plus a weight write-back, and reports the step/inference cost ratio per
workload (canonically ~3x).
"""

from repro.core.designs import supernpu
from repro.estimator.arch_level import estimate_npu
from repro.simulator.training import simulate_training_step

BATCH = 8


def run_training(library, workloads):
    config = supernpu()
    estimate = estimate_npu(config, library)
    return {
        network.name: simulate_training_step(config, network, batch=BATCH,
                                             estimate=estimate)
        for network in workloads
    }


def test_training_extension(benchmark, rsfq, workloads):
    benchmark(run_training, rsfq, workloads)
