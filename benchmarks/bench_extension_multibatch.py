"""Extension — throughput-vs-batch curve and its knee.

Section V-A3 equates batch size with computational intensity; this bench
draws the whole curve for SuperNPU on ResNet50 and locates the knee where
extra batching stops paying — the quantitative basis of Table II's
"maximum resident batch" policy.
"""

from repro.core.designs import supernpu
from repro.simulator.batch_sweep import batch_sweep
from repro.workloads.models import resnet50

BATCHES = (1, 2, 4, 8, 16, 30)


def test_multibatch_curve(benchmark, rsfq):
    benchmark(
        batch_sweep, supernpu(), resnet50(), BATCHES, None, rsfq
    )
