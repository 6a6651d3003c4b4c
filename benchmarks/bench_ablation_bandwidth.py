"""Ablation — memory-bandwidth sensitivity.

The evaluation pins 300 GB/s (TPUv2 HBM) for both NPUs.  At 52.6 GHz that
is only ~5.7 bytes/cycle for the SFQ design — this bench shows how the
headline speedup moves as the shared bandwidth assumption changes.
"""

from repro.core.sensitivity import bandwidth_sweep
from repro.workloads.models import mobilenet, resnet50, vgg16

BANDWIDTHS = (100, 300, 600, 1200)


def test_bandwidth_sensitivity(benchmark):
    workloads = [resnet50(), vgg16(), mobilenet()]
    benchmark(bandwidth_sweep, BANDWIDTHS, None, workloads)
