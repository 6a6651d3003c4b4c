"""Extension — single-image (batch-1) inference latency.

The paper evaluates throughput at the largest resident batch; latency-
critical serving cares about batch 1, where the 52.6 GHz clock pays off
directly.  This bench reports per-image latency for the TPU and SuperNPU.
"""

from repro.core.measures import batch1_runs as run_latency


def test_latency_extension(benchmark, rsfq, workloads):
    benchmark(run_latency, rsfq, workloads)
