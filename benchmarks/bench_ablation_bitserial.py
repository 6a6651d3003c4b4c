"""Ablation — bit-serial vs bit-parallel MAC (Section VII related work).

Early SFQ processors (CORE1-beta, CORE e4) were bit-serial; the paper notes
"their throughput was quite low due to the simple but bit-serial designs".
This bench puts numbers on the claim within our calibrated cell library.
"""

from repro.core.measures import bitserial_comparison as run_comparison


def test_bitserial_ablation(benchmark, rsfq):
    benchmark(run_comparison, rsfq)
