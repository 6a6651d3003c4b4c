"""Ablation — timing-variation yield of the 52.6 GHz clock.

The paper rejects aggressive clock skewing partly because it "lowers the
yield of fabrication" (Section III-A).  This bench Monte-Carlos per-cell
timing spread and reports the clock achievable at high yield.
"""

from repro.core.measures import variation_reports as run_variation


def test_variation_yield(benchmark, rsfq):
    benchmark(run_variation, rsfq)
