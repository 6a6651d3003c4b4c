"""Extension — gate-level pipelining, measured on real pulse logic.

Fig. 2(a)'s claim, executed: a deeply pipelined SFQ multiplier accepts one
operation per clock regardless of its latency, and its gate inventory is
dominated by path-balancing DFFs (the structural fact behind the analytic
MAC model's DFF factor).
"""

from repro.core.measures import multiplier_pipelines as run_pipeline_study


def test_gatesim_pipeline(benchmark):
    benchmark(run_pipeline_study)
