"""Ablation — weight-stationary vs output-stationary dataflow.

DESIGN.md calls out the WS choice (paper Section III-B) as a key design
decision: the OS accumulator loop forces counter-flow clocking (52.6 ->
~31.8 GHz) and re-streams weights per output tile.  This bench quantifies
the end-to-end cost of picking OS instead.
"""

from repro.core.experiments import dataflow_runs as run_ablation


def test_dataflow_ablation(benchmark, rsfq, workloads):
    benchmark(run_ablation, rsfq, workloads)
