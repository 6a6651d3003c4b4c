"""Extension — applicability to transformer (matmul) workloads.

The paper's closing claim: the methodology "can also be applied to other
architectures favoring the SFQ logic".  Transformers are wall-to-wall
matmuls — streaming, control-flow-free — so they are the natural second
workload class; this bench runs a BERT-base encoder block on every design.
"""

from repro.core.measures import transformer_runs as run_transformer


def test_transformer_extension(benchmark, rsfq):
    benchmark(run_transformer, rsfq)
