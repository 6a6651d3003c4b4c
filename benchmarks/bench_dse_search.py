"""Design-space search — rediscovering SuperNPU mechanically.

The paper reaches SuperNPU through three guided steps (Figs. 20-22); this
bench sweeps the same space exhaustively under the TPU-class area budget;
the claims table (``search.*`` rows) checks the winner lands in the same
design region.
"""

from repro.core.measures import design_space_search as run_search


def test_dse_search(benchmark):
    benchmark(run_search)
