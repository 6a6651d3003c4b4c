"""Fig. 5 — on-chip network design comparison (claims ``fig05.*``)."""

from repro.uarch.network import compare_designs

WIDTHS = (4, 16, 64)


def run_fig05(library):
    return {width: compare_designs(width, bits=8, library=library) for width in WIDTHS}


def test_fig05_network_comparison(benchmark, rsfq):
    benchmark(run_fig05, rsfq)
