"""Fig. 7(c) — feedback loop's impact on SFQ clock frequency (claims ``fig07.*``)."""

from repro.core.experiments import feedback_frequencies as run_fig07
from repro.uarch.mac import Dataflow, MACUnit


def test_fig07_feedback_frequency(benchmark, rsfq):
    benchmark(run_fig07, rsfq)


def test_fig07_os_pe_frequency(benchmark, rsfq):
    """The architectural consequence: an OS-dataflow PE runs ~half speed."""

    def run():
        ws = MACUnit(8, 24, Dataflow.WEIGHT_STATIONARY).frequency(rsfq).frequency_ghz
        os = MACUnit(8, 24, Dataflow.OUTPUT_STATIONARY).frequency(rsfq).frequency_ghz
        return ws, os

    benchmark(run)
