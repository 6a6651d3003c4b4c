"""Ablation — process-scaling headroom (paper footnote 2).

The paper evaluates on the mid-1990s-class AIST 1.0 um process "to show
the SFQ technology's performance potential conservatively" and cites the
linear frequency-scaling rule (valid to ~0.2 um, where a TFF has reached
770 GHz).  This bench projects SuperNPU down the process ladder.
"""

from repro.core.designs import supernpu
from repro.core.scaling import scaling_sweep

FEATURES = (1.0, 0.5, 0.25, 0.2, 0.1, 0.028)


def test_scaling_projection(benchmark, rsfq):
    benchmark(scaling_sweep, supernpu(), FEATURES, rsfq)
