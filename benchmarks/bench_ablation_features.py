"""Ablation — one-factor-at-a-time feature removal from SuperNPU.

Complements Fig. 23's cumulative build-up: each optimization is removed
from the final design in isolation.  The paper's Section V bottleneck
ranking predicts buffer division dominates — and it does.
"""

from repro.core.ablate import ablation_study


def test_feature_ablation(benchmark, workloads, rsfq):
    benchmark(ablation_study, workloads, rsfq)
