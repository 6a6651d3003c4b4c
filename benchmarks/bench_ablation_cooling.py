"""Ablation — cooling-efficiency sensitivity (Table III's 400x assumption).

Sweeps the cryocooler's specific power from the Carnot bound to pessimistic
plants, locating the break-even points behind the paper's Table III rows.
"""

from repro.core.sensitivity import cooling_sweep
from repro.workloads.models import resnet50

FACTORS = (100, 200, 400, 1000)


def test_cooling_sensitivity(benchmark):
    benchmark(cooling_sweep, FACTORS, True, resnet50())
