"""Extension — joules per inference (the per-image view of Table III)."""

from repro.core.energy import inference_energy_table
from repro.workloads.models import resnet50


def test_energy_per_image(benchmark):
    benchmark(inference_energy_table, resnet50())
