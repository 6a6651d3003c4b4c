"""Fig. 13 — estimator validation against prototype measurements (``fig13.*``)."""

from repro.estimator.validation import validate


def test_fig13_validation(benchmark, rsfq):
    benchmark(validate, rsfq)
