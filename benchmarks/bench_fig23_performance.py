"""Fig. 23 — the headline performance evaluation (the speedup claims)."""

from repro.core.evaluate import evaluate_suite


def test_fig23_performance(benchmark):
    benchmark(evaluate_suite)
