"""Table III — power and power-efficiency evaluation (the power claims)."""

from repro.core.evaluate import evaluate_suite, table3_rows


def run_table3():
    suite = evaluate_suite()
    return table3_rows(suite)


def test_table3_power_efficiency(benchmark):
    benchmark(run_table3)
