"""Per-unit utilization report tests."""

import pytest

from repro.core.designs import baseline, supernpu
from repro.estimator.arch_level import estimate_npu
from repro.simulator.engine import simulate
from repro.simulator.utilization import compare_utilization, utilization_report
from repro.workloads.models import resnet50


@pytest.fixture(scope="module")
def runs(rsfq):
    out = []
    for config, batch in ((baseline(), 1), (supernpu(), 30)):
        estimate = estimate_npu(config, rsfq)
        out.append(simulate(config, resnet50(), batch=batch, estimate=estimate))
    return out


def test_utilization_bounds(runs):
    for run in runs:
        report = utilization_report(run)
        assert all(0.0 <= value <= 1.0 for value in report.per_unit.values())


def test_pe_utilization_matches_throughput_definition(runs, rsfq):
    """The report's PE figure equals effective/peak throughput."""
    run = runs[1]
    estimate = estimate_npu(supernpu(), rsfq)
    report = utilization_report(run)
    assert report.pe_utilization == pytest.approx(
        run.pe_utilization(estimate.peak_mac_per_s), rel=1e-6
    )


def test_optimizations_raise_pe_utilization(runs):
    """The Section V story: Baseline idles, SuperNPU computes."""
    baseline_report = utilization_report(runs[0])
    supernpu_report = utilization_report(runs[1])
    assert baseline_report.pe_utilization < 0.01
    assert supernpu_report.pe_utilization > 0.3


def test_busiest_unit(runs):
    report = utilization_report(runs[1])
    assert report.busiest_unit() in report.per_unit


def test_compare_keys(runs):
    reports = compare_utilization(runs)
    assert set(reports) == {"Baseline", "SuperNPU"}


def test_zero_cycle_run_rejected():
    from repro.simulator.results import LAYER_FIELDS, ActivityTrace, SimulationResult

    columns = {name: [] for name in LAYER_FIELDS}
    empty = SimulationResult("d", "n", 1, 52.6, columns, ActivityTrace())
    with pytest.raises(ValueError):
        utilization_report(empty)


# -- hand-computed ActivityTrace ----------------------------------------

def _run_with_activity(activity, total_cycles=1000):
    """A synthetic run: one layer carrying the cycle total, given activity."""
    from repro.simulator.results import LAYER_FIELDS, LayerResult, SimulationResult

    layer = LayerResult(
        name="l", mappings=1, weight_load_cycles=0, ifmap_prep_cycles=0,
        psum_move_cycles=0, activation_transfer_cycles=0,
        compute_cycles=total_cycles, dram_traffic_bytes=0, dram_cycles=0,
        total_cycles=total_cycles, macs=0,
    )
    columns = {name: [getattr(layer, name)] for name in LAYER_FIELDS}
    return SimulationResult("d", "n", 1, 52.6, columns, activity)


def test_hand_computed_percentages():
    """250/1000 -> 25%, 1000/1000 -> 100%, overshoot clamps to 100%."""
    from repro.simulator.results import ActivityTrace

    activity = ActivityTrace()
    activity.add("pe_array", 250.0)
    activity.add("dau", 1000.0)
    activity.add("network", 1500.0)  # effective cycles can exceed the total
    report = utilization_report(_run_with_activity(activity))
    assert report.per_unit == {
        "pe_array": pytest.approx(0.25),
        "dau": pytest.approx(1.0),
        "network": pytest.approx(1.0),  # clamped
    }
    assert report.pe_utilization == pytest.approx(0.25)


def test_activity_accumulates_across_adds():
    from repro.simulator.results import ActivityTrace

    activity = ActivityTrace()
    activity.add("pe_array", 100.0)
    activity.add("pe_array", 150.0)
    report = utilization_report(_run_with_activity(activity))
    assert report.per_unit["pe_array"] == pytest.approx(0.25)


def test_activity_rejects_negative_cycles():
    from repro.simulator.results import ActivityTrace

    with pytest.raises(ValueError):
        ActivityTrace().add("pe_array", -1.0)


def test_busiest_unit_tie_breaks_lexicographically():
    """Equal utilization -> smallest name wins, whatever the insert order."""
    from repro.simulator.results import ActivityTrace

    first = ActivityTrace()
    first.add("zeta", 500.0)
    first.add("alpha", 500.0)
    second = ActivityTrace()
    second.add("alpha", 500.0)
    second.add("zeta", 500.0)
    assert utilization_report(_run_with_activity(first)).busiest_unit() == "alpha"
    assert utilization_report(_run_with_activity(second)).busiest_unit() == "alpha"


def test_busiest_unit_prefers_strictly_higher_value():
    from repro.simulator.results import ActivityTrace

    activity = ActivityTrace()
    activity.add("alpha", 100.0)
    activity.add("zeta", 900.0)
    assert utilization_report(_run_with_activity(activity)).busiest_unit() == "zeta"


def test_to_dict_is_json_ready(runs):
    import json

    report = utilization_report(runs[1])
    document = report.to_dict()
    assert document["design"] == "SuperNPU"
    assert document["busiest_unit"] == report.busiest_unit()
    assert list(document["per_unit"]) == sorted(document["per_unit"])
    json.dumps(document)
