"""Activity-driven power aggregation tests (Table III behaviour)."""

import pytest

from repro.estimator.arch_level import estimate_npu
from repro.simulator.engine import simulate
from repro.simulator.power import power_report
from repro.workloads.models import resnet50


def _power(config, library, network, batch):
    estimate = estimate_npu(config, library)
    run = simulate(config, network, batch=batch, estimate=estimate)
    return power_report(run, estimate)


def test_rsfq_power_dominated_by_static(rsfq, supernpu_config):
    report = _power(supernpu_config, rsfq, resnet50(), 30)
    assert report.static_w > 100 * report.dynamic_w
    assert report.total_w == pytest.approx(report.static_w + report.dynamic_w)


def test_ersfq_is_dynamic_only(ersfq, supernpu_config):
    report = _power(supernpu_config, ersfq, resnet50(), 30)
    assert report.static_w == 0.0
    assert report.dynamic_w > 0.0


def test_ersfq_supernpu_lands_near_paper_2w(ersfq, supernpu_config):
    """Table III: ERSFQ-SuperNPU consumes ~1.9 W while running."""
    report = _power(supernpu_config, ersfq, resnet50(), 30)
    assert 0.5 <= report.total_w <= 3.0


def test_rsfq_supernpu_lands_near_paper_964w(rsfq, supernpu_config):
    report = _power(supernpu_config, rsfq, resnet50(), 30)
    assert 900 <= report.total_w <= 1030


def test_ersfq_dynamic_roughly_double_rsfq_dynamic(rsfq, ersfq, supernpu_config):
    """Section IV-A1: ERSFQ doubles switching energy."""
    net = resnet50()
    d_rsfq = _power(supernpu_config, rsfq, net, 30).dynamic_w
    d_ersfq = _power(supernpu_config, ersfq, net, 30).dynamic_w
    assert d_ersfq == pytest.approx(2 * d_rsfq, rel=1e-6)


def test_pe_array_is_largest_dynamic_consumer(ersfq, supernpu_config):
    report = _power(supernpu_config, ersfq, resnet50(), 30)
    assert max(report.dynamic_by_unit, key=report.dynamic_by_unit.get) == "pe_array"


def test_data_activity_bounds(rsfq, supernpu_config, tiny_network):
    estimate = estimate_npu(supernpu_config, rsfq)
    run = simulate(supernpu_config, tiny_network, batch=1, estimate=estimate)
    with pytest.raises(ValueError):
        power_report(run, estimate, data_activity=1.5)
    with pytest.raises(ValueError):
        power_report(run, estimate, data_activity=-0.1)


def test_higher_activity_means_more_power(rsfq, supernpu_config, tiny_network):
    estimate = estimate_npu(supernpu_config, rsfq)
    run = simulate(supernpu_config, tiny_network, batch=1, estimate=estimate)
    low = power_report(run, estimate, data_activity=0.1)
    high = power_report(run, estimate, data_activity=0.9)
    assert high.dynamic_w > low.dynamic_w


# -- hand-computed ActivityTrace ----------------------------------------

def _synthetic_run_and_estimate(baseline_config):
    """A fully hand-specified run + estimate for arithmetic checks.

    50 GHz, 50,000 cycles -> 1 µs runtime.  ``pe_array`` is active for
    10,000 effective cycles at 1 aJ clocked + 2 aJ wire per cycle.
    """
    from repro.estimator.arch_level import NPUEstimate
    from repro.estimator.uarch_level import UnitEstimate
    from repro.simulator.results import (
        LAYER_FIELDS, ActivityTrace, LayerResult, SimulationResult)

    def unit(name, static_w, clocked_j, wire_j):
        return UnitEstimate(
            name=name, kind="logic", gate_count=1, jj_count=1,
            frequency_ghz=50.0, cycle_time_ps=20.0, critical_pair="x",
            static_power_w=static_w, access_energy_j=clocked_j + wire_j,
            access_energy_clocked_j=clocked_j, access_energy_wire_j=wire_j,
            area_mm2=1.0,
        )

    estimate = NPUEstimate(
        config=baseline_config,
        technology="rsfq",
        frequency_ghz=50.0,
        cycle_time_ps=20.0,
        critical_path="x",
        units={
            "pe_array": unit("pe_array", 0.5, 1e-18, 2e-18),
            "dau": unit("dau", 0.25, 4e-18, 0.0),
        },
        wiring_static_power_w=0.25,
    )
    activity = ActivityTrace()
    activity.add("pe_array", 10_000.0)
    activity.add("dau", 5_000.0)
    activity.add("mystery_unit", 1e9)  # no estimate -> must be ignored
    layer = LayerResult(
        name="l", mappings=1, weight_load_cycles=0, ifmap_prep_cycles=0,
        psum_move_cycles=0, activation_transfer_cycles=0,
        compute_cycles=50_000, dram_traffic_bytes=0, dram_cycles=0,
        total_cycles=50_000, macs=0,
    )
    columns = {name: [getattr(layer, name)] for name in LAYER_FIELDS}
    run = SimulationResult("d", "n", 1, 50.0, columns, activity)
    return run, estimate


def test_hand_computed_static_dynamic_split(baseline_config):
    run, estimate = _synthetic_run_and_estimate(baseline_config)
    report = power_report(run, estimate, data_activity=0.5)
    # Static: 0.5 + 0.25 unit W + 0.25 wiring W.
    assert report.static_w == pytest.approx(1.0)
    # pe_array: 10,000 cycles * (1 aJ + 0.5 * 2 aJ) = 2e-14 J over 1 µs.
    assert report.dynamic_by_unit["pe_array"] == pytest.approx(2e-8)
    # dau: 5,000 cycles * 4 aJ (no wire energy) = 2e-14 J over 1 µs.
    assert report.dynamic_by_unit["dau"] == pytest.approx(2e-8)
    assert report.dynamic_w == pytest.approx(4e-8)
    assert report.total_w == pytest.approx(1.0 + 4e-8)


def test_units_without_estimates_are_skipped(baseline_config):
    run, estimate = _synthetic_run_and_estimate(baseline_config)
    report = power_report(run, estimate)
    assert "mystery_unit" not in report.dynamic_by_unit


def test_data_activity_scales_wire_energy_only(baseline_config):
    run, estimate = _synthetic_run_and_estimate(baseline_config)
    zero = power_report(run, estimate, data_activity=0.0)
    full = power_report(run, estimate, data_activity=1.0)
    # pe_array wire energy doubles the clocked floor at full activity.
    assert zero.dynamic_by_unit["pe_array"] == pytest.approx(1e-8)
    assert full.dynamic_by_unit["pe_array"] == pytest.approx(3e-8)
    # dau has no wire cells: activity must not change it.
    assert zero.dynamic_by_unit["dau"] == full.dynamic_by_unit["dau"]
