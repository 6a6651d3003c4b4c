"""The declarative experiment IR: lowering, execution, and equivalence.

The three load-bearing guarantees:

* lowering is deterministic — the same plan content always produces the
  same plan hash and the same ordered task keys;
* drivers that lower onto plans are bitwise-identical to the hand-rolled
  loops they replaced (direct ``simulate`` calls);
* a killed run resumes: re-executing a plan over a warm cache runs only
  the points the first run did not complete.
"""

from __future__ import annotations

import random

import pytest

from repro.core.ablate import ablated_configs, ablation_plan, ablation_study
from repro.core.batching import derived_batch
from repro.core.designs import baseline, supernpu
from repro.core.jobs import session
from repro.core.plan import (
    AxisSpec,
    ExperimentPlan,
    Grid,
    batch_axis,
    config_axis,
    execute,
    library_axis,
    lower,
    named_plans,
    param_axis,
    plan_by_name,
    recent_plans,
    workload_axis,
)
from repro.errors import ConfigError
from repro.estimator.arch_level import estimate_npu
from repro.simulator.batch_sweep import batch_plan, batch_sweep
from repro.simulator.engine import simulate


def _tiny_plan(tiny_network, rsfq, batches=(1, 2)):
    grid = Grid("curve", (
        config_axis((supernpu(),)),
        workload_axis((tiny_network,)),
        batch_axis(tuple(batches)),
        library_axis((rsfq,)),
    ))
    return ExperimentPlan("tiny", (grid,), description="test grid")


# -- axis / grid / plan validation ----------------------------------------

def test_axis_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        AxisSpec("x", "flavor", (1,))


def test_axis_rejects_empty_values():
    with pytest.raises(ConfigError):
        param_axis("x", ())


def test_axis_rejects_duplicate_labels(supernpu_config):
    swept = (supernpu_config.with_updates(memory_bandwidth_gbps=100.0),
             supernpu_config.with_updates(memory_bandwidth_gbps=200.0))
    with pytest.raises(ConfigError):  # both values keep the name "SuperNPU"
        config_axis(swept)
    axis = config_axis(swept, name="bandwidth", labels=("100", "200"))
    assert axis.labels == ("100", "200")


def test_batch_axis_rejects_bad_values():
    for bad in (0, -1, True, "weird"):
        with pytest.raises(ConfigError):
            batch_axis((bad,))
    batch_axis((1, 30, "derived", "paper", "auto"))  # all valid


def test_grid_requires_one_config_axis(tiny_network):
    with pytest.raises(ConfigError):
        Grid("g", (workload_axis((tiny_network,)),))


def test_simulate_grid_requires_workload_axis(supernpu_config):
    with pytest.raises(ConfigError):
        Grid("g", (config_axis((supernpu_config,)),))
    Grid("g", (config_axis((supernpu_config,)),), kind="estimate")  # fine


def test_plan_rejects_duplicate_grid_names(supernpu_config, tiny_network):
    grid = Grid("g", (config_axis((supernpu_config,)),
                      workload_axis((tiny_network,))))
    with pytest.raises(ConfigError):
        ExperimentPlan("p", (grid, grid))


# -- deterministic lowering ------------------------------------------------

def test_same_plan_lowers_identically(tiny_network, rsfq):
    first = lower(_tiny_plan(tiny_network, rsfq))
    second = lower(_tiny_plan(tiny_network, rsfq))
    assert first.plan_hash == second.plan_hash
    assert first.task_keys() == second.task_keys()
    assert [p.coords for p in first.points] == [p.coords for p in second.points]


def test_plan_hash_tracks_content(tiny_network, rsfq):
    base = _tiny_plan(tiny_network, rsfq).plan_hash()
    assert _tiny_plan(tiny_network, rsfq, batches=(1, 4)).plan_hash() != base
    assert len(base) == 64  # sha256 hex


def test_lowering_order_is_last_axis_fastest(tiny_network, rsfq):
    lowered = lower(_tiny_plan(tiny_network, rsfq, batches=(1, 2, 4)))
    assert [p.batch for p in lowered.points] == [1, 2, 4]
    assert [p.coord("batch") for p in lowered.points] == ["1", "2", "4"]


def test_duplicate_tasks_dedupe_in_first_seen_order(tiny_network, rsfq):
    grid_a = Grid("a", (config_axis((supernpu(),)),
                        workload_axis((tiny_network,)), batch_axis((1, 2))))
    grid_b = Grid("b", (config_axis((supernpu(),)),
                        workload_axis((tiny_network,)), batch_axis((2, 4))))
    lowered = lower(ExperimentPlan("dup", (grid_a, grid_b)))
    unique = lowered.sim_tasks()
    assert len(lowered.points) == 4
    assert len(unique) == 3  # batch 2 appears in both grids, submitted once
    assert list(unique) == [lowered.points[0].key, lowered.points[1].key,
                            lowered.points[3].key]


def test_batch_policies_resolve(tiny_network):
    config = supernpu()
    grid = Grid("g", (config_axis((config,)), workload_axis((tiny_network,)),
                      batch_axis(("derived",))))
    lowered = lower(ExperimentPlan("p", (grid,)))
    assert lowered.points[0].batch == derived_batch(config, tiny_network)


# -- execution through the job engine -------------------------------------

def test_execute_returns_results_in_point_order(tiny_network, rsfq):
    resultset = execute(_tiny_plan(tiny_network, rsfq))
    assert resultset.points_total == 2
    assert [r.run.batch for r in resultset] == [1, 2]
    assert all(r.plan == "tiny" for r in resultset)
    assert all(len(r.plan_hash) == 64 for r in resultset)


def test_select_and_one(tiny_network, rsfq):
    resultset = execute(_tiny_plan(tiny_network, rsfq))
    assert len(resultset.select(grid="curve")) == 2
    assert resultset.one(grid="curve", batch="2").run.batch == 2
    with pytest.raises(ConfigError):
        resultset.one(grid="curve")  # two matches


def _scan(results, grid, coords):
    """The linear-scan reference for ResultSet.select."""
    return [r for r in results
            if (grid is None or r.grid == grid)
            and all(dict(r.coords).get(axis) == label for axis, label in coords.items())]


#: The configs the random plans' config axes draw from, by label; their
#: register counts give each a different area.
_CONFIGS = {label: supernpu().with_updates(name=f"synthetic-{label}", registers_per_pe=regs)
            for label, regs in zip("abc", (1, 2, 4))}


def _random_resultset(rng):
    """A random plan of three estimate grids, executed: each grid has one
    config axis and up to three param axes, with names and labels drawn."""
    grids = []
    for grid in ("g0", "g1", "g2"):
        names = rng.sample(["config", "workload", "batch", "x"], rng.randint(1, 4))
        config_at = rng.randrange(len(names))
        axes = []
        for position, name in enumerate(names):
            labels = tuple(rng.sample("abc", rng.randint(1, 3)))
            axes.append(config_axis(tuple(_CONFIGS[label] for label in labels), name=name,
                                    labels=labels) if position == config_at
                        else param_axis(name, labels))
        grids.append(Grid(grid, tuple(axes), kind="estimate"))
    return execute(ExperimentPlan("synthetic", tuple(grids)))


@pytest.mark.parametrize("seed", range(20))
def test_indexed_select_one_and_mean_match_a_linear_scan(seed):
    rng = random.Random(seed)
    resultset = _random_resultset(rng)
    for _ in range(60):
        # Unknown grids, axes and labels are part of the draw.
        grid = rng.choice([None, "g0", "g1", "g2", "nogrid"])
        coords = {axis: rng.choice("abcz")
                  for axis in rng.sample(["config", "workload", "batch", "x", "zz"],
                                         rng.randint(0, 3))}
        expected = _scan(resultset.results, grid, coords)
        selected = resultset.select(grid=grid, **coords)
        assert len(selected) == len(expected)
        assert all(a is b for a, b in zip(selected, expected))  # point order kept
        assert resultset.runs(grid=grid, **coords) == [r.run for r in expected]
        if len(expected) == 1:
            assert resultset.one(grid=grid, **coords) is expected[0]
        else:
            with pytest.raises(ConfigError) as info:
                resultset.one(grid=grid, **coords)
            assert info.value.code == "plan.ambiguous_selection"
        if expected:
            total = sum(r.estimate.area_mm2 for r in expected)
            assert resultset.mean("area_mm2", grid=grid, **coords) == total / len(expected)
        else:
            assert selected == []
            with pytest.raises(ConfigError) as info:
                resultset.mean("area_mm2", grid=grid, **coords)
            assert info.value.code == "plan.empty_selection"


def test_execute_emits_counters_and_recent_plans(tiny_network, rsfq, obs_enabled):
    resultset = execute(_tiny_plan(tiny_network, rsfq))
    snapshot = obs_enabled.metrics().snapshot()
    assert snapshot["counters"]["plan.points_total"] == 2
    assert snapshot["counters"]["plan.points_executed"] == 2
    # The bounded recent-plan log (for manifests) ends with this execution.
    assert recent_plans()[-1] == ("tiny", resultset.plan_hash)


def test_estimate_grid_executes_via_runner(rsfq):
    grid = Grid("nodes", (config_axis((supernpu(),)), library_axis((rsfq,)),
                          param_axis("feature_um", (1.0, 0.5))),
                kind="estimate")
    resultset = execute(ExperimentPlan("est", (grid,)))
    direct = estimate_npu(supernpu(), rsfq)
    assert [r.param("feature_um") for r in resultset] == [1.0, 0.5]
    for result in resultset:
        assert result.estimate.frequency_ghz == direct.frequency_ghz


# -- bitwise-identical driver goldens --------------------------------------

def test_batch_sweep_matches_hand_rolled_loop(tiny_network, rsfq):
    config = supernpu()
    estimate = estimate_npu(config, rsfq)
    points = batch_sweep(config, tiny_network, batches=(1, 2, 4), library=rsfq)
    for point, batch in zip(points, (1, 2, 4)):
        golden = simulate(config, tiny_network, batch=batch, estimate=estimate)
        assert point.mac_per_s == golden.mac_per_s
        assert point.latency_s == golden.latency_s


def test_ablation_matches_hand_rolled_loop(tiny_network, rsfq):
    rows = ablation_study(workloads=[tiny_network], library=rsfq)
    by_feature = {row.feature: row for row in rows}

    def golden_mac_per_s(config):
        return simulate(config, tiny_network,
                        batch=derived_batch(config, tiny_network),
                        estimate=estimate_npu(config, rsfq)).mac_per_s

    configs = ablated_configs()
    full = golden_mac_per_s(configs["SuperNPU"])
    for feature, config in configs.items():
        if feature == "SuperNPU":
            continue  # the full design is the reference, not a row
        golden = golden_mac_per_s(config)
        assert by_feature[feature].mean_mac_per_s == golden
        assert by_feature[feature].relative_to_full == golden / full


def test_fig15_matches_hand_rolled_loop(tiny_network, rsfq):
    from repro.core.experiments import fig15_plan

    resultset = execute(fig15_plan(rsfq, [tiny_network]))
    config = baseline()
    golden = simulate(config, tiny_network, batch=1,
                      estimate=estimate_npu(config, rsfq))
    assert resultset.one().run.cycle_breakdown() == golden.cycle_breakdown()


# -- resume: a warm cache executes only the remaining points ---------------

def test_resume_executes_only_remaining_points(tiny_network, rsfq, tmp_path):
    config = supernpu()
    cache_dir = tmp_path / "cache"

    # First run dies after covering batches 1 and 2 (simulated by running
    # the sub-plan to completion against the shared cache).
    with session(cache_dir=cache_dir):
        execute(batch_plan(config, tiny_network, batches=(1, 2), library=rsfq))

    # The retry covers the full plan; only batch 4 is new work.
    with session(cache_dir=cache_dir) as runner:
        resultset = execute(
            batch_plan(config, tiny_network, batches=(1, 2, 4), library=rsfq))
    assert resultset.points_total == 3
    assert resultset.points_cached == 2
    assert resultset.points_executed == 1
    assert runner.stats.hits == 2
    assert runner.stats.executed == 1


def test_warm_cache_reexecutes_nothing(tiny_network, rsfq, tmp_path):
    plan = batch_plan(supernpu(), tiny_network, batches=(1, 2), library=rsfq)
    with session(cache_dir=tmp_path / "cache"):
        cold = execute(plan)
    with session(cache_dir=tmp_path / "cache") as runner:
        warm = execute(plan)
    assert warm.points_cached == warm.points_total
    assert warm.points_executed == 0
    assert runner.stats.executed == 0
    # Warm results are bitwise-identical to the cold run.
    for a, b in zip(cold, warm):
        assert a.run.mac_per_s == b.run.mac_per_s
        assert a.run.total_cycles == b.run.total_cycles


# -- the named registry ----------------------------------------------------

def test_every_named_plan_builds_and_hashes():
    for name in named_plans():
        plan = plan_by_name(name)
        assert plan.num_points > 0
        assert len(plan.plan_hash()) == 64
        assert plan.describe()  # renders without error
        # Lowering shares one task among equal-content points, so the
        # distinct tasks are the distinct keys.
        lowered = plan.lower()
        assert len(lowered.unique_tasks()) == len(lowered.sim_tasks())


def test_unknown_plan_is_a_config_error():
    with pytest.raises(ConfigError) as excinfo:
        plan_by_name("fig99")
    assert excinfo.value.code == "config.unknown_plan"


def test_ablation_plan_covers_all_features(tiny_network, rsfq):
    plan = ablation_plan(workloads=[tiny_network], library=rsfq)
    assert plan.grids[0].num_points == len(ablated_configs())
