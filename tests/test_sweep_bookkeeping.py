"""Sweep bookkeeping: keys from kept canonical texts, each task keyed once,
the payload codec only at the cache boundary, and the shared immutable
paper objects (cell libraries, benchmark networks) that make this sound.

Every key and plan hash must stay byte-identical; the golden pins live in
``tests/test_components.py``.
"""

from __future__ import annotations

import gc
import importlib
import json
import pickle
import weakref
from collections import Counter

import pytest

from repro.canonical import canonical_json
from repro.core.batching import derived_batch
from repro.core.chaos import corrupt_cache_entry
from repro.core.designs import supernpu
from repro.device.cells import (
    CellLibrary,
    Technology,
    ersfq_library,
    library_for,
    rsfq_library,
)
from repro.device.process import AIST_10UM
from repro.estimator.arch_level import estimate_npu
from repro.simulator.power import power_report
from repro.workloads.models import Network, all_workloads, by_name

jobs = importlib.import_module("repro.core.jobs")
plan = importlib.import_module("repro.core.plan")
search = importlib.import_module("repro.core.search")


def _fresh_objects(tiny_network):
    """Two configs, one network and one library nothing has keyed yet."""
    configs = tuple(supernpu().with_updates(name=f"fresh-r{regs}", registers_per_pe=regs)
                    for regs in (1, 2))
    return configs, Network("fresh", tiny_network.layers), CellLibrary(Technology.RSFQ)


def _count_calls(monkeypatch, owner, names, counts):
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


# -- kept canonical texts --------------------------------------------------

def test_kept_texts_are_the_canonical_signatures(supernpu_config, tiny_network, rsfq):
    assert jobs.config_text(supernpu_config) == canonical_json(
        jobs.config_signature(supernpu_config))
    assert jobs.workload_text(tiny_network) == canonical_json(
        jobs.workload_signature(tiny_network))
    assert jobs.library_text(rsfq) == canonical_json(jobs.library_fingerprint(rsfq))
    assert jobs.library_text(None) == "null"
    task = jobs.SimTask(supernpu_config, tiny_network, 3, rsfq)
    assert task.key() == jobs._canonical_hash({
        "schema": jobs.CACHE_SCHEMA_VERSION, "kind": "simulate",
        "config": jobs.config_signature(supernpu_config),
        "workload": jobs.workload_signature(tiny_network),
        "batch": 3, "library": jobs.library_fingerprint(rsfq),
    })


def test_dropped_config_and_network_leave_no_memo_behind(tiny_network):
    (config, _), network, library = _fresh_objects(tiny_network)
    jobs.SimTask(config, network, 1, library).key()
    jobs.estimate_key(config, library)
    assert jobs.config_text(config) is jobs.config_text(config)  # kept, not re-rendered
    refs = [weakref.ref(config), weakref.ref(network), weakref.ref(library)]
    del config, network, library
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


def test_kept_texts_never_ride_along_in_pickles(tiny_network):
    (config, _), network, library = _fresh_objects(tiny_network)
    before = [pickle.dumps(record) for record in (config, network, library)]
    jobs.SimTask(config, network, 1, library).key()
    assert [pickle.dumps(record) for record in (config, network, library)] == before
    restored = pickle.loads(pickle.dumps(library))
    assert jobs.library_text(restored) == jobs.library_text(library)


def test_plan_value_texts_match_value_signatures():
    for name in plan.named_plans():
        built = plan.plan_by_name(name)
        text = built.signature_text()
        assert canonical_json(json.loads(text)) == text, name
        for grid in built.grids:
            for axis in grid.axes:
                for value in axis.values:
                    assert axis.value_text(value) == canonical_json(
                        axis.value_signature(value)), (name, axis.name)


# -- each sub-document rendered once, each task keyed once -----------------

def test_each_sub_document_renders_once_and_each_task_is_keyed_once(
        monkeypatch, tmp_path, tiny_network):
    configs, network, library = _fresh_objects(tiny_network)
    grid = plan.Grid("g", (plan.config_axis(configs), plan.workload_axis((network,)),
                           plan.batch_axis((1, 2)), plan.library_axis((library,))))
    experiment = plan.ExperimentPlan("bookkeeping", (grid,))
    renders: Counter = Counter()
    _count_calls(monkeypatch, jobs, ("config_signature", "workload_signature",
                                     "library_fingerprint"), renders)
    keyed = []  # holds every keyed task, so no two share an id()
    original_key = jobs.SimTask.key

    def counted_key(task):
        keyed.append(task)
        return original_key(task)

    monkeypatch.setattr(jobs.SimTask, "key", counted_key)
    with jobs.session(cache_dir=tmp_path) as runner:
        cold = plan.execute(experiment, runner=runner)
        warm = plan.execute(experiment, runner=runner)
    assert renders == {"config_signature": 2, "workload_signature": 1,
                       "library_fingerprint": 1}
    # Lowering keys each of the 2 x 4 tasks; the runner reuses those keys.
    assert len(keyed) == len({id(task) for task in keyed}) == 2 * grid.num_points
    assert [r.key for r in cold] == [r.key for r in warm]


def test_runner_keys_a_fresh_task_once_across_runs(monkeypatch, supernpu_config,
                                                   tiny_network, rsfq):
    tasks = [jobs.SimTask(supernpu_config, tiny_network, b, rsfq) for b in (1, 2)]
    calls: Counter = Counter()
    _count_calls(monkeypatch, jobs.SimTask, ("key",), calls)
    _count_calls(monkeypatch, jobs, ("estimate_key",), calls)
    runner = jobs.JobRunner()
    runner.run(tasks)
    runner.run(tasks)
    # Keyed by the first run; the per-process estimate memo needs no hash.
    assert calls == {"key": 2}


# -- the codec runs only at the cache boundary -----------------------------

def test_codec_runs_only_at_the_cache_boundary(monkeypatch, tmp_path,
                                               supernpu_config, tiny_network, rsfq):
    tasks = [jobs.SimTask(supernpu_config, tiny_network, b, rsfq) for b in (1, 2)]
    codec: Counter = Counter()
    _count_calls(monkeypatch, jobs, ("result_to_dict", "result_from_dict"), codec)

    uncached = jobs.JobRunner().run(tasks)
    assert codec == {}  # no cache: the simulator's results are kept as-is

    runner = jobs.JobRunner(cache=jobs.ResultCache(tmp_path / "c"))
    cold = runner.run(tasks)
    assert codec == {"result_to_dict": 2}  # encoded only to be written
    warm = runner.run(tasks)
    assert codec == {"result_to_dict": 2, "result_from_dict": 2}  # one decode per hit
    assert cold.cached == [False, False] and warm.cached == [True, True]
    assert uncached == cold == warm


def test_fresh_estimate_matches_a_decoded_one_bitwise(supernpu_config):
    library = CellLibrary(Technology.ERSFQ)
    fresh = jobs.JobRunner().estimate(supernpu_config, library)
    decoded = jobs.estimate_from_dict(json.loads(json.dumps(
        jobs.estimate_to_dict(estimate_npu(supernpu_config, library)), sort_keys=True)))
    assert list(fresh.units) == sorted(fresh.units)
    assert fresh == decoded
    assert repr(fresh.static_power_w) == repr(decoded.static_power_w)
    assert repr(fresh.area_mm2) == repr(decoded.area_mm2)


def test_table3_power_is_bitwise_equal_cold_and_warm(tmp_path):
    table3 = plan.plan_by_name("table3_power")
    points = plan.lower(table3).points
    with jobs.session(cache_dir=tmp_path) as runner:
        cold = plan.execute(table3, runner=runner)
    with jobs.session(cache_dir=tmp_path) as runner:
        warm = plan.execute(table3, runner=runner)
        assert runner.stats.executed == 0
    drifted, compared = [], 0
    for point, cold_result, warm_result in zip(points, cold, warm):
        if point.task.is_cmos:
            continue
        estimate = runner.estimate(point.config, point.library)
        cold_w = power_report(cold_result.run, estimate).dynamic_w
        warm_w = power_report(warm_result.run, estimate).dynamic_w
        if repr(cold_w) != repr(warm_w):
            drifted.append((point.coords, cold_w, warm_w))
        compared += 1
    assert compared == 36
    assert drifted == []


# -- plan cached flags come from the runner --------------------------------

def test_plan_cached_flags_follow_the_runners_lookups(tmp_path):
    fig23 = plan.plan_by_name("fig23_evaluate")
    with jobs.session(cache_dir=tmp_path) as runner:
        plan.execute(fig23, runner=runner)
    victim = plan.lower(fig23).points[10].key
    corrupt_cache_entry(jobs.ResultCache(tmp_path), victim, mode="truncate")

    with jobs.session(cache_dir=tmp_path) as runner:
        rerun = plan.execute(fig23, runner=runner)
    assert runner.stats.executed == 1
    assert rerun.points_executed == 1
    assert rerun.points_cached == rerun.points_total - 1
    assert [r.key for r in rerun if not r.cached] == [victim]


def test_estimate_points_report_the_runners_lookup(tmp_path, rsfq):
    grid = plan.Grid("nodes", (plan.config_axis((supernpu(),)), plan.library_axis((rsfq,))),
                     kind="estimate")
    experiment = plan.ExperimentPlan("est", (grid,))
    with jobs.session(cache_dir=tmp_path) as runner:
        cold = plan.execute(experiment, runner=runner)
    with jobs.session(cache_dir=tmp_path) as runner:
        warm = plan.execute(experiment, runner=runner)
    assert (cold.points_cached, cold.points_executed) == (0, 1)
    assert (warm.points_cached, warm.points_executed) == (1, 0)
    assert [r.cached for r in warm] == [True]


# -- shared immutable paper objects ----------------------------------------

def test_cell_library_is_immutable(rsfq):
    with pytest.raises(AttributeError):
        rsfq.technology = Technology.ERSFQ
    with pytest.raises(AttributeError):
        rsfq.process = AIST_10UM
    with pytest.raises(AttributeError):
        rsfq.extra = 1
    with pytest.raises(AttributeError):
        del rsfq.cells
    with pytest.raises(TypeError):
        rsfq.cells["AND"] = rsfq["XOR"]


def test_library_for_and_by_name_share_instances():
    assert library_for(Technology.RSFQ) is library_for(Technology.RSFQ, AIST_10UM)
    assert rsfq_library() is library_for(Technology.RSFQ)
    assert ersfq_library() is library_for(Technology.ERSFQ)
    assert ersfq_library() is not rsfq_library()
    assert by_name("ResNet50") is by_name("resnet-50")
    assert [network is by_name(network.name) for network in all_workloads()] == [True] * 6


def test_derived_batch_matches_the_per_layer_rule():
    def per_layer(config, network, cap=30):
        best = cap
        for layer in network.conv_layers or network.layers:
            if layer.ifmap_bytes:
                best = min(best, config.ifmap_buffer_bytes // layer.ifmap_bytes)
            best = min(best, config.pe_array_height * config.ifmap_division
                       // layer.in_channels)
            if layer.ofmap_bytes:
                best = min(best, (config.output_buffer_bytes + config.psum_buffer_bytes)
                           // layer.ofmap_bytes)
        return max(1, best)

    configs = search.search_plan(widths=(256, 128, 64, 32, 16)).grids[0].axes[0].values
    for config in configs:
        for network in all_workloads():
            assert derived_batch(config, network) == per_layer(config, network)
