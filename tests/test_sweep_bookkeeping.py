"""Sweep bookkeeping: keys from kept canonical texts, each task keyed once,
the payload codec only at the cache boundary, and the shared immutable
paper objects (cell libraries, benchmark networks) that make this sound.

Every key and plan hash must stay byte-identical; the golden pins live in
``tests/test_components.py``.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import pickle
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.baselines.scalesim import TPU_CORE, CMOSNPUConfig, simulate_cmos
from repro.canonical import canonical_json
from repro.core.batching import derived_batch
from repro.core.chaos import corrupt_cache_entry
from repro.core.resilience import RetryPolicy
from repro.core.designs import supernpu
from repro.device.cells import (
    CellLibrary,
    Technology,
    ersfq_library,
    library_for,
    rsfq_library,
)
from repro.device.process import AIST_10UM
from repro import obs
from repro.errors import WorkerError
from repro.estimator.arch_level import estimate_npu
from repro.simulator.datapath import build_datapath
from repro.simulator.engine import simulate
from repro.simulator.memory import memory_model_for
from repro.simulator.power import power_report
from repro.simulator.results import SimulationResult
from repro.workloads.models import Network, all_workloads, by_name

jobs = importlib.import_module("repro.core.jobs")
plan = importlib.import_module("repro.core.plan")
search = importlib.import_module("repro.core.search")
cells = importlib.import_module("repro.device.cells")


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
    # Simulating keeps the config's datapath and memory model on it, once.
    simulate(config, network, 2, estimate=SimpleNamespace(frequency_ghz=52.6))
    assert build_datapath(config) is build_datapath(config)
    assert memory_model_for(config, 52.6) is memory_model_for(config, 52.6)
    assert memory_model_for(config, 30.0).frequency_ghz == 30.0
    assert [pickle.dumps(record) for record in (config, network, library)] == before
    for copied in (pickle.loads(pickle.dumps(config)), copy.copy(config)):
        assert not {"_canonical_text", "_datapath", "_memory_model"} & set(vars(copied))
    restored = pickle.loads(pickle.dumps(library))
    assert jobs.library_text(restored) == jobs.library_text(library)
    cmos = CMOSNPUConfig(name="fresh-tpu")
    before = pickle.dumps(cmos)
    assert memory_model_for(cmos, 0.7) is memory_model_for(cmos, 0.7)
    assert pickle.dumps(cmos) == before


@pytest.mark.parametrize("config", [
    supernpu(), supernpu().with_updates(memory_technology="dram-77k"), TPU_CORE])
def test_config_signature_is_the_asdict_document(config):
    document = dataclasses.asdict(config)
    for name, default in jobs._DEFAULT_TECHNOLOGY_FIELDS.items():
        if document.get(name) == default:
            del document[name]
    assert jobs.config_signature(config) == document
    assert jobs.config_text(config) == canonical_json(document)


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
    _count_calls(monkeypatch, jobs, ("config_signature", "workload_signature"), renders)
    # A library's text renders where the library lives (the estimator's
    # unit memo keys on it too), not in repro.core.jobs.
    _count_calls(monkeypatch, cells, ("library_fingerprint",), renders)
    keyed = []  # holds every keyed task, so no two share an id()
    original_key = jobs.SimTask.key

    def counted_key(task):
        keyed.append(task)
        return original_key(task)

    monkeypatch.setattr(jobs.SimTask, "key", counted_key)
    with jobs.session(cache_dir=tmp_path):
        cold = plan.execute(experiment)
        warm = plan.execute(experiment)
    assert renders == {"config_signature": 2, "workload_signature": 1,
                       "library_fingerprint": 1}
    # Lowering keys each of the 2 x 4 tasks; the runner reuses those keys.
    assert len(keyed) == len({id(task) for task in keyed}) == 2 * grid.num_points
    assert [r.key for r in cold] == [r.key for r in warm]


def _count_keys(monkeypatch):
    """Count SimTask.key and estimate_key calls, at every binding."""
    calls: Counter = Counter()
    _count_calls(monkeypatch, jobs.SimTask, ("key",), calls)
    _count_calls(monkeypatch, jobs, ("estimate_key",), calls)
    _count_calls(monkeypatch, plan, ("estimate_key",), calls)
    return calls


def _run_twice(runner, supernpu_config, tiny_network, rsfq):
    tasks = [jobs.SimTask(supernpu_config, tiny_network, b, rsfq) for b in (1, 2)]
    for _ in range(2):
        runner.run(tasks)
        runner.estimate(supernpu_config, rsfq)


def test_a_runner_nothing_reads_keys_of_hashes_nothing(monkeypatch, supernpu_config,
                                                       tiny_network, rsfq):
    calls = _count_keys(monkeypatch)
    _run_twice(jobs.JobRunner(), supernpu_config, tiny_network, rsfq)
    assert calls == {}


def test_a_cached_runner_hashes_each_task_once_across_runs(monkeypatch, tmp_path,
                                                           supernpu_config, tiny_network,
                                                           rsfq):
    calls = _count_keys(monkeypatch)
    runner = jobs.JobRunner(cache=jobs.ResultCache(tmp_path / "cache"))
    _run_twice(runner, supernpu_config, tiny_network, rsfq)
    # The estimate's second lookup is a runner memo hit, which needs no key.
    assert calls == {"key": 2, "estimate_key": 1}
    assert runner.stats.hits == 2


@pytest.mark.parametrize("reader", ["chaos", "progress"])
def test_a_chaos_or_progress_runner_hashes_each_task_once(monkeypatch, tmp_path, reader,
                                                          supernpu_config, tiny_network,
                                                          rsfq):
    from repro.core.chaos import ChaosInjector
    from repro.obs.progress import ProgressReporter

    calls = _count_keys(monkeypatch)
    runner = (jobs.JobRunner(chaos=ChaosInjector(tmp_path / "chaos", {}))
              if reader == "chaos" else
              jobs.JobRunner(progress=ProgressReporter(stream=io.StringIO(), interval_s=0.0)))
    _run_twice(runner, supernpu_config, tiny_network, rsfq)
    assert calls == {"key": 2}


def test_an_error_still_names_its_task(monkeypatch, supernpu_config, tiny_network, rsfq):
    task = jobs.SimTask(supernpu_config, tiny_network, 1, rsfq)

    def fail(*args, **kwargs):
        raise RuntimeError("transient")

    monkeypatch.setattr(jobs, "_execute", fail)
    runner = jobs.JobRunner(retry=RetryPolicy(max_retries=0))
    with pytest.raises(WorkerError) as info:
        runner.run([task])
    assert info.value.context["task"] == task.key()
    assert task.key()[:12] in str(info.value)


def test_a_cache_less_search_hashes_nothing(monkeypatch):
    calls = _count_keys(monkeypatch)
    with jobs.session():
        ranked = search.search()
    assert ranked
    assert calls == {}


def test_a_cache_less_search_builds_no_run_and_estimates_once_per_session(monkeypatch):
    with jobs.session():
        search.search()  # the per-process design memo now holds the 64 designs
    calls: Counter = Counter()
    _count_calls(monkeypatch, jobs, ("estimate_content", "estimate_npu"), calls)
    _count_calls(monkeypatch, jobs.SimTask, ("key",), calls)
    _count_calls(monkeypatch, SimulationResult, ("from_charges", "__init__"), calls)
    with jobs.session():
        ranked = search.search()
    assert len(ranked) == 64
    # The search's own lookups go through its session's runner, which
    # estimates each of the 64 designs once; each of the 384 tasks' charge
    # passes resolves its design through the process memo.  The ranking
    # reads each run's totals from its pass and builds no result.
    assert calls == {"estimate_content": 64 + 384, "estimate_npu": 64}


# -- a read builds only what it returns ------------------------------------

def test_one_builds_only_the_result_it_returns(monkeypatch):
    calls: Counter = Counter()
    _count_calls(monkeypatch, plan.PlanResult, ("__init__",), calls)
    _count_calls(monkeypatch, jobs._Charged, ("build",), calls)
    with jobs.session():
        resultset = plan.execute(plan.plan_by_name("fig23_evaluate"))
        result = resultset.one(grid="designs", config="SuperNPU", workload="ResNet50")
    assert (result.run.design, result.run.network) == ("SuperNPU", "ResNet50")
    assert calls["__init__"] == 1
    assert calls["build"] <= 1


@pytest.mark.parametrize("driver", [
    "repro.core.ablate.ablation_study",
    "repro.core.optimizer.buffer_sweep",
    "repro.core.optimizer.resource_sweep",
    "repro.core.optimizer.register_sweep",
    "repro.core.sensitivity.bandwidth_sweep",
])
def test_a_driver_that_averages_builds_no_run(monkeypatch, tmp_path, driver):
    module, name = driver.rsplit(".", 1)
    run = getattr(importlib.import_module(module), name)
    with jobs.session(cache_dir=tmp_path):
        built = run()  # a cache writes each run, so every result is built
    calls: Counter = Counter()
    _count_calls(monkeypatch, jobs._Charged, ("build",), calls)
    with jobs.session():
        charged = run()
    assert calls == {}
    # Means read from the charge passes' totals equal the built runs'.
    assert charged == built


# -- the column path equals solo simulations -------------------------------

def _solo(point):
    """The point's result from one engine (or CMOS) call of its own."""
    if point.task.is_cmos:
        return simulate_cmos(point.config, point.network, batch=point.batch)
    return simulate(point.config, point.network, batch=point.batch,
                    estimate=estimate_npu(point.config, point.task.resolved_library()))


@pytest.mark.parametrize("name", [name for name in plan.named_plans() if any(
    grid.kind == "simulate" for grid in plan.plan_by_name(name).grids)])
def test_every_plan_point_equals_a_solo_simulation(name):
    experiment = plan.plan_by_name(name)
    with jobs.session():
        resultset = plan.execute(experiment)
    solos = {}
    for result in resultset:
        if result.run is None:
            continue
        point = result.point
        solo = solos.setdefault(id(point.task), _solo(point))
        assert dataclasses.replace(result, run=solo).record() == result.record()
        assert ([layer.total_cycles for layer in result.run.layers]
                == [layer.total_cycles for layer in solo.layers])


def test_a_group_of_one_is_bitwise_a_group_of_many():
    network = by_name("mobilenet")
    configs = search.search_plan(widths=(128, 32), registers=(1, 8)).grids[0].axes[0].values
    tasks = [jobs.SimTask(config, network, batch) for config, batch in zip(configs, range(1, 17))]

    def bits(run):
        return (run.design, run.batch, run.frequency_ghz.hex(), run.layers,
                [(unit, value.hex()) for unit, value in run.activity.effective_cycles.items()])

    many = jobs.JobRunner().run(tasks)
    assert [bits(run) for run in many] == [
        bits(jobs.JobRunner().run([task])[0]) for task in tasks]


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
    with jobs.session(cache_dir=tmp_path):
        cold = plan.execute(table3)
    with jobs.session(cache_dir=tmp_path) as runner:
        warm = plan.execute(table3)
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
    with jobs.session(cache_dir=tmp_path):
        plan.execute(fig23)
    victim = plan.lower(fig23).points[10].key
    corrupt_cache_entry(jobs.ResultCache(tmp_path), victim, mode="truncate")

    with jobs.session(cache_dir=tmp_path) as runner:
        rerun = plan.execute(fig23)
    assert runner.stats.executed == 1
    assert rerun.points_executed == 1
    assert rerun.points_cached == rerun.points_total - 1
    assert [r.key for r in rerun if not r.cached] == [victim]


def test_estimate_points_report_the_runners_lookup(tmp_path, rsfq):
    grid = plan.Grid("nodes", (plan.config_axis((supernpu(),)), plan.library_axis((rsfq,))),
                     kind="estimate")
    experiment = plan.ExperimentPlan("est", (grid,))
    with jobs.session(cache_dir=tmp_path):
        cold = plan.execute(experiment)
    with jobs.session(cache_dir=tmp_path):
        warm = plan.execute(experiment)
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


def test_a_warm_paper_rerun_parses_no_json(monkeypatch, tmp_path):
    """Re-running the paper's figure and table plans on a filled cache
    reads each task's format-4 record once and decodes it once, with no
    JSON parse and no encode."""
    plans = [plan.plan_by_name(name) for name in (
        "fig20_buffers", "fig21_resources", "fig22_registers", "fig23_evaluate",
        "table3_power")]
    with jobs.session(cache_dir=tmp_path):
        cold = [plan.execute(each) for each in plans]
    calls: Counter = Counter()
    _count_calls(monkeypatch, jobs, ("result_to_dict", "result_from_dict"), calls)
    _count_calls(monkeypatch, jobs.ResultCache, ("get",), calls)
    loads = json.loads

    def counted_loads(*args, **kwargs):
        calls["json.loads"] += 1
        return loads(*args, **kwargs)

    monkeypatch.setattr(jobs, "json", SimpleNamespace(loads=counted_loads, dumps=json.dumps))
    with jobs.session(cache_dir=tmp_path) as runner:
        warm = [plan.execute(each) for each in plans]
    tasks = runner.stats.tasks
    assert tasks > 200 and runner.stats.hits == tasks and runner.stats.executed == 0
    assert calls == {"get": tasks, "result_from_dict": tasks}
    assert [[result.run for result in each] for each in warm] == [
        [result.run for result in each] for each in cold]


# -- a cold paper sweep: packed passes, no result built to be encoded -------

#: The paper's figure and table plans, as the benchmark's paper sweeps run them.
PAPER_PLANS = ("fig20_buffers", "fig21_resources", "fig22_registers", "fig23_evaluate",
               "table3_power")

#: sha256 over the cold records of PAPER_PLANS, key by key in key order,
#: each ``key\n`` then its body with ``created_unix`` (header bytes 24-32)
#: zeroed: any drift of a record's bytes fails here.
PAPER_RECORDS_SHA256 = "46d634512f2d08ce27ea71e3bcf54a4bdd0af87e91941bfcd51e6ba633c8aab7"


def _paper_records_digest(cache):
    digest = hashlib.sha256()
    keys = cache.keys()
    for key in keys:
        path, offset, length = cache.locate(key)
        with open(path, "rb") as handle:
            handle.seek(offset)
            body = bytearray(handle.read(length))
        assert body[:4] == b"\x93NPU"
        body[24:32] = bytes(8)
        digest.update(key.encode("ascii") + b"\n" + bytes(body))
    return len(keys), digest.hexdigest()


def test_a_cold_paper_sweep_charges_in_few_packed_passes(monkeypatch, tmp_path):
    passes = []
    charge_designs = jobs.charge_designs

    def counted(configs, networks, batches, estimates):
        passes.append(len(configs))
        return charge_designs(configs, networks, batches, estimates)

    calls: Counter = Counter()
    monkeypatch.setattr(jobs, "charge_designs", counted)
    _count_calls(monkeypatch, jobs._Charged, ("build",), calls)
    _count_calls(monkeypatch, jobs.ResultCache, ("get", "put", "_refresh"), calls)
    _count_calls(monkeypatch, jobs, ("result_to_dict", "simulate", "simulate_cmos"), calls)
    with jobs.session(cache_dir=tmp_path) as runner:
        resultsets = [plan.execute(plan.plan_by_name(name)) for name in PAPER_PLANS]
    assert (runner.stats.tasks, runner.stats.executed) == (285, 225)
    # 219 SFQ misses over five runs: at most 64 to a pass, none failed.
    assert sum(passes) == 219 and max(passes) <= jobs.GROUP_LIMIT
    assert len(passes) <= 8
    # Each miss is encoded straight from its slice of the pass; no result
    # is built to be written, and each run rescans the cache at most once.
    assert calls["build"] == calls["simulate"] == 0
    assert (calls["get"], calls["put"], calls["result_to_dict"]) == (285, 225, 225)
    assert calls["simulate_cmos"] == 6
    assert calls["_refresh"] <= len(PAPER_PLANS) + 1  # the handle's opening scan too
    assert _paper_records_digest(jobs.ResultCache(tmp_path)) == (225, PAPER_RECORDS_SHA256)

    # Read back, every run equals a warm hit's.
    with jobs.session(cache_dir=tmp_path):
        warm = [plan.execute(plan.plan_by_name(name)) for name in PAPER_PLANS]
    assert [[result.run for result in each] for each in resultsets] == [
        [result.run for result in each] for each in warm]


def test_a_cold_paper_sweep_has_no_group_fallback(tmp_path):
    obs.enable(metrics=True, tracing=False)
    try:
        with jobs.session(cache_dir=tmp_path):
            for name in PAPER_PLANS:
                plan.execute(plan.plan_by_name(name))
        counters = obs.metrics().snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
    assert counters["jobs.sim.executed"] == 225
    assert counters.get("jobs.sim.group_fallbacks", 0) == 0


def test_a_fresh_process_first_search_estimates_each_design_once(monkeypatch):
    # An empty process memo is a fresh process's: the runner's estimates
    # serve the charge passes too.
    monkeypatch.setattr(jobs, "_WORKER_ESTIMATES", {})
    calls: Counter = Counter()
    _count_calls(monkeypatch, jobs, ("estimate_npu",), calls)
    with jobs.session():
        first = search.search()
    assert calls == {"estimate_npu": 64}
    with jobs.session():
        again = search.search()
    assert calls == {"estimate_npu": 128}  # each session's runner estimates anew
    assert [(c.config.name, repr(c.mean_mac_per_s)) for c in first] == [
        (c.config.name, repr(c.mean_mac_per_s)) for c in again]


def test_reproduce_runs_fig23_and_table3_from_one_execution(monkeypatch):
    experiments = importlib.import_module("repro.core.experiments")
    with jobs.session() as runner:
        both = experiments.reproduce_all(only=["fig23_performance", "table3_power"])
    assert runner.stats.tasks == 36
    with jobs.session() as runner:
        alone = experiments.reproduce_all(only=["fig23_performance"])
    assert runner.stats.tasks == 30
    with jobs.session():
        table3 = experiments.reproduce_all(only=["table3_power"])
    assert json.dumps(both, sort_keys=True) == json.dumps({**alone, **table3}, sort_keys=True)
