"""The ``repro.api`` facade: uniform design/workload/technology resolution."""

from __future__ import annotations

import threading

import pytest

from repro import api
from repro.core import jobs
from repro.core.config_io import config_to_dict, save
from repro.device.cells import Technology
from repro.workloads.models import by_name


# -- design resolution -----------------------------------------------------

def test_design_accepts_name(supernpu_config):
    assert api.design("supernpu") == supernpu_config


def test_design_passes_config_through(supernpu_config):
    assert api.design(supernpu_config) is supernpu_config


def test_design_accepts_dict(supernpu_config):
    assert api.design(config_to_dict(supernpu_config)) == supernpu_config


def test_design_accepts_path(tmp_path, supernpu_config):
    path = tmp_path / "d.json"
    save(supernpu_config, path)
    assert api.design(path) == supernpu_config          # Path object
    assert api.design(str(path)) == supernpu_config     # str ending in .json


def test_design_accepts_extensionless_file(tmp_path, supernpu_config):
    path = tmp_path / "design-no-ext"
    save(supernpu_config, path)
    assert api.design(str(path)) == supernpu_config


def test_design_unknown_name_raises():
    with pytest.raises(KeyError):
        api.design("meganpu")


def test_design_rejects_other_types():
    with pytest.raises(TypeError, match="design"):
        api.design(42)


# -- workload / library resolution -----------------------------------------

def test_workload_accepts_name_and_network(tiny_network):
    assert api.workload("alexnet") == by_name("alexnet")
    assert api.workload(tiny_network) is tiny_network
    with pytest.raises(TypeError, match="workload"):
        api.workload(3.14)


def test_library_accepts_all_spellings(rsfq):
    assert api.library("rsfq").technology is Technology.RSFQ
    assert api.library(Technology.ERSFQ).technology is Technology.ERSFQ
    assert api.library(rsfq) is rsfq
    with pytest.raises(ValueError):
        api.library("cmos")
    with pytest.raises(TypeError, match="library"):
        api.library(7)


# -- the verbs -------------------------------------------------------------

def test_estimate_matches_direct_path(supernpu_config, rsfq):
    from repro.estimator.arch_level import estimate_npu

    assert api.estimate("supernpu") == estimate_npu(supernpu_config, rsfq)


def test_estimate_ersfq_has_no_static_power():
    assert api.estimate("baseline", technology="ersfq").static_power_w == 0.0


def test_simulate_defaults_to_paper_batch(tiny_network):
    run = api.simulate("supernpu", "mobilenet")
    assert run.batch == 30  # Table II
    custom = api.simulate("supernpu", tiny_network, batch=2)
    assert custom.batch == 2 and custom.network == "TinyNet"


def test_simulate_with_timeline_fills_it(tiny_network):
    from repro.obs.timeline import CycleTimeline

    est = api.estimate("baseline")
    timeline = CycleTimeline(est.frequency_ghz)
    run = api.simulate("baseline", tiny_network, batch=1, timeline=timeline)
    assert timeline.events
    assert run.batch == 1


def test_evaluate_is_the_fig23_suite():
    suite = api.evaluate(designs=["baseline", "supernpu"], workloads=["alexnet"])
    speedups = suite.speedups()
    assert set(speedups) == {"Baseline", "SuperNPU"}
    assert speedups["SuperNPU"]["AlexNet"] > speedups["Baseline"]["AlexNet"]


def test_compare_resolves_specs(tmp_path, supernpu_config):
    path = tmp_path / "c.json"
    save(supernpu_config.with_updates(name="from-file"), path)
    columns = api.compare(["baseline", str(path)], workloads=["alexnet"])
    assert [c.config.name for c in columns] == ["Baseline", "from-file"]


def test_ablate_runs_through_facade(tiny_network):
    rows = api.ablate(workloads=[tiny_network])
    assert {"no_integration", "no_division"} <= {row.feature for row in rows}
    assert all(row.relative_to_full > 0 for row in rows)


def test_paper_workloads_order():
    names = [n.name for n in api.paper_workloads()]
    assert names[0] == "AlexNet" and len(names) == 6


# -- runner integration ----------------------------------------------------

def test_api_verbs_use_ambient_runner(tmp_path, tiny_network):
    with api.session(cache_dir=tmp_path / "c") as runner:
        api.simulate("supernpu", tiny_network, batch=1)
        assert runner.stats.misses == 1
        api.simulate("supernpu", tiny_network, batch=1)
        assert runner.stats.hits == 1


def test_api_accepts_explicit_runner(tiny_network):
    runner = api.JobRunner()
    with api.use_runner(runner):
        api.simulate("baseline", tiny_network, batch=1)
    assert runner.stats.tasks == 1


def test_ambient_runner_is_per_thread(tiny_network):
    runners = {3: api.JobRunner(), 5: api.JobRunner()}
    barrier = threading.Barrier(len(runners))
    failures = []

    def work(count):
        try:
            with api.use_runner(runners[count]):
                barrier.wait(timeout=60)  # both runners installed at once
                for batch in range(1, count + 1):
                    api.simulate("supernpu", tiny_network, batch=batch)
                barrier.wait(timeout=60)
        except BaseException as error:  # surfaced by the main thread
            failures.append(error)

    threads = [threading.Thread(target=work, args=(count,)) for count in runners]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    assert {count: runner.stats.tasks for count, runner in runners.items()} \
        == {3: 3, 5: 5}


def test_thread_without_a_runner_gets_the_default():
    seen = []
    with api.session() as runner:
        thread = threading.Thread(target=lambda: seen.append(api.get_runner()))
        thread.start()
        thread.join()
        assert api.get_runner() is runner
    assert len(seen) == 1 and seen[0] is jobs._DEFAULT_RUNNER


def test_facade_reexports_job_layer():
    assert api.get_runner is not None
    assert {"design", "estimate", "simulate", "evaluate", "compare",
            "session", "JobRunner"} <= set(api.__all__)
