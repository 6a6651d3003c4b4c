"""The job layer: content-addressed caching + parallel execution.

The two load-bearing guarantees:

* any change to any cache-key component (config, workload content,
  batch, library, schema version) is a miss — never a stale hit;
* serial, parallel, and warm-cache runs produce bitwise-identical
  results.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.baselines.scalesim import TPU_CORE
from repro.core.chaos import corrupt_cache_entry
from repro.core.evaluate import evaluate_suite
from repro.core.jobs import (
    CACHE_FORMAT_VERSION,
    JobRunner,
    ResultCache,
    SimTask,
    estimate_key,
    estimate_from_dict,
    estimate_to_dict,
    get_runner,
    result_from_dict,
    result_to_dict,
    session,
    use_runner,
)
from repro.device.cells import ersfq_library
from repro.simulator.engine import simulate
from repro.workloads.models import Network
from tests.payloads import columns_document


# -- cache keys ------------------------------------------------------------

def test_key_is_stable(supernpu_config, tiny_network, rsfq):
    task = SimTask(supernpu_config, tiny_network, 4, rsfq)
    same = SimTask(supernpu_config, tiny_network, 4, rsfq)
    assert task.key() == same.key()
    assert len(task.key()) == 64  # sha256 hex


def test_key_changes_with_config(supernpu_config, tiny_network, rsfq):
    base = SimTask(supernpu_config, tiny_network, 4, rsfq).key()
    tweaked = supernpu_config.with_updates(registers_per_pe=2)
    assert SimTask(tweaked, tiny_network, 4, rsfq).key() != base


def test_key_changes_with_batch(supernpu_config, tiny_network, rsfq):
    assert (SimTask(supernpu_config, tiny_network, 4, rsfq).key()
            != SimTask(supernpu_config, tiny_network, 8, rsfq).key())


def test_key_changes_with_workload_content(supernpu_config, tiny_network, rsfq):
    base = SimTask(supernpu_config, tiny_network, 4, rsfq).key()
    # Same network name, one layer edited: must still be a different key.
    edited_layers = (
        dataclasses.replace(tiny_network.layers[0], out_channels=4),
    ) + tiny_network.layers[1:]
    edited = Network(tiny_network.name, edited_layers)
    assert SimTask(supernpu_config, edited, 4, rsfq).key() != base


def test_key_changes_with_library(supernpu_config, tiny_network, rsfq):
    assert (SimTask(supernpu_config, tiny_network, 4, rsfq).key()
            != SimTask(supernpu_config, tiny_network, 4, ersfq_library()).key())


def test_cmos_and_sfq_kinds_never_collide(supernpu_config, tiny_network, rsfq):
    sfq = SimTask(supernpu_config, tiny_network, 1, rsfq)
    cmos = SimTask(TPU_CORE, tiny_network, 1)
    assert sfq.key() != cmos.key()
    assert cmos.is_cmos and not sfq.is_cmos


def test_estimate_key_distinct_from_sim_key(supernpu_config, tiny_network, rsfq):
    assert (estimate_key(supernpu_config, rsfq)
            != SimTask(supernpu_config, tiny_network, 1, rsfq).key())


def test_rejects_nonpositive_batch(supernpu_config, tiny_network):
    with pytest.raises(ValueError, match="batch"):
        SimTask(supernpu_config, tiny_network, 0)


# -- payload codecs --------------------------------------------------------

def test_result_roundtrip_is_exact(supernpu_config, tiny_network, rsfq):
    from repro.estimator.arch_level import estimate_npu

    run = simulate(supernpu_config, tiny_network, batch=2,
                   estimate=estimate_npu(supernpu_config, rsfq))
    restored = result_from_dict(result_to_dict(run))
    assert restored == run


def test_estimate_roundtrip_is_exact(supernpu_config, rsfq):
    from repro.estimator.arch_level import estimate_npu

    est = estimate_npu(supernpu_config, rsfq)
    restored = estimate_from_dict(json.loads(json.dumps(estimate_to_dict(est))))
    assert restored == est


# -- the on-disk cache -----------------------------------------------------

def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path / "c")
    assert cache.get("ab" * 32) is None
    cache.put("ab" * 32, {"x": 1}, kind="simulate")
    assert cache.get("ab" * 32) == {"x": 1}


def test_cache_ignores_other_schema_versions(tmp_path, supernpu_config, tiny_network, rsfq):
    # A record's format (a simulate record's header field, a JSON
    # document's "schema") is the entry format, not the key schema: any
    # other format (an older layout, a newer one) is a miss.
    from repro.estimator.arch_level import estimate_npu

    cache = ResultCache(tmp_path / "c")
    key = "cd" * 32
    record = result_to_dict(simulate(supernpu_config, tiny_network, batch=2,
                                     estimate=estimate_npu(supernpu_config, rsfq)))
    for payload in ({"x": 1}, record):
        for forged in (CACHE_FORMAT_VERSION - 1, CACHE_FORMAT_VERSION + 1):
            cache.put(key, payload)
            document = cache.document(key)
            document["schema"] = forged
            cache.put_document(key, document)
            assert cache.get(key) is None
            assert sorted(path.name for path in (cache.root / "quarantine").iterdir()) == [
                f"wrong-schema-{key}.entry"]


def test_cache_quarantines_corrupt_entries(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = "ef" * 32
    cache.put(key, {"x": 1})
    corrupt_cache_entry(cache, key, "garbage")
    assert cache.get(key) is None
    # The damaged entry is moved aside, not silently re-missed forever.
    assert key not in cache and key not in ResultCache(tmp_path / "c")
    assert (tmp_path / "c" / "quarantine" / f"corrupt-{key}.entry").is_file()
    stats = cache.stats()
    assert stats.entries == 0 and stats.quarantined == 1


def test_cache_stats_and_clear(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cache.put("11" * 32, {"a": 1}, kind="simulate")
    cache.put("22" * 32, {"b": 2}, kind="estimate")
    stats = cache.stats()
    assert stats.entries == 2 and stats.bytes > 0
    assert stats.by_kind == {"simulate": 1, "estimate": 1}
    assert cache.clear() == 2
    assert cache.stats().entries == 0


def test_cache_clear_removes_old_resume_journals(tmp_path, capsys):
    from repro.cli import main

    # Older versions journaled each CLI command under <cache>/checkpoints/.
    root = tmp_path / "c"
    ResultCache(root).put("11" * 32, {"a": 1})
    (root / "checkpoints").mkdir()
    (root / "checkpoints" / "evaluate.journal").write_text("11" * 32 + "\n")
    assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
    assert "removed 1 entries" in capsys.readouterr().out
    assert not (root / "checkpoints").exists()
    assert ResultCache(root).keys() == []


def test_cache_stats_count_damaged_records_as_corrupt(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cache.put("11" * 32, {"a": 1}, kind="simulate")
    cache.put_document("22" * 32, [1, 2])  # valid JSON, not an object
    cache.put("55" * 32, b"\x93NPU" + bytes(8))  # a format-4 magic, cut short of its header
    for key, mode in (("33" * 32, "truncate"), ("44" * 32, "garbage")):
        cache.put(key, {"c": 3}, kind="estimate")
        corrupt_cache_entry(cache, key, mode)  # torn, and sha-mismatched
    stats = cache.stats()
    assert stats.by_kind == {"simulate": 1, "corrupt": 4}
    assert stats.entries == 5 and stats.quarantined == 0


def _torn_segment(tmp_path, pid):
    """A segment named for ``pid`` holding one whole record, then the
    header and half the body of a second (a writer killed mid-append)."""
    cache = ResultCache(tmp_path / "c")
    cache.put("11" * 32, {"a": 1})
    cache.close()
    (whole,) = (cache.root / "segments").iterdir()
    size = whole.stat().st_size
    torn = whole.with_name(f"{pid}-{'0' * 16}.seg")
    whole.rename(torn)
    with open(torn, "ab") as handle:
        handle.write(f"{'22' * 32} 200 {'f' * 64}\n{{\"created".encode())
    return torn, size


def test_open_cuts_back_a_dead_writers_torn_tail(tmp_path, obs_enabled):
    # PID 99999999 is far beyond pid_max, so it is never alive.
    torn, size = _torn_segment(tmp_path, 99999999)
    reopened = ResultCache(tmp_path / "c")
    assert torn.stat().st_size == size
    assert reopened.get("11" * 32) == {"a": 1}
    assert reopened.get("22" * 32) is None
    stats = reopened.stats()
    assert stats.tmp_swept == 1 and stats.entries == 1
    assert obs_enabled.metrics().snapshot()["counters"]["jobs.cache.tmp_swept"] == 1
    # Nothing is left to cut on the next open.
    assert ResultCache(tmp_path / "c").stats().tmp_swept == 0


def test_live_writers_segment_is_left_alone(tmp_path):
    import os

    torn, _ = _torn_segment(tmp_path, os.getpid())
    size = torn.stat().st_size
    reopened = ResultCache(tmp_path / "c")
    # A live writer's tail is an append in flight: skipped, never cut.
    assert reopened.get("11" * 32) == {"a": 1}
    assert reopened.get("22" * 32) is None
    assert torn.stat().st_size == size
    assert reopened.stats().tmp_swept == 0


# -- the runner ------------------------------------------------------------

def test_runner_counts_hits_and_misses(tmp_path, supernpu_config, tiny_network, rsfq):
    tasks = [SimTask(supernpu_config, tiny_network, b, rsfq) for b in (1, 2)]
    runner = JobRunner(cache=ResultCache(tmp_path / "c"))
    cold = runner.run(tasks)
    assert runner.stats.misses == 2 and runner.stats.hits == 0
    assert runner.stats.executed == 2

    warm = runner.run(tasks)
    assert runner.stats.hits == 2 and runner.stats.executed == 2  # no new sims
    assert warm == cold


def test_warm_run_skips_simulation_entirely(tmp_path, supernpu_config,
                                            tiny_network, rsfq):
    tasks = [SimTask(supernpu_config, tiny_network, b, rsfq) for b in (1, 2, 4)]
    JobRunner(cache=ResultCache(tmp_path / "c")).run(tasks)

    fresh = JobRunner(cache=ResultCache(tmp_path / "c"))
    fresh.run(tasks)
    assert fresh.stats.executed == 0
    assert fresh.stats.hit_rate == 1.0


def test_cacheless_runner_always_simulates(supernpu_config, tiny_network, rsfq):
    task = SimTask(supernpu_config, tiny_network, 1, rsfq)
    runner = JobRunner()
    runner.run([task])
    runner.run([task])
    assert runner.stats.executed == 2


def test_runner_preserves_task_order(tmp_path, supernpu_config, tiny_network, rsfq):
    batches = (4, 1, 2)
    tasks = [SimTask(supernpu_config, tiny_network, b, rsfq) for b in batches]
    cache = ResultCache(tmp_path / "c")
    JobRunner(cache=cache).run([tasks[1]])  # pre-warm the middle task only
    runs = JobRunner(cache=cache).run(tasks)
    assert [run.batch for run in runs] == list(batches)


# -- grouped serial execution ---------------------------------------------

def test_serial_runner_groups_sfq_tasks_by_network(monkeypatch, supernpu_config,
                                                   baseline_config, tiny_network):
    from repro.core import jobs

    other = Network("other", tiny_network.layers[:2])
    tasks = ([SimTask(supernpu_config, tiny_network, b) for b in (1, 2)]
             + [SimTask(TPU_CORE, tiny_network, 1), SimTask(baseline_config, other, 3)]
             + [SimTask(baseline_config, tiny_network, b) for b in (3, 4)])
    expected = [JobRunner().run([task])[0] for task in tasks]
    groups, built, solos = [], [], []
    charge, simulate = jobs.charge_designs, jobs.simulate

    def grouped(configs, networks, batches, estimates):
        # A pass of one network gets that network, else one per point.
        names = ([networks.name] * len(configs) if isinstance(networks, Network)
                 else [network.name for network in networks])
        groups.append(list(zip(names, batches)))
        return charge(configs, networks, batches, estimates)

    def one(config, network, **kwargs):
        (solos if kwargs.get("charges") is None else built).append(network.name)
        return simulate(config, network, **kwargs)

    monkeypatch.setattr(jobs, "charge_designs", grouped)
    monkeypatch.setattr(jobs, "simulate", one)
    ran = JobRunner().run(tasks)
    # The four tiny_network SFQ tasks form one group and the lone task on
    # another network a second; both fit one pass, which lists them group
    # by group.  The CMOS baseline never reaches the SFQ simulator.  A
    # charged task's result is built from its slice when first read.
    assert groups == [[(tiny_network.name, b) for b in (1, 2, 3, 4)] + [("other", 3)]]
    assert solos == [] and built == []
    assert [ran.value(index, "total_cycles") for index in range(len(tasks))] == [
        run.total_cycles for run in expected]
    assert built == []
    assert ran == expected
    assert built == [tiny_network.name] * 2 + ["other"] + [tiny_network.name] * 2

    # Three to a pass: the tiny_network group is cut into [1, 2, 3] and
    # [4], and the "other" group joins the first pass it fits whole.
    groups.clear()
    monkeypatch.setattr(jobs, "GROUP_LIMIT", 3)
    assert JobRunner().run(tasks) == expected
    assert groups == [[(tiny_network.name, b) for b in (1, 2, 3)],
                      [(tiny_network.name, 4), ("other", 3)]]
    assert solos == []

    # One to a pass: each task is charged by its own simulate() call.
    groups.clear()
    monkeypatch.setattr(jobs, "GROUP_LIMIT", 1)
    assert JobRunner().run(tasks) == expected
    assert groups == []
    assert solos == [tiny_network.name] * 2 + ["other"] + [tiny_network.name] * 2


def test_a_group_that_raises_runs_its_tasks_one_by_one(monkeypatch, supernpu_config,
                                                      tiny_network):
    from repro.core import jobs

    def broken(*args):
        raise MemoryError("no room for the group")

    tasks = [SimTask(supernpu_config, tiny_network, b) for b in (1, 2, 3)]
    expected = [JobRunner().run([task])[0] for task in tasks]
    solos = []
    simulate = jobs.simulate

    def alone(config, network, **kwargs):
        solos.append(kwargs.get("charges"))
        return simulate(config, network, **kwargs)

    monkeypatch.setattr(jobs, "charge_designs", broken)
    monkeypatch.setattr(jobs, "simulate", alone)
    runner = JobRunner()
    ran = runner.run(tasks)
    assert solos == [None] * 3  # each task charged by its own simulate() call
    assert ran == expected
    assert runner.stats.retries == 0  # a group failure is no task's failure


def test_runner_estimate_memoizes(tmp_path, supernpu_config, rsfq):
    cache = ResultCache(tmp_path / "c")
    runner = JobRunner(cache=cache)
    first = runner.estimate(supernpu_config, rsfq)
    assert runner.estimate(supernpu_config, rsfq) is first  # in-process memo

    other = JobRunner(cache=cache)
    assert other.estimate(supernpu_config, rsfq) == first  # disk round-trip


def test_rejects_nonpositive_jobs():
    with pytest.raises(ValueError, match="jobs"):
        JobRunner(jobs=0)


# -- determinism: serial == parallel == warm cache -------------------------

def _suite_fingerprint(suite):
    """Every float of the Fig. 23 suite, exactly."""
    return json.dumps({
        "tpu": {name: columns_document(run) for name, run in suite.tpu_runs.items()},
        "designs": [
            {
                "name": ev.config.name,
                "runs": {n: columns_document(r) for n, r in ev.runs.items()},
                "speedups": ev.speedup_vs(suite.tpu_runs),
            }
            for ev in suite.designs
        ],
    }, sort_keys=True)


def test_parallel_suite_is_bitwise_identical_to_serial(tmp_path):
    serial = _suite_fingerprint(evaluate_suite())

    with session(jobs=4, cache_dir=tmp_path / "cache") as runner:
        parallel = _suite_fingerprint(evaluate_suite())
        assert runner.stats.executed == runner.stats.tasks  # all cold
    assert parallel == serial

    with session(jobs=4, cache_dir=tmp_path / "cache") as runner:
        warm = _suite_fingerprint(evaluate_suite())
        assert runner.stats.executed == 0  # pure cache
        assert runner.stats.hit_rate == 1.0
    assert warm == serial


# -- the ambient runner ----------------------------------------------------

def test_get_runner_defaults_to_shared_serial():
    runner = get_runner()
    assert runner.jobs == 1 and runner.cache is None
    assert get_runner() is runner


def test_use_runner_nests():
    outer, inner = JobRunner(), JobRunner()
    with use_runner(outer):
        assert get_runner() is outer
        with use_runner(inner):
            assert get_runner() is inner
        assert get_runner() is outer
    assert get_runner() is not outer


def test_session_builds_cache(tmp_path):
    with session(jobs=2, cache_dir=tmp_path / "c") as runner:
        assert runner.jobs == 2
        assert runner.cache is not None
        assert runner.cache.root == tmp_path / "c"
    with session() as runner:
        assert runner.jobs == 1 and runner.cache is None


# -- obs integration -------------------------------------------------------

def test_runner_exports_obs_counters(tmp_path, obs_enabled,
                                     supernpu_config, tiny_network, rsfq):
    tasks = [SimTask(supernpu_config, tiny_network, b, rsfq) for b in (1, 2)]
    runner = JobRunner(cache=ResultCache(tmp_path / "c"))
    runner.run(tasks)
    runner.run(tasks)
    snapshot = obs_enabled.metrics().snapshot()
    assert snapshot["counters"]["jobs.tasks"] == 4
    assert snapshot["counters"]["jobs.cache.hits"] == 2
    assert snapshot["counters"]["jobs.cache.misses"] == 2
    assert snapshot["counters"]["jobs.sim.executed"] == 2
    assert snapshot["gauges"]["jobs.workers"] == 1
