"""The chaos suite: every recovery path must reproduce the clean serial run.

Exercises the resilient execution layer end to end — the error taxonomy,
retry/timeout/degradation in :class:`repro.core.jobs.JobRunner`, resuming
a killed sweep from the cache, and cache quarantine — under failures injected by
:mod:`repro.core.chaos` (worker exceptions, hangs, SIGKILLed workers,
corrupted cache entries).  The invariant throughout: recovered results
are *equal* to a clean serial run's, and an interrupted sweep resumes
executing only the remaining tasks.
"""

import json
import pickle

import pytest

from repro import api
from repro.core.chaos import (
    ANY_TASK,
    CORRUPTION_MODES,
    ChaosFailure,
    ChaosInjector,
    FaultSpec,
    corrupt_cache_entry,
)
from repro.core.jobs import JobRunner, ResultCache, SimTask, estimate_key, session
from repro.core.resilience import NO_RETRY, RetryPolicy
from repro.device.cells import Technology, library_for
from repro.errors import (
    CacheError,
    ConfigError,
    ReproError,
    UnknownDesignError,
    UnknownWorkloadError,
    WorkerError,
    WorkloadError,
)

#: A retry policy that never sleeps, so chaos tests stay fast.
FAST_RETRY = RetryPolicy(max_retries=3, base_delay_s=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def tasks():
    design = api.design("supernpu")
    network = api.workload("mobilenet")
    return [SimTask(design, network, batch=b) for b in (1, 2, 4, 8)]


@pytest.fixture(scope="module")
def clean(tasks):
    """The golden results: a clean serial, cache-less run."""
    return JobRunner(jobs=1).run(tasks)


# -- the taxonomy ---------------------------------------------------------

def test_taxonomy_keeps_builtin_types():
    assert issubclass(ConfigError, ValueError)
    assert issubclass(UnknownDesignError, KeyError)
    assert issubclass(WorkloadError, ValueError)
    assert issubclass(UnknownWorkloadError, KeyError)
    assert issubclass(WorkerError, ReproError)


def test_taxonomy_exit_codes():
    assert ConfigError("x").exit_code == 2
    assert WorkloadError("x").exit_code == 3
    assert WorkerError("x").exit_code == 4
    assert CacheError("x").exit_code == 5


def test_error_carries_code_hint_context():
    error = ConfigError("bad batch", code="config.invalid_batch",
                        hint="use a positive batch", batch=-2)
    assert error.code == "config.invalid_batch"
    assert error.context == {"batch": -2}
    assert "hint" in error.describe()
    assert error.to_dict()["exit_code"] == 2


def test_error_survives_pickling():
    """Workers hand errors back through the process pool; nothing may drop."""
    original = WorkerError("boom", code="worker.retries_exhausted",
                           hint="see --retries", task="ab" * 32, attempts=3)
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is WorkerError
    assert copy.message == "boom"
    assert copy.code == "worker.retries_exhausted"
    assert copy.context["attempts"] == 3


def test_raise_sites_speak_taxonomy():
    with pytest.raises(UnknownDesignError):
        api.design("meganpu")
    with pytest.raises(UnknownWorkloadError):
        api.workload("meganet")
    with pytest.raises(ConfigError):
        api.library("cmos9000")
    with pytest.raises(ConfigError):
        api.design("supernpu").with_updates(pe_array_width=0)


# -- retry policy ---------------------------------------------------------

def test_retry_policy_backoff_is_bounded():
    policy = RetryPolicy(max_retries=5, base_delay_s=0.1, max_delay_s=0.5, jitter=0.0)
    delays = [policy.delay_s(n) for n in range(1, 6)]
    assert delays[0] == pytest.approx(0.1)
    assert delays[1] == pytest.approx(0.2)
    assert max(delays) <= 0.5
    assert NO_RETRY.delay_s(1) == 0.0


def test_retry_policy_jitter_is_seeded_rng_deterministic():
    """Backoff draws from the module RNG: seeding it pins the schedule."""
    import random

    policy = RetryPolicy(max_retries=4, base_delay_s=0.1, max_delay_s=2.0,
                         jitter=0.25)
    random.seed(1234)
    first = [policy.delay_s(n) for n in range(1, 5)]
    random.seed(1234)
    second = [policy.delay_s(n) for n in range(1, 5)]
    assert first == second  # bit-for-bit, not approx
    # And every draw respects the jitter envelope around pure backoff.
    for failures, delay in enumerate(first, start=1):
        base = min(2.0, 0.1 * (2 ** (failures - 1)))
        assert base <= delay <= base * 1.25


def test_retry_policy_zero_jitter_is_pure_exponential():
    policy = RetryPolicy(max_retries=6, base_delay_s=0.05, max_delay_s=0.4,
                         jitter=0.0)
    assert [policy.delay_s(n) for n in range(1, 6)] == \
        [0.05, 0.1, 0.2, 0.4, 0.4]
    assert policy.delay_s(0) == 0.0


def test_retry_policy_validation():
    with pytest.raises(ConfigError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ConfigError):
        RetryPolicy(jitter=2.0)


# -- chaos: transient failures, retry, exhaustion -------------------------

def test_transient_exceptions_are_retried(tmp_path, tasks, clean):
    chaos = ChaosInjector(tmp_path / "chaos",
                          {tasks[0].key(): FaultSpec("exception", times=2)})
    runner = JobRunner(jobs=1, chaos=chaos, retry=FAST_RETRY)
    assert runner.run(tasks) == clean
    assert runner.stats.retries == 2


def test_retries_exhausted_raises_worker_error(tmp_path, tasks):
    chaos = ChaosInjector(tmp_path / "chaos",
                          {tasks[0].key(): FaultSpec("exception", times=10)})
    runner = JobRunner(jobs=1, chaos=chaos,
                       retry=RetryPolicy(max_retries=1, base_delay_s=0.0, jitter=0.0))
    with pytest.raises(WorkerError) as excinfo:
        runner.run(tasks)
    assert excinfo.value.code == "worker.retries_exhausted"
    assert excinfo.value.context["attempts"] == 2


def test_deterministic_errors_are_never_retried(tmp_path):
    with pytest.raises(WorkloadError) as info:
        SimTask(api.design("supernpu"), api.workload("mobilenet"), batch=0)
    assert info.value.code == "workload.invalid_batch"


def test_parallel_retry_matches_serial(tmp_path, tasks, clean):
    chaos = ChaosInjector(tmp_path / "chaos",
                          {ANY_TASK: FaultSpec("exception", times=2)})
    runner = JobRunner(jobs=2, chaos=chaos, retry=FAST_RETRY)
    assert runner.run(tasks) == clean
    assert runner.stats.retries >= 1


# -- chaos: SIGKILLed workers, pool death, degradation --------------------

def test_sigkilled_worker_recovers(tmp_path, tasks, clean):
    chaos = ChaosInjector(tmp_path / "chaos",
                          {tasks[1].key(): FaultSpec("sigkill", times=1)})
    runner = JobRunner(jobs=2, chaos=chaos, retry=FAST_RETRY)
    assert runner.run(tasks) == clean
    assert runner.stats.pool_restarts >= 1


def test_pool_dying_twice_degrades_to_serial(tmp_path, tasks, clean):
    chaos = ChaosInjector(tmp_path / "chaos",
                          {ANY_TASK: FaultSpec("sigkill", times=3)})
    runner = JobRunner(jobs=2, chaos=chaos, retry=FAST_RETRY)
    assert runner.run(tasks) == clean
    assert runner.stats.degraded == 1
    assert runner.stats.pool_restarts == 2
    assert "[degraded to serial]" in runner.stats.describe()


def test_degrade_counters_transition_in_order(tmp_path, tasks, clean,
                                              obs_enabled):
    """The ladder is restart → restart → degrade, and the counters say so."""
    chaos = ChaosInjector(tmp_path / "chaos",
                          {ANY_TASK: FaultSpec("sigkill", times=3)})
    runner = JobRunner(jobs=2, chaos=chaos, retry=FAST_RETRY)
    assert runner.run(tasks) == clean
    counters = obs_enabled.metrics().snapshot()["counters"]
    assert counters.get("jobs.pool_restarts") == 2
    assert counters.get("jobs.degraded") == 1
    # A single kill only restarts: no degrade counter appears.
    obs_enabled.reset()
    chaos_single = ChaosInjector(tmp_path / "chaos-single",
                                 {ANY_TASK: FaultSpec("sigkill", times=1)})
    healthy = JobRunner(jobs=2, chaos=chaos_single, retry=FAST_RETRY)
    assert healthy.run(tasks) == clean
    counters = obs_enabled.metrics().snapshot()["counters"]
    assert counters.get("jobs.pool_restarts") == 1
    assert "jobs.degraded" not in counters


# -- chaos: hangs and per-task timeouts -----------------------------------

def test_hung_task_is_timed_out_and_retried(tmp_path, tasks, clean):
    chaos = ChaosInjector(tmp_path / "chaos",
                          {tasks[1].key(): FaultSpec("hang", times=1,
                                                     hang_seconds=30.0)})
    runner = JobRunner(jobs=2, chaos=chaos, timeout_s=1.5, retry=FAST_RETRY)
    assert runner.run(tasks) == clean
    assert runner.stats.timeouts >= 1


# -- resuming a killed sweep from the cache --------------------------------

def test_interrupted_sweep_resumes_remaining_tasks(tmp_path, tasks, clean):
    cache = ResultCache(tmp_path / "cache")
    # A fatal fault on the last task interrupts the sweep after 3 completions.
    chaos = ChaosInjector(tmp_path / "chaos",
                          {tasks[3].key(): FaultSpec("exception", times=10)})
    broken = JobRunner(jobs=1, cache=cache, chaos=chaos, retry=NO_RETRY)
    with pytest.raises(WorkerError):
        broken.run(tasks)
    assert set(cache.keys()) == {task.key() for task in tasks[:3]}

    resumed = JobRunner(jobs=1, cache=cache)
    assert resumed.run(tasks) == clean
    assert resumed.stats.executed == 1  # only the task that never finished
    assert resumed.stats.hits == 3


def test_session_keeps_finished_tasks_when_the_block_raises(tmp_path, tasks):
    # A session that raises mid-sweep keeps what it finished: the cache is
    # the resume record.
    with pytest.raises(RuntimeError):
        with session(cache_dir=tmp_path / "cache") as runner:
            runner.run(tasks[:2])
            raise RuntimeError("killed mid-sweep")
    assert set(ResultCache(tmp_path / "cache").keys()) == {task.key() for task in tasks[:2]}

    with session(cache_dir=tmp_path / "cache") as runner:
        runner.run(tasks[:2])
        assert runner.stats.hits == 2


# -- grouped serial runs ---------------------------------------------------
#
# A serial runner charges the pending SFQ tasks of one network together
# (one array pass); each task still fires its own chaos, is retried and
# cached on its own.  The reference is the per-task path: the same
# tasks run one ``run()`` at a time, where there is nothing to group.

@pytest.fixture(scope="module")
def group_tasks():
    network = api.workload("mobilenet")
    return [SimTask(api.design(name), network, batch=batch)
            for name, batch in (("supernpu", 1), ("baseline", 3), ("supernpu", 8),
                                ("bufferopt", 2), ("resourceopt", 5), ("baseline", 1))]


def _bits(runs):
    """Everything a result holds, floats as hex."""
    return [(run.design, run.network, run.batch, run.frequency_ghz.hex(), run.layers,
             [(unit, value.hex()) for unit, value in run.activity.effective_cycles.items()])
            for run in runs]


def _chaos_sweep(tmp_path, tasks, grouped, counters):
    """Fill the cache with two tasks, corrupt one, then run all of them
    with a chaos exception on a third; returns results and counters."""
    cache = ResultCache(tmp_path / "cache")
    JobRunner(cache=cache).run([tasks[0]])
    JobRunner(cache=cache).run([tasks[4]])
    corrupt_cache_entry(cache, tasks[0].key(), "garbage")
    chaos = ChaosInjector(tmp_path / "chaos",
                          {tasks[2].key(): FaultSpec("exception", times=2)})
    counters.reset()
    counters.enable()
    runner = JobRunner(cache=cache, chaos=chaos, retry=FAST_RETRY)
    if grouped:
        runs = runner.run(tasks)
    else:
        runs = [runner.run([task])[0] for task in tasks]
    snapshot = counters.metrics().snapshot()["counters"]
    return runs, {name: snapshot.get(name, 0) for name in (
        "jobs.retries", "jobs.cache.quarantined", "jobs.cache.hits", "jobs.sim.executed",
        "sim.runs", "sim.cycles")}


def test_grouped_serial_run_matches_the_per_task_path(tmp_path, group_tasks, obs_enabled,
                                                      monkeypatch):
    from repro.core import jobs

    clean = [JobRunner().run([task])[0] for task in group_tasks]
    groups = []
    charge_designs = jobs.charge_designs

    def spy(configs, *args):
        groups.append(len(configs))
        return charge_designs(configs, *args)

    monkeypatch.setattr(jobs, "charge_designs", spy)
    per_task, per_task_counts = _chaos_sweep(tmp_path / "solo", group_tasks, False,
                                             obs_enabled)
    assert groups == []
    grouped, grouped_counts = _chaos_sweep(tmp_path / "grouped", group_tasks, True,
                                           obs_enabled)
    assert groups == [5]  # task 4 hit the cache; the other five went together
    assert _bits(grouped) == _bits(per_task) == _bits(clean)
    assert grouped_counts == per_task_counts
    assert grouped_counts["jobs.retries"] == 2
    assert grouped_counts["jobs.cache.quarantined"] == 1


def test_run_killed_mid_group_resumes(tmp_path, group_tasks):
    clean = [JobRunner().run([task])[0] for task in group_tasks]
    cache = ResultCache(tmp_path / "cache")
    chaos = ChaosInjector(tmp_path / "chaos",
                          {group_tasks[3].key(): FaultSpec("exception", times=10)})
    broken = JobRunner(cache=cache, chaos=chaos, retry=NO_RETRY)
    with pytest.raises(WorkerError):
        broken.run(group_tasks)
    # The group was charged together, but tasks finish one by one: the
    # three before the failing one are cached.
    assert set(cache.keys()) == {task.key() for task in group_tasks[:3]}

    resumed = JobRunner(cache=cache)
    assert _bits(resumed.run(group_tasks)) == _bits(clean)
    assert resumed.stats.executed == 3
    assert resumed.stats.hits == 3


def test_run_killed_while_charging_a_group_keeps_earlier_tasks(tmp_path, group_tasks,
                                                              monkeypatch):
    from repro.core import jobs

    other = api.workload("alexnet")
    tasks = [group_tasks[0], group_tasks[1], SimTask(api.design("baseline"), other, 2),
             group_tasks[2], SimTask(api.design("supernpu"), other, 4)]
    clean = [JobRunner().run([task])[0] for task in tasks]
    passes = []
    charge_designs = jobs.charge_designs

    def killed_on_second_pass(configs, network, *args):
        passes.append(network.name)
        if len(passes) == 2:
            raise KeyboardInterrupt  # the process dies inside the joint pass
        return charge_designs(configs, network, *args)

    monkeypatch.setattr(jobs, "charge_designs", killed_on_second_pass)
    cache = ResultCache(tmp_path / "cache")
    with pytest.raises(KeyboardInterrupt):
        JobRunner(cache=cache).run(tasks)
    # A group is charged when its first task comes up, so the mobilenet
    # tasks that came before the alexnet group finished and were cached.
    assert passes == [group_tasks[0].network.name, other.name]
    assert set(cache.keys()) == {task.key() for task in tasks[:2]}

    monkeypatch.setattr(jobs, "charge_designs", charge_designs)
    resumed = JobRunner(cache=cache)
    assert _bits(resumed.run(tasks)) == _bits(clean)
    assert resumed.stats.hits == 2
    assert resumed.stats.executed == 3


# -- corrupted caches ------------------------------------------------------

#: Each corruption mode on a simulate entry, plus a poisoned estimate entry.
CORRUPT_ENTRIES = [pytest.param(mode, "simulate", id=mode) for mode in CORRUPTION_MODES] + [
    pytest.param("poisoned_payload", "estimate", id="poisoned_estimate")]


@pytest.mark.parametrize("mode, entry", CORRUPT_ENTRIES)
def test_corrupt_cache_entry_is_quarantined_and_reexecuted(
        tmp_path, tasks, clean, obs_enabled, mode, entry):
    config = tasks[0].config
    cache = ResultCache(tmp_path / "cache")
    filler = JobRunner(jobs=1, cache=cache)
    filler.run(tasks)
    estimate = filler.estimate(config)
    key = (tasks[0].key() if entry == "simulate"
           else estimate_key(config, library_for(Technology.RSFQ)))
    corrupt_cache_entry(cache, key, mode)

    runner = JobRunner(jobs=1, cache=cache)
    assert runner.run(tasks) == clean
    assert runner.lookup_estimate(config) == (estimate, entry != "estimate")
    # Only the damaged entry is recomputed, and it counts as a miss.
    assert runner.stats.executed == (1 if entry == "simulate" else 0)
    counters = obs_enabled.metrics().snapshot()["counters"]
    assert counters["jobs.estimate_cache.misses"] == (2 if entry == "estimate" else 1)
    stats = cache.stats()
    assert stats.quarantined == 1
    # The repaired entry is a plain hit on the next pass.
    rerun = JobRunner(jobs=1, cache=cache)
    assert rerun.run(tasks) == clean
    assert rerun.stats.hits == len(tasks)
    assert rerun.lookup_estimate(config) == (estimate, True)


def _quarantined(cache):
    return sorted(path.name for path in (cache.root / "quarantine").iterdir())


#: Values forged over every ``total_cycles`` entry: a str or None would
#: break the first read of a total, a float would be served as a wrong rate.
_FORGED = {"str": "1", "none": None, "float": 1.5}


@pytest.mark.parametrize("damage", ["ragged", "missing", "extra", *_FORGED])
def test_malformed_layer_columns_are_poison(tmp_path, tasks, clean, damage):
    cache = ResultCache(tmp_path / "cache")
    JobRunner(cache=cache).run(tasks)
    key = tasks[0].key()
    document = cache.document(key)
    columns = document["payload"]["layers"]
    if damage == "ragged":
        columns["macs"].pop()  # zip would drop the last layer silently
    elif damage == "missing":
        del columns["macs"]
    elif damage == "extra":
        columns["bogus"] = list(columns["macs"])
    else:
        columns["total_cycles"] = [_FORGED[damage]] * len(columns["total_cycles"])
    cache.put_document(key, document)

    runner = JobRunner(cache=cache)
    assert _bits(runner.run(tasks)) == _bits(clean)
    assert runner.stats.executed == 1
    assert _quarantined(cache) == [f"poisoned-payload-{key}.json"]


def _to_row_layout(cache, key):
    """Rewrite one entry as entry format 1 stored it: one dict per layer."""
    document = cache.document(key)
    payload = document["payload"]
    if "layers" in payload:
        columns = payload["layers"]
        payload["layers"] = [dict(zip(columns, row)) for row in zip(*columns.values())]
    document["schema"] = 1
    cache.put_document(key, document)


def test_row_layout_entries_cost_one_miss_each(tmp_path, tasks, clean):
    config = tasks[0].config
    cache = ResultCache(tmp_path / "cache")
    filler = JobRunner(cache=cache)
    filler.run(tasks)
    estimate = filler.estimate(config)
    keys = [task.key() for task in tasks] + [estimate_key(config, library_for(Technology.RSFQ))]
    for key in keys:
        _to_row_layout(cache, key)

    first = JobRunner(cache=cache)
    assert _bits(first.run(tasks)) == _bits(clean)
    assert first.lookup_estimate(config) == (estimate, False)
    assert first.stats.executed == len(tasks)
    assert _quarantined(cache) == sorted(f"wrong-schema-{key}.json" for key in keys)

    second = JobRunner(cache=cache)
    assert _bits(second.run(tasks)) == _bits(clean)
    assert second.lookup_estimate(config) == (estimate, True)
    assert second.stats.hits == len(tasks) and second.stats.executed == 0
    assert len(_quarantined(cache)) == len(keys)


# -- cache segments --------------------------------------------------------

def _segments(cache):
    return sorted((cache.root / "segments").iterdir())


def _spawn(script, *args):
    """Start ``script`` in a fresh interpreter that imports this checkout."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    return subprocess.Popen([sys.executable, "-c", script, *map(str, args)], env=env)


def test_failed_append_raises_and_indexes_nothing(tmp_path, monkeypatch):
    import os

    cache = ResultCache(tmp_path / "cache")
    cache.put("11" * 32, {"a": 1})
    (segment,) = _segments(cache)
    size = segment.stat().st_size
    write = os.write

    def short_write(fd, data):  # half the frame lands, then the disk fills
        return write(fd, data[: len(data) // 2])

    def no_space(fd, data):
        raise OSError(28, "No space left on device")

    for broken in (short_write, no_space):
        monkeypatch.setattr("repro.core.jobs.os.write", broken)
        with pytest.raises(CacheError) as excinfo:
            cache.put("22" * 32, {"b": 2})
        monkeypatch.undo()
        assert excinfo.value.code == "cache.write_failed"
        assert "22" * 32 not in cache
        assert "22" * 32 not in ResultCache(tmp_path / "cache")
    # The torn frame is cut back; the next append opens a fresh segment.
    assert segment.stat().st_size == size
    cache.put("33" * 32, {"c": 3})
    assert ResultCache(tmp_path / "cache").keys() == ["11" * 32, "33" * 32]


#: A child that runs ``tasks`` into the cache at argv[1] and SIGKILLs
#: itself after writing the header of the last task's record.
KILLED_MID_APPEND = """
import os, signal, sys
from repro import api
from repro.core.jobs import JobRunner, ResultCache, SimTask
design, network = api.design("supernpu"), api.workload("mobilenet")
tasks = [SimTask(design, network, batch=b) for b in (1, 2, 4, 8)]
write, appends = os.write, []
def write_then_die(fd, data):
    appends.append(fd)
    if len(appends) == len(tasks):
        write(fd, data[: data.index(b"\\n") + 1])
        os.kill(os.getpid(), signal.SIGKILL)
    return write(fd, data)
os.write = write_then_die
JobRunner(cache=ResultCache(sys.argv[1])).run(tasks)
"""


def test_writer_killed_mid_append_costs_one_miss(tmp_path, tasks, clean):
    import signal

    child = _spawn(KILLED_MID_APPEND, tmp_path / "cache")
    assert child.wait(timeout=120) == -signal.SIGKILL
    (segment,) = (tmp_path / "cache" / "segments").iterdir()
    torn = segment.read_bytes()

    reopened = ResultCache(tmp_path / "cache")
    whole = segment.read_bytes()
    # Cut back by exactly the orphaned header line.
    assert torn.startswith(whole) and whole.endswith(b"\n")
    assert torn[len(whole):].count(b"\n") == 1 and torn.endswith(b"\n")
    assert reopened.stats().tmp_swept == 1
    runner = JobRunner(cache=reopened)
    assert _bits(runner.run(tasks)) == _bits(clean)
    assert (runner.stats.hits, runner.stats.executed) == (len(tasks) - 1, 1)
    assert runner.run([tasks[-1]])[0] == clean[-1]
    assert runner.stats.executed == 1  # the re-executed record is whole now


#: A writer that waits for argv[2] to exist, then appends 4 KiB records
#: for its own keys and for keys every writer shares.
CONCURRENT_WRITER = """
import os, sys, time
from repro.core.jobs import ResultCache
root, go, name = sys.argv[1:4]
cache = ResultCache(root)
while not os.path.exists(go):
    time.sleep(0.001)
for number in range(150):
    for key in (f"{name}{number:062d}", f"ff{number:062d}"):
        cache.put(key, {"key": key, "writer": name, "blob": name * 2048})
"""


def test_two_writer_processes_lose_and_interleave_nothing(tmp_path):
    root, go = tmp_path / "cache", tmp_path / "go"
    writers = {name: _spawn(CONCURRENT_WRITER, root, go, name) for name in ("aa", "bb")}
    go.touch()
    assert all(child.wait(timeout=120) == 0 for child in writers.values())

    cache = ResultCache(root)
    keys = {f"{name}{number:062d}" for name in ("aa", "bb", "ff") for number in range(150)}
    assert set(cache.keys()) == keys
    for key in sorted(keys):
        payload = cache.get(key)
        assert payload["key"] == key and payload["blob"] == payload["writer"] * 2048
        if not key.startswith("ff"):  # an own key sits in its writer's segment
            assert payload["writer"] == key[:2]
            assert cache.locate(key)[0].name.startswith(f"{writers[key[:2]].pid}-")
    stats = cache.stats()
    assert "corrupt" not in stats.by_kind and stats.entries == len(keys)
    assert stats.tmp_swept == 0 and len(_segments(cache)) == 2


def test_serve_threads_share_one_cache(tmp_path):
    import sys
    import threading

    cache = ResultCache(tmp_path / "cache")
    threads_n, per_thread = 8, 40

    def writer(thread):
        for number in range(per_thread):
            key = f"{thread:02d}{number:062d}"
            cache.put(key, {"thread": thread, "number": number})
            assert cache.get(key) == {"thread": thread, "number": number}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(thread,)) for thread in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    reopened = ResultCache(tmp_path / "cache")
    expected = {f"{t:02d}{n:062d}": {"thread": t, "number": n}
                for t in range(threads_n) for n in range(per_thread)}
    assert reopened.keys() == sorted(expected)
    assert all(reopened.get(key) == payload for key, payload in expected.items())
    assert reopened.stats().by_kind == {"simulate": threads_n * per_thread}
    assert len(_segments(cache)) == 1


def test_legacy_per_file_entries_cost_one_miss_and_are_cleared(tmp_path, tasks, clean,
                                                                capsys):
    from repro.cli import main
    from repro.core.jobs import CACHE_FORMAT_VERSION, result_to_dict

    root = tmp_path / "cache"
    for task, run in zip(tasks, clean):
        key = task.key()
        bucket = root / key[:2]
        bucket.mkdir(parents=True, exist_ok=True)
        (bucket / f"{key}.json").write_text(json.dumps({
            "schema": CACHE_FORMAT_VERSION, "kind": "simulate", "key": key,
            "created_unix": 0.0, "payload": result_to_dict(run)}, sort_keys=True))
        (bucket / f"{key}.tmp.99999999").write_text("{torn")
    first = JobRunner(cache=ResultCache(root))
    assert _bits(first.run(tasks)) == _bits(clean)
    assert first.stats.executed == len(tasks)
    second = JobRunner(cache=ResultCache(root))
    assert second.run(tasks) == clean and second.stats.hits == len(tasks)

    assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
    assert f"removed {2 * len(tasks)} entries" in capsys.readouterr().out
    assert sorted(path.name for path in root.iterdir()) == []


def test_quarantined_record_stays_dead_in_any_scan_order(tmp_path, monkeypatch):
    import os

    root = tmp_path / "cache"
    ResultCache(root).put("11" * 32, {"poisoned": True})
    ResultCache(root).put("22" * 32, {"b": 2})
    reader = ResultCache(root)
    assert reader.quarantine("11" * 32, reason="poisoned-payload") is not None
    listdir = os.listdir
    for order in (sorted, lambda names: sorted(names, reverse=True)):
        monkeypatch.setattr("repro.core.jobs.os.listdir", lambda path: order(listdir(path)))
        reopened = ResultCache(root)
        assert "11" * 32 not in reopened and reopened.get("11" * 32) is None
        assert reopened.get("22" * 32) == {"b": 2}
    # A fresh record for the key, written after the tombstone, is live.
    reader.put("11" * 32, {"a": 1})
    for order in (sorted, lambda names: sorted(names, reverse=True)):
        monkeypatch.setattr("repro.core.jobs.os.listdir", lambda path: order(listdir(path)))
        assert ResultCache(root).get("11" * 32) == {"a": 1}
    monkeypatch.undo()
    assert len(_segments(reader)) == 3
    assert _quarantined(reader) == [f"poisoned-payload-{'11' * 32}.json"]


# -- chaos harness self-checks --------------------------------------------

def test_fault_budget_is_enforced_across_injectors(tmp_path):
    spec = FaultSpec("exception", times=2)
    first = ChaosInjector(tmp_path / "chaos", {"k" * 64: spec})
    second = ChaosInjector(tmp_path / "chaos", {"k" * 64: spec})
    fired = 0
    for injector in (first, second, first, second):
        try:
            injector.fire("k" * 64)
        except ChaosFailure:
            fired += 1
    assert fired == 2  # the on-disk ledger caps firings across instances


def test_fault_spec_validation():
    with pytest.raises(ConfigError):
        FaultSpec("meltdown")
    with pytest.raises(ConfigError):
        FaultSpec("exception", times=0)


# -- observability ---------------------------------------------------------

def test_resilience_counters_are_exported(tmp_path, tasks, clean, obs_enabled):
    chaos = ChaosInjector(tmp_path / "chaos",
                          {ANY_TASK: FaultSpec("sigkill", times=3)})
    cache = ResultCache(tmp_path / "cache")
    runner = JobRunner(jobs=2, cache=cache, chaos=chaos, retry=FAST_RETRY)
    assert runner.run(tasks) == clean
    resumed = JobRunner(jobs=1, cache=cache)
    assert resumed.run(tasks) == clean
    corrupt_cache_entry(cache, tasks[0].key(), "truncate")
    assert cache.get(tasks[0].key()) is None

    counters = obs_enabled.metrics().snapshot()["counters"]
    assert counters.get("jobs.retries", 0) + counters.get("jobs.pool_restarts", 0) >= 2
    assert counters.get("jobs.degraded", 0) >= 1
    assert counters.get("jobs.cache.hits", 0) >= len(tasks)
    assert counters.get("jobs.cache.quarantined", 0) >= 1


def test_pool_that_dies_before_a_submit_is_rebuilt(monkeypatch, tasks, clean):
    """A worker can die after ``wait`` returns and before the next
    ``submit``, which then raises instead of returning a future: the
    stranded task is re-queued and the pool rebuilt, not the sweep lost."""
    from concurrent.futures.process import BrokenProcessPool

    from repro.core import jobs

    pools = []

    class DeadOnArrival(jobs.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

        def submit(self, *args, **kwargs):
            if self is pools[0]:
                raise BrokenProcessPool("a worker died")
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(jobs, "ProcessPoolExecutor", DeadOnArrival)
    runner = JobRunner(jobs=2)
    assert runner.run(tasks) == clean
    assert runner.stats.pool_restarts == 1 and len(pools) == 2
