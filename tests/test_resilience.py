"""The chaos suite: every recovery path must reproduce the clean serial run.

Exercises the resilient execution layer end to end — the error taxonomy,
retry/timeout/degradation in :class:`repro.core.jobs.JobRunner`, sweep
checkpointing, and cache quarantine — under failures injected by
:mod:`repro.core.chaos` (worker exceptions, hangs, SIGKILLed workers,
corrupted cache entries).  The invariant throughout: recovered results
are *equal* to a clean serial run's, and an interrupted sweep resumes
executing only the remaining tasks.
"""

import pickle

import pytest

from repro import api
from repro.core.chaos import (
    ANY_TASK,
    ChaosFailure,
    ChaosInjector,
    FaultSpec,
    corrupt_cache_entry,
)
from repro.core.jobs import JobRunner, ResultCache, SimTask, session
from repro.core.resilience import NO_RETRY, RetryPolicy, SweepCheckpoint
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


# -- retry policy and checkpoint primitives -------------------------------

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


def test_checkpoint_round_trip(tmp_path):
    journal = tmp_path / "sweep.journal"
    ckpt = SweepCheckpoint(journal)
    keys = ["ab" * 32, "cd" * 32]
    for key in keys:
        ckpt.mark(key)
    ckpt.mark(keys[0])  # idempotent
    reloaded = SweepCheckpoint(journal)
    assert len(reloaded) == 2 and all(k in reloaded for k in keys)
    reloaded.clear()
    assert not journal.exists() and len(SweepCheckpoint(journal)) == 0


def test_checkpoint_drops_torn_line(tmp_path):
    """A writer killed mid-append leaves a partial line; it must be ignored."""
    journal = tmp_path / "sweep.journal"
    good = "ab" * 32
    journal.write_text(good + "\n" + "cd" * 16)  # torn: only half a key
    ckpt = SweepCheckpoint(journal)
    assert len(ckpt) == 1 and good in ckpt
    ckpt.mark("ef" * 32)  # the repair must not splice onto the torn line
    assert len(SweepCheckpoint(journal)) == 2


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
    with pytest.raises(ConfigError):
        SimTask(api.design("supernpu"), api.workload("mobilenet"), batch=0)


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


# -- checkpointed sweeps ---------------------------------------------------

def test_interrupted_sweep_resumes_remaining_tasks(tmp_path, tasks, clean):
    cache = ResultCache(tmp_path / "cache")
    journal = tmp_path / "sweep.journal"
    # A fatal fault on the last task interrupts the sweep after 3 completions.
    chaos = ChaosInjector(tmp_path / "chaos",
                          {tasks[3].key(): FaultSpec("exception", times=10)})
    broken = JobRunner(jobs=1, cache=cache, checkpoint=SweepCheckpoint(journal),
                       chaos=chaos, retry=NO_RETRY)
    with pytest.raises(WorkerError):
        broken.run(tasks)
    assert len(SweepCheckpoint(journal)) == 3

    resumed = JobRunner(jobs=1, cache=cache, checkpoint=SweepCheckpoint(journal))
    assert resumed.run(tasks) == clean
    assert resumed.stats.executed == 1  # only the task that never finished
    assert resumed.stats.resumed == 3


def test_session_clears_checkpoint_only_on_clean_exit(tmp_path, tasks):
    journal = tmp_path / "ckpt.journal"
    with pytest.raises(RuntimeError):
        with session(cache_dir=tmp_path / "cache", checkpoint_path=journal) as runner:
            runner.run(tasks[:2])
            raise RuntimeError("killed mid-sweep")
    assert journal.exists()  # kept: there is something to resume

    with session(cache_dir=tmp_path / "cache", checkpoint_path=journal) as runner:
        runner.run(tasks[:2])
        assert runner.stats.resumed == 2
    assert not journal.exists()  # cleared: the sweep completed


# -- corrupted caches ------------------------------------------------------

@pytest.mark.parametrize("mode", ["truncate", "garbage", "wrong_schema",
                                  "poisoned_payload"])
def test_corrupt_cache_entry_is_quarantined_and_reexecuted(
        tmp_path, tasks, clean, mode):
    cache = ResultCache(tmp_path / "cache")
    JobRunner(jobs=1, cache=cache).run(tasks)
    corrupt_cache_entry(cache, tasks[0].key(), mode)

    runner = JobRunner(jobs=1, cache=cache)
    assert runner.run(tasks) == clean
    assert runner.stats.executed == 1  # only the damaged entry re-ran
    stats = cache.stats()
    assert stats.quarantined == 1
    # The repaired entry is a plain hit on the next pass.
    rerun = JobRunner(jobs=1, cache=cache)
    assert rerun.run(tasks) == clean
    assert rerun.stats.hits == len(tasks)


def test_put_cleans_up_tmp_file_on_replace_failure(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path / "cache")

    def broken_replace(src, dst):
        raise OSError("cross-device link")

    monkeypatch.setattr("repro.core.jobs.os.replace", broken_replace)
    with pytest.raises(CacheError) as excinfo:
        cache.put("ab" * 32, {"x": 1})
    assert excinfo.value.code == "cache.write_failed"
    assert not list(cache.root.rglob("*.tmp.*"))


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
    journal = tmp_path / "ckpt.journal"
    runner = JobRunner(jobs=2, cache=cache, chaos=chaos, retry=FAST_RETRY,
                       checkpoint=SweepCheckpoint(journal))
    assert runner.run(tasks) == clean
    resumed = JobRunner(jobs=1, cache=cache,
                        checkpoint=SweepCheckpoint(journal))
    assert resumed.run(tasks) == clean
    corrupt_cache_entry(cache, tasks[0].key(), "truncate")
    assert cache.get(tasks[0].key()) is None

    counters = obs_enabled.metrics().snapshot()["counters"]
    assert counters.get("jobs.retries", 0) + counters.get("jobs.pool_restarts", 0) >= 2
    assert counters.get("jobs.degraded", 0) >= 1
    assert counters.get("jobs.resumed", 0) >= len(tasks)
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
