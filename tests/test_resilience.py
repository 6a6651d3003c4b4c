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
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.chaos import (
    ANY_TASK,
    CORRUPTION_MODES,
    ChaosFailure,
    ChaosInjector,
    FaultSpec,
    corrupt_cache_entry,
)
from repro.core.jobs import (
    BLOCK_FIELDS,
    JobRunner,
    ResultCache,
    SimTask,
    estimate_key,
    result_from_dict,
    result_to_dict,
    session,
)
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
from repro.simulator.kernel import EXACT_LIMIT
from repro.workloads.models import Network
from tests.payloads import (
    LENGTH_FIELDS,
    RECORD_HEAD,
    columns_document,
    pack_record,
    unpack_record,
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

    def killed_on_second_pass(configs, networks, *args):
        passes.append(sorted({network.name for network in (
            [networks] if isinstance(networks, Network) else networks)}))
        if len(passes) == 2:
            raise KeyboardInterrupt  # the process dies inside the joint pass
        return charge_designs(configs, networks, *args)

    monkeypatch.setattr(jobs, "charge_designs", killed_on_second_pass)
    # Three to a pass: the three mobilenet tasks fill one, so the alexnet
    # group is a second pass.
    monkeypatch.setattr(jobs, "GROUP_LIMIT", 3)
    cache = ResultCache(tmp_path / "cache")
    with pytest.raises(KeyboardInterrupt):
        JobRunner(cache=cache).run(tasks)
    # A pass is charged when its first task comes up, so the mobilenet
    # tasks that came before the alexnet pass finished and were cached.
    assert passes == [[group_tasks[0].network.name], [other.name]]
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

#: The quarantine reason each corruption mode trips.
_REASONS = {"truncate": "corrupt", "garbage": "corrupt", "wrong_schema": "wrong-schema",
            "poisoned_payload": "poisoned-payload"}


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
    before = _body(cache, key)
    corrupt_cache_entry(cache, key, mode)
    if mode == "wrong_schema":  # the forged record keeps every byte but its format
        forged = _body(cache, key)
        assert forged[:4] == before[:4] and forged[8:] == before[8:]
        assert RECORD_HEAD.unpack_from(forged)[1] == -1

    runner = JobRunner(jobs=1, cache=cache)
    assert runner.run(tasks) == clean
    assert runner.lookup_estimate(config) == (estimate, entry != "estimate")
    # Only the damaged entry is recomputed, and it counts as a miss.
    assert runner.stats.executed == (1 if entry == "simulate" else 0)
    counters = obs_enabled.metrics().snapshot()["counters"]
    assert counters["jobs.estimate_cache.misses"] == (2 if entry == "estimate" else 1)
    stats = cache.stats()
    assert stats.quarantined == 1
    assert _quarantined(cache) == [f"{_REASONS[mode]}-{key}.entry"]
    # The repaired entry is a plain hit on the next pass.
    rerun = JobRunner(jobs=1, cache=cache)
    assert rerun.run(tasks) == clean
    assert rerun.stats.hits == len(tasks)
    assert rerun.lookup_estimate(config) == (estimate, True)


def _quarantined(cache):
    return sorted(path.name for path in (cache.root / "quarantine").iterdir())


def _body(cache, key):
    """The stored body of the record for ``key``."""
    segment, offset, length = cache.locate(key)
    with open(segment, "rb") as handle:
        handle.seek(offset)
        return handle.read(length)


#: Bytes forged over every ``total_cycles`` entry of a block, each read
#: as an int64 outside ``[0, 2**53)``, where int64 totals could wrap: text
#: digits and a float64 1.5 lie past the limit, a -1 "no value" below 0.
_FORGED = {"str": b"00000001", "none": (-1).to_bytes(8, "little", signed=True),
           "float": struct.pack("<d", 1.5), "limit": EXACT_LIMIT.to_bytes(8, "little")}

#: How each damage to a simulate record is quarantined.  Format 4 names
#: no block fields (its format fixes them), so a block with a row too few
#: or too many is short or long of ``8 x fields x layers``.
_DAMAGES = {
    "ragged": "corrupt",  # the block one entry short of 8 x fields x layers
    "missing": "corrupt",  # no macs row
    "extra": "corrupt",  # a bogus row after the others
    "reordered": "poisoned-payload",  # the activity units out of sorted order
    **{forged: "poisoned-payload" for forged in _FORGED},
}


@pytest.mark.parametrize("damage", list(_DAMAGES))
def test_malformed_layer_columns_are_poison(tmp_path, tasks, clean, damage):
    """A damaged block costs one miss and is quarantined under its reason."""
    cache = ResultCache(tmp_path / "cache")
    JobRunner(cache=cache).run(tasks)
    key = tasks[0].key()
    if damage == "reordered":  # units and their values reversed, lengths kept
        head, sections = unpack_record(_body(cache, key))
        values = sections["activity"]
        sections["units"] = b",".join(reversed(sections["units"].split(b",")))
        sections["activity"] = b"".join(
            values[at:at + 8] for at in reversed(range(0, len(values), 8)))
        cache.put(key, pack_record(head, sections))
    else:
        document = cache.document(key)
        payload = document["payload"]
        rows = np.frombuffer(payload["block"], "<i8").reshape(len(BLOCK_FIELDS), -1).copy()
        if damage == "ragged":
            rows = rows.ravel()[:-1]
        elif damage == "missing":
            rows = rows[:-1]
        elif damage == "extra":
            rows = np.vstack([rows, rows[-1:]])
        else:
            rows[BLOCK_FIELDS.index("total_cycles")] = np.frombuffer(_FORGED[damage], "<i8")[0]
        payload["block"] = rows.tobytes()
        cache.put_document(key, document)

    runner = JobRunner(cache=cache)
    assert _bits(runner.run(tasks)) == _bits(clean)
    assert runner.stats.executed == 1
    assert _quarantined(cache) == [f"{_DAMAGES[damage]}-{key}.entry"]
    assert JobRunner(cache=cache).run(tasks).cached == [True] * len(tasks)


def _to_older_format(cache, key, schema):
    """Rewrite one entry as entry format ``schema`` (1, 2 or 3) stored it:
    a JSON document, a simulate entry's layers as one int64 block after
    its compact sorted-key JSON header and ``\\n`` (3), as lists, one per
    field (2), or one dict per layer (1)."""
    document = {**cache.document(key), "schema": schema}
    payload = document["payload"]
    if "block" not in payload:  # an estimate
        cache.put_document(key, document)
    elif schema == 3:
        header = {**document, "payload": {**payload, "fields": BLOCK_FIELDS}}
        del header["payload"]["block"]
        cache.put(key, json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
                  + b"\n" + payload["block"])
    else:
        payload = columns_document(result_from_dict(_body(cache, key)))
        if schema == 1:
            columns = payload["layers"]
            payload["layers"] = [dict(zip(columns, row)) for row in zip(*columns.values())]
        cache.put_document(key, {**document, "payload": payload})


def _older_entries_cost_one_miss_each(tmp_path, tasks, clean, schema):
    config = tasks[0].config
    cache = ResultCache(tmp_path / "cache")
    filler = JobRunner(cache=cache)
    filler.run(tasks)
    estimate = filler.estimate(config)
    keys = [task.key() for task in tasks] + [estimate_key(config, library_for(Technology.RSFQ))]
    for key in keys:
        _to_older_format(cache, key, schema)
        body = _body(cache, key)
        assert body[:1] == b"{"  # a JSON text, not a format-4 record
        assert (b"\n" in body) == (schema == 3 and key != keys[-1])  # a block after it

    first = JobRunner(cache=cache)
    assert _bits(first.run(tasks)) == _bits(clean)
    assert first.lookup_estimate(config) == (estimate, False)
    assert first.stats.executed == len(tasks)
    assert _quarantined(cache) == sorted(f"wrong-schema-{key}.entry" for key in keys)

    second = JobRunner(cache=cache)
    assert _bits(second.run(tasks)) == _bits(clean)
    assert second.lookup_estimate(config) == (estimate, True)
    assert second.stats.hits == len(tasks) and second.stats.executed == 0
    assert len(_quarantined(cache)) == len(keys)


def test_row_layout_entries_cost_one_miss_each(tmp_path, tasks, clean):
    _older_entries_cost_one_miss_each(tmp_path, tasks, clean, schema=1)


def test_format2_list_column_entries_cost_one_miss_each(tmp_path, tasks, clean):
    _older_entries_cost_one_miss_each(tmp_path, tasks, clean, schema=2)


def test_format3_json_header_entries_cost_one_miss_each(tmp_path, tasks, clean):
    _older_entries_cost_one_miss_each(tmp_path, tasks, clean, schema=3)


#: Damage to a format-4 record body: a truncation to ``n`` bytes, one
#: byte xored with a mask, or one length or count field set to a new value.
_RECORD_DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.tuples(st.just("field"), st.sampled_from(sorted(LENGTH_FIELDS.values())),
              st.integers(0, 2 ** 32 - 1)),
)


@settings(max_examples=300, deadline=None)
@given(damage=_RECORD_DAMAGE)
def test_damaged_format4_records_never_raise(tmp_path_factory, clean, damage):
    """A damaged record, re-framed with a valid sha256, is a miss quarantined
    as ``corrupt`` or ``wrong-schema`` whenever its lengths no longer frame
    it; a byte flip the layout cannot tell apart either decodes or fails
    with a ValueError, which the runner quarantines as poison."""
    body = result_to_dict(clean[0])
    kind = damage[0]
    if kind == "truncate":
        damaged = body[:damage[1] % len(body)]
    elif kind == "flip":
        at = damage[1] % len(body)
        damaged = body[:at] + bytes([body[at] ^ damage[2]]) + body[at + 1:]
    else:
        head = list(RECORD_HEAD.unpack_from(body))
        assume(head[damage[1]] != damage[2])
        head[damage[1]] = damage[2]
        damaged = RECORD_HEAD.pack(*head) + body[RECORD_HEAD.size:]
    cache = ResultCache(tmp_path_factory.mktemp("fuzz"))
    key = "f" * 64
    cache.put(key, damaged)
    payload = cache.get(key)
    if kind != "flip":
        assert payload is None
    if payload is None:
        assert len(_quarantined(cache)) == 1
        assert _quarantined(cache)[0] in (f"corrupt-{key}.entry", f"wrong-schema-{key}.entry")
        return
    try:
        assert result_from_dict(payload).batch == RECORD_HEAD.unpack_from(damaged)[2]
    except ValueError:  # UnicodeDecodeError too: the runner's poisoned-payload
        pass


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
    assert _body(reopened, tasks[0].key())[:4] == RECORD_HEAD.unpack_from(
        _body(reopened, tasks[1].key()))[0] == b"\x93NPU"  # format-4 records
    runner = JobRunner(cache=reopened)
    assert _bits(runner.run(tasks)) == _bits(clean)
    assert (runner.stats.hits, runner.stats.executed) == (len(tasks) - 1, 1)
    assert runner.run([tasks[-1]])[0] == clean[-1]
    assert runner.stats.executed == 1  # the re-executed record is whole now


#: A writer that waits for argv[2] to exist, then appends 4 KiB records:
#: a format-4 one for each of its own keys, naming the key as its design
#: and the writer as its network, and a JSON one for each key every writer
#: shares.
CONCURRENT_WRITER = """
import os, sys, time
import numpy as np
from repro.core.jobs import ResultCache, result_to_dict
from repro.simulator.results import ActivityTrace, SimulationResult
root, go, name = sys.argv[1:4]
cache = ResultCache(root)
charges = np.arange(480, dtype=np.int64).reshape(10, 48)
while not os.path.exists(go):
    time.sleep(0.001)
for number in range(150):
    own, shared = f"{name}{number:062d}", f"ff{number:062d}"
    cache.put(own, result_to_dict(SimulationResult.from_charges(
        own, name, 1, 1.0, [name] * 48, charges, [0] * 10, ActivityTrace({"pe_array": 0.5}))))
    cache.put(shared, {"key": shared, "writer": name, "blob": name * 2048})
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
        if key.startswith("ff"):
            assert payload["key"] == key and payload["blob"] == payload["writer"] * 2048
        else:  # an own key's format-4 record sits in its writer's segment
            run = result_from_dict(payload)
            assert (run.design, run.network, run.layers[-1].macs) == (key, key[:2], 479)
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

    root = tmp_path / "cache"
    for task, run in zip(tasks, clean):
        key = task.key()
        bucket = root / key[:2]
        bucket.mkdir(parents=True, exist_ok=True)
        (bucket / f"{key}.json").write_text(json.dumps({
            "schema": 2, "kind": "simulate", "key": key,
            "created_unix": 0.0, "payload": columns_document(run)}, sort_keys=True))
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
    assert _quarantined(reader) == [f"poisoned-payload-{'11' * 32}.entry"]


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
