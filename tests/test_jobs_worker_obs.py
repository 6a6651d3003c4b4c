"""Cross-process worker observability: sidecar capture + parent merge.

The guarantee under test: running a sweep with ``--jobs N`` loses no
telemetry relative to a serial run.  Worker processes write their
counters / spans / hotspot stats into per-task sidecars; the parent
merges them under the ``jobs.worker.`` prefix and into one Chrome trace
with one lane per worker PID.
"""

from __future__ import annotations

import json

from repro.core.jobs import JobRunner, SimTask


def _tasks(config, network, library, batches=(1, 2, 3)):
    return [SimTask(config, network, b, library) for b in batches]


def _sim_counters(snapshot, prefix="sim."):
    return {name: value for name, value in snapshot["counters"].items()
            if name.startswith(prefix)}


def _worker_counters(snapshot):
    prefix = "jobs.worker."
    return {name[len(prefix):]: value
            for name, value in snapshot["counters"].items()
            if name.startswith(prefix + "sim.")}


def test_parallel_worker_counters_match_serial_totals(
        obs_enabled, supernpu_config, tiny_network, rsfq):
    serial_results = JobRunner().run(_tasks(supernpu_config, tiny_network, rsfq))
    serial = _sim_counters(obs_enabled.metrics().snapshot())
    assert serial  # the simulator does count things

    obs_enabled.reset()
    obs_enabled.enable()
    parallel_results = JobRunner(jobs=2).run(
        _tasks(supernpu_config, tiny_network, rsfq))
    snapshot = obs_enabled.metrics().snapshot()

    assert [r.total_cycles for r in parallel_results] == \
        [r.total_cycles for r in serial_results]
    assert _worker_counters(snapshot) == serial
    assert snapshot["counters"]["jobs.worker.sidecars"] == 3


def test_merged_trace_has_one_lane_per_worker_pid(
        tmp_path, obs_enabled, supernpu_config, tiny_network, rsfq):
    JobRunner(jobs=2).run(_tasks(supernpu_config, tiny_network, rsfq))
    foreign = obs_enabled.tracer().foreign_pids()
    assert foreign  # at least one worker contributed spans

    out = tmp_path / "trace.json"
    obs_enabled.write_trace(out)
    document = json.loads(out.read_text(encoding="utf-8"))
    events = document["traceEvents"]
    pids = {event["pid"] for event in events}
    assert set(foreign) <= pids
    lanes = {event["args"]["name"] for event in events
             if event.get("ph") == "M" and event.get("name") == "process_name"}
    assert any(name.startswith("worker-") for name in lanes)
    # Worker spans carry real durations in the parent's clock domain.
    worker_spans = [event for event in events
                    if event.get("ph") == "X" and event["pid"] != 1]
    assert worker_spans
    assert all(event["dur"] >= 0 and event["ts"] >= 0 for event in worker_spans)


def test_zero_task_sweep_produces_valid_empty_trace(
        tmp_path, obs_enabled):
    assert JobRunner(jobs=4).run([]) == []
    assert obs_enabled.tracer().foreign_pids() == []
    out = tmp_path / "trace.json"
    obs_enabled.write_trace(out)
    document = json.loads(out.read_text(encoding="utf-8"))
    assert isinstance(document["traceEvents"], list)


def test_single_task_sweep_takes_serial_path(
        tmp_path, obs_enabled, supernpu_config, tiny_network, rsfq):
    results = JobRunner(jobs=4).run(
        _tasks(supernpu_config, tiny_network, rsfq, batches=(2,)))
    assert len(results) == 1
    # One pending task short-circuits to in-process execution: counters
    # land directly (no worker prefix), and the trace stays parent-only.
    snapshot = obs_enabled.metrics().snapshot()
    assert _sim_counters(snapshot)
    assert not _worker_counters(snapshot)
    assert obs_enabled.tracer().foreign_pids() == []
    out = tmp_path / "trace.json"
    obs_enabled.write_trace(out)
    document = json.loads(out.read_text(encoding="utf-8"))
    assert all(event["pid"] == 1 for event in document["traceEvents"])


def test_worker_hotspot_samples_reach_parent_profiler(
        obs_enabled, supernpu_config, tiny_network, rsfq):
    from repro.obs.hotspot import HotspotProfiler

    profiler = HotspotProfiler()
    profiler.start()
    try:
        JobRunner(jobs=2).run(_tasks(supernpu_config, tiny_network, rsfq))
    finally:
        profile = profiler.stop()
    # The workers' dumped stats must surface the simulator's kernel in
    # the parent's merged profile.
    assert any(key[0] == "charge_network" for key in profile.calls)


def test_retried_tasks_contribute_sidecars_once(
        obs_enabled, supernpu_config, tiny_network, rsfq):
    # Sidecars are keyed by the task's content hash, so re-running the
    # same tasks merges fresh sidecars each run (same totals twice).
    tasks = _tasks(supernpu_config, tiny_network, rsfq, batches=(1, 2))
    JobRunner(jobs=2).run(tasks)
    first = _worker_counters(obs_enabled.metrics().snapshot())
    JobRunner(jobs=2).run(tasks)
    second = _worker_counters(obs_enabled.metrics().snapshot())
    assert first
    assert second == {name: 2 * value for name, value in first.items()}


def test_unreadable_worker_stats_are_skipped(tmp_path, obs_enabled):
    from repro.core.jobs import WorkerObsSpec
    from repro.obs.hotspot import HotspotProfiler

    def leaf():
        return sum(range(10))

    donor = HotspotProfiler()
    with donor:
        leaf()
    sidecars = tmp_path / "sidecars"
    sidecars.mkdir()
    for key, stats in (("good", None), ("bad", b"\xff\xfe garbage")):
        (sidecars / f"{key}.json").write_text(json.dumps(
            {"kind": "worker-obs", "pid": 7, "counters": {"sim.layers": 1},
             "spans": []}), encoding="utf-8")
        if stats is None:
            donor.dump_stats(str(sidecars / f"{key}.prof"))
        else:
            (sidecars / f"{key}.prof").write_bytes(stats)

    with HotspotProfiler() as profiler:
        JobRunner()._merge_worker_obs(WorkerObsSpec(str(sidecars), hotspot=True))
    assert not sidecars.exists()
    snapshot = obs_enabled.metrics().snapshot()
    assert snapshot["counters"]["jobs.worker.sidecars"] == 2
    assert snapshot["counters"]["jobs.worker.sim.layers"] == 2
    assert any(key[0] == "leaf" for key in profiler.profile.calls)
