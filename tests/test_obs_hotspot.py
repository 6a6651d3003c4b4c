"""Host-time hotspot profiling: determinism, math, serialization, join.

The load-bearing guarantees:

* tracing mode is deterministic — a fixed workload yields the same call
  counts and the same stack set on every run;
* self/cum accounting is exact (recursion counted once per stack);
* profiles survive a JSON round-trip and merge losslessly (the worker
  sidecar path depends on both);
* the cycle-domain join groups attribution phases correctly whether it
  gets raw per-phase fractions or pre-grouped ones.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

from repro.obs import hotspot
from repro.obs.hotspot import (
    HotspotProfile,
    HotspotProfiler,
    absorb,
    active_profiler,
    classify_frame,
    group_phase_fractions,
    join_with_phases,
)

RAW_FRACTIONS = {
    "weight_load": 0.05,
    "ifmap_prep": 0.10,
    "psum_move": 0.03,
    "activation_transfer": 0.02,
    "compute": 0.60,
    "dram_stall": 0.20,
}


def _leaf(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def _middle(n: int) -> int:
    return _leaf(n) + _leaf(n)


def _workload() -> int:
    acc = 0
    for _ in range(5):
        acc += _middle(200)
    return acc


def _trace_workload() -> HotspotProfile:
    profiler = HotspotProfiler(mode="tracing")
    profiler.start()
    try:
        _workload()
    finally:
        profile = profiler.stop()
    return profile


# -- tracing determinism ---------------------------------------------------

def test_tracing_profile_is_stable_across_runs():
    first = _trace_workload()
    second = _trace_workload()
    assert first.calls == second.calls
    assert set(first.stack_counts) == set(second.stack_counts)
    assert first.stack_counts == second.stack_counts


def test_tracing_counts_calls_exactly():
    profile = _trace_workload()
    by_name = {key[0]: count for key, count in profile.calls.items()}
    assert by_name["_workload"] == 1
    assert by_name["_middle"] == 5
    assert by_name["_leaf"] == 10


def test_tracing_excludes_profiler_internals():
    from repro.obs import hotspot as hotspot_mod

    profile = _trace_workload()
    assert all(key[1] != hotspot_mod.__file__ for key in profile.calls)


# -- self / cumulative accounting ------------------------------------------

def test_self_and_cum_seconds():
    a = ("a", "f.py", 1)
    b = ("b", "f.py", 10)
    profile = HotspotProfile(mode="tracing", interval_s=0.0)
    profile.add((a,), 0.5, 1)
    profile.add((a, b), 0.25, 1)
    stats = {stat.key: stat for stat in profile.function_stats()}
    assert stats[a].self_s == 0.5
    assert stats[a].cum_s == 0.75
    assert stats[b].self_s == 0.25
    assert stats[b].cum_s == 0.25
    assert profile.total_seconds() == 0.75


def test_recursion_counted_once_per_stack():
    a = ("a", "f.py", 1)
    profile = HotspotProfile(mode="tracing", interval_s=0.0)
    profile.add((a, a), 1.0, 1)
    stats = {stat.key: stat for stat in profile.function_stats()}
    assert stats[a].cum_s == 1.0  # not 2.0


# -- collapsed-stack export ------------------------------------------------

def test_collapsed_format_and_determinism():
    profile = _trace_workload()
    collapsed = profile.collapsed()
    lines = collapsed.strip().splitlines()
    assert lines
    for line in lines:
        assert re.fullmatch(r".+ \d+", line), line
    assert lines == sorted(lines)


# -- serialization ---------------------------------------------------------

def test_profile_json_roundtrip_is_exact():
    profile = _trace_workload()
    restored = HotspotProfile.from_dict(
        json.loads(json.dumps(profile.to_dict())))
    assert restored.mode == profile.mode
    assert restored.calls == profile.calls
    assert restored.stack_counts == profile.stack_counts
    assert restored.stack_seconds == profile.stack_seconds
    assert restored.samples == profile.samples


def test_merge_adds_counts_and_seconds():
    a = ("a", "f.py", 1)
    one = HotspotProfile(mode="tracing", interval_s=0.0)
    one.add((a,), 0.5, 1)
    two = HotspotProfile(mode="tracing", interval_s=0.0)
    two.add((a,), 0.25, 2)
    one.merge(two)
    assert one.stack_seconds[(a,)] == 0.75
    assert one.stack_counts[(a,)] == 3


def test_absorb_requires_active_profiler():
    donor = HotspotProfile(mode="tracing", interval_s=0.0)
    donor.add((("a", "f.py", 1),), 0.5, 1)
    assert absorb(donor.to_dict()) is False  # nothing running

    profiler = HotspotProfiler(mode="tracing")
    profiler.start()
    try:
        assert active_profiler() is profiler
        assert absorb(donor.to_dict()) is True
    finally:
        profile = profiler.stop()
    assert active_profiler() is None
    assert (("a", "f.py", 1),) in profile.stack_seconds


# -- cycle-domain join -----------------------------------------------------

def test_group_phase_fractions_collapses_preparation():
    grouped = group_phase_fractions(RAW_FRACTIONS)
    assert grouped["compute"] == 0.60
    assert abs(grouped["preparation"] - 0.20) < 1e-12
    assert grouped["dram"] == 0.20


def test_classify_frame_maps_simulator_files():
    engine = ("simulate_layer", "/x/src/repro/simulator/engine.py", 74)
    mapping = ("map_layer", "/x/src/repro/simulator/mapping.py", 96)
    memory = ("transfer_cycles", "/x/src/repro/simulator/memory.py", 39)
    stdlib = ("deepcopy", "/usr/lib/python3.11/copy.py", 128)
    assert classify_frame(engine) == ("simulator", "compute")
    assert classify_frame(mapping) == ("simulator", "preparation")
    assert classify_frame(memory) == ("simulator", "dram")
    assert classify_frame(stdlib) == ("other", None)


def test_phase_map_names_real_files():
    root = Path(hotspot.__file__).resolve().parents[1]
    for path in hotspot._PHASE_BY_FILE:
        assert (root / path).is_file(), path
    kernel = ("charge_network", str(root / "simulator/kernel.py"), 117)
    assert classify_frame(kernel) == ("simulator", "compute")


def test_join_with_phases_attributes_host_time():
    engine = ("simulate_layer", "/x/src/repro/simulator/engine.py", 74)
    mapping = ("map_layer", "/x/src/repro/simulator/mapping.py", 96)
    other = ("deepcopy", "/usr/lib/python3.11/copy.py", 128)
    profile = HotspotProfile(mode="tracing", interval_s=0.0)
    profile.add((engine,), 0.4, 1)
    profile.add((mapping,), 0.1, 1)
    profile.add((other,), 0.2, 1)
    rows = {row["phase"]: row for row in join_with_phases(profile, RAW_FRACTIONS)}
    assert rows["compute"]["cycle_fraction"] == 0.60
    assert rows["compute"]["host_self_s"] == 0.4
    assert "simulate_layer" in rows["compute"]["frames"][0]
    assert abs(rows["preparation"]["cycle_fraction"] - 0.20) < 1e-12
    assert rows["preparation"]["host_self_s"] == 0.1
    assert rows["dram"]["host_self_s"] == 0.0
    assert rows["unattributed"]["host_self_s"] == 0.2


def test_report_renders_join_table():
    profile = _trace_workload()
    text = profile.report(phase_fractions=RAW_FRACTIONS)
    assert "hotspot [tracing]" in text
    assert "cycle-domain join" in text
    assert "preparation" in text


def test_report_explains_empty_profile():
    profile = HotspotProfile(mode="sampling", interval_s=0.01)
    assert "no samples" in profile.report()


# -- sampling mode ---------------------------------------------------------

def test_sampling_collects_stacks_of_busy_loop():
    profiler = HotspotProfiler(mode="sampling", sample_hz=400.0)
    profiler.start()
    try:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            _leaf(500)
    finally:
        profile = profiler.stop()
    assert profile.samples >= 1
    assert profile.total_seconds() > 0.0
    assert profile.duration_s > 0.0


def test_profiler_stop_is_idempotent():
    profiler = HotspotProfiler(mode="tracing")
    profiler.start()
    _leaf(10)
    first = profiler.stop()
    second = profiler.stop()
    assert first is second
    assert active_profiler() is None


def test_summary_is_json_serializable():
    profile = _trace_workload()
    summary = json.loads(json.dumps(profile.summary()))
    assert summary["mode"] == "tracing"
    assert summary["functions"] > 0
    assert summary["top"]
    assert {"function", "file", "line", "self_s", "cum_s"} <= set(summary["top"][0])
