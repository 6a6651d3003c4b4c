"""Host-time hotspot profiling: determinism, math, merge, join.

The load-bearing guarantees:

* profiles are deterministic — a fixed workload yields the same call
  counts and the same caller→callee edges on every run;
* the profiler's own frames never appear in a profile;
* a worker's stats table folds into the running profiler and adds up
  (the pool-worker path depends on it); malformed tables are skipped;
* only one profiler runs at a time, and a second one is a ConfigError;
* the cycle-domain join groups attribution phases correctly whether it
  gets raw per-phase fractions or pre-grouped ones.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigError
from repro.obs import hotspot
from repro.obs.hotspot import (
    FunctionStat,
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


def _countdown(n: int) -> int:
    return 0 if n == 0 else 1 + _countdown(n - 1)


def _profiled(workload=_workload) -> HotspotProfiler:
    profiler = HotspotProfiler()
    profiler.start()
    try:
        workload()
    finally:
        profiler.stop()
    return profiler


def _trace_workload() -> HotspotProfile:
    return _profiled().profile


def _calls_by_name(profile: HotspotProfile):
    return {key[0]: count for key, count in profile.calls.items()}


# -- determinism -----------------------------------------------------------

def test_tracing_profile_is_stable_across_runs():
    first = _trace_workload()
    second = _trace_workload()
    assert first.calls == second.calls
    assert set(first.edges) == set(second.edges)


def test_tracing_counts_calls_exactly():
    by_name = _calls_by_name(_trace_workload())
    assert by_name["_workload"] == 1
    assert by_name["_middle"] == 5
    assert by_name["_leaf"] == 10


def test_tracing_excludes_profiler_internals():
    profile = _trace_workload()
    frames = set(profile.functions)
    frames.update(frame for edge in profile.edges for frame in edge)
    assert all(key[1] != hotspot.__file__ for key in frames)
    assert not any("_lsprof.Profiler" in key[0] for key in frames)


# -- self / cumulative accounting ------------------------------------------

def test_self_and_cum_seconds():
    # A pstats table: (file, line, name) -> (cc, nc, tt, ct, callers).
    a = ("f.py", 1, "a")
    b = ("f.py", 10, "b")
    own = (hotspot.__file__, 1, "stop")
    stats = {
        a: (1, 1, 0.5, 0.75, {}),
        b: (2, 2, 0.25, 0.25, {a: (2, 2, 0.25, 0.25)}),
        own: (1, 1, 0.1, 0.1, {}),
    }
    profile = HotspotProfile.from_stats(stats, duration_s=1.0)
    by_key = {stat.key: stat for stat in profile.function_stats()}
    assert set(by_key) == {("a", "f.py", 1), ("b", "f.py", 10)}
    assert by_key[("a", "f.py", 1)].self_s == 0.5
    assert by_key[("a", "f.py", 1)].cum_s == 0.75
    assert by_key[("b", "f.py", 10)].calls == 2
    assert profile.edges == {(("a", "f.py", 1), ("b", "f.py", 10)): 0.25}
    assert profile.total_seconds() == 0.75


def test_recursion_counted_once_per_stack():
    profiler = _profiled(lambda: _countdown(20))
    stat = next(stat for stat in profiler.profile.function_stats()
                if stat.key[0] == "_countdown")
    assert stat.calls == 21
    # Cumulative time counts the outermost call only, not once per level.
    assert stat.cum_s <= profiler.profile.duration_s


# -- collapsed-stack export ------------------------------------------------

def test_collapsed_format_and_determinism():
    profile = _trace_workload()
    collapsed = profile.collapsed()
    lines = collapsed.strip().splitlines()
    assert lines
    for line in lines:
        assert re.fullmatch(r".+ \d+", line), line
        assert line.count(";") <= 1, line  # caller;callee edges
    assert lines == sorted(lines)
    assert any(re.match(r"_middle \(\S+:\d+\);_leaf \(\S+:\d+\) \d+$", line)
               for line in lines)
    assert collapsed == profile.collapsed()


# -- merging worker stats --------------------------------------------------

def test_merge_adds_counts_and_seconds():
    donor = _profiled()

    profiler = HotspotProfiler()
    profiler.start()
    try:
        _workload()
        assert absorb(donor.stats_table()) is True
        assert absorb(donor.stats_table()) is True
    finally:
        profile = profiler.stop()
    assert _calls_by_name(profile)["_leaf"] == 30
    assert _calls_by_name(profile)["_middle"] == 15
    leaf = next(stat for stat in profile.function_stats() if stat.key[0] == "_leaf")
    donor_leaf = next(stat for stat in donor.profile.function_stats()
                      if stat.key[0] == "_leaf")
    assert leaf.self_s > 2 * donor_leaf.self_s


def test_absorb_requires_active_profiler():
    table = _profiled().stats_table()
    assert absorb(table) is False  # nothing running

    profiler = HotspotProfiler()
    profiler.start()
    try:
        assert active_profiler() is profiler
        assert absorb(table) is True
    finally:
        profile = profiler.stop()
    assert active_profiler() is None
    assert _calls_by_name(profile)["_workload"] == 1


@pytest.mark.parametrize("table", [
    None, b"\xff\xfe not a table", 5, [1],
    {("f.py", 1, "f"): (1, 2)},
    {("f.py", 1, "f"): (1, 1, 0.5, 0.5, 7)},
], ids=["none", "bytes", "int", "list", "short-row", "callers-not-a-dict"])
def test_malformed_stats_tables_are_skipped(capsys, table):
    with HotspotProfiler() as profiler:
        assert absorb(table) is False
        _leaf(10)
    assert _calls_by_name(profiler.profile)["_leaf"] == 1
    assert not any(key[1] == "f.py" for key in profiler.profile.functions)
    assert capsys.readouterr().out == ""  # stdout stays the command's


# -- one profiler at a time ------------------------------------------------

def test_nested_profiler_raises_config_error():
    with HotspotProfiler() as outer:
        with pytest.raises(ConfigError) as error:
            HotspotProfiler().start()
        assert error.value.exit_code == 2
        assert active_profiler() is outer
        _leaf(10)
    assert _calls_by_name(outer.profile)["_leaf"] == 1
    assert active_profiler() is None


def test_foreign_profiler_raises_config_error():
    sys.setprofile(lambda frame, event, arg: None)
    try:
        with pytest.raises(ConfigError):
            HotspotProfiler().start()
    finally:
        sys.setprofile(None)
    assert active_profiler() is None


def test_nested_cli_profilers_exit_2(capsys):
    from repro.cli import main

    code = main(["hotspot", "hotspot", "simulate", "supernpu",
                 "mobilenet"])
    assert code == 2
    assert "'hotspot' cannot profile itself" in capsys.readouterr().err
    assert active_profiler() is None
    with HotspotProfiler():  # another profiler already runs in the process
        assert main(["hotspot", "workloads"]) == 2
    assert "another profiler is already running" in capsys.readouterr().err
    assert active_profiler() is None


def test_failed_command_stops_its_profiler(capsys):
    from repro.cli import main

    code = main(["hotspot", "simulate", "supernpu", "mobilenet",
                 "--batch", "0"])
    assert code == 3  # workload.invalid_batch
    assert active_profiler() is None
    assert main(["hotspot", "simulate", "supernpu",
                 "mobilenet"]) == 0
    assert "hotspot:" in capsys.readouterr().err


def test_wrapper_joins_cycles_in_the_commands_own_session(capsys):
    """The wrapped command runs in the one session: its run joins the
    profile, and its envelope's manifest is the command's own."""
    from repro.cli import main

    assert main(["hotspot", "simulate", "supernpu", "mobilenet", "--json"]) == 0
    captured = capsys.readouterr()
    assert "cycle-domain join" in captured.err
    document = json.loads(captured.out)
    assert document["command"] == document["manifest"]["command"] == "simulate"


def _ranked_rows(report: str) -> int:
    """How many functions the report's first table ranks."""
    lines = report.splitlines()
    start = next(i for i, line in enumerate(lines) if "self ms" in line) + 1
    return next((n for n, line in enumerate(lines[start:]) if not line.strip()),
                len(lines) - start)


def test_wrapper_top_stays_apart_from_the_command_top(capsys):
    from repro.cli import main

    assert main(["hotspot", "--top", "2", "bottleneck",
                 "supernpu", "mobilenet", "--top", "3"]) == 0
    captured = capsys.readouterr()
    assert "critical layers (top 3 of" in captured.out
    assert _ranked_rows(captured.err) == 2


def test_profiling_modules_are_imported_lazily():
    src = Path(hotspot.__file__).resolve().parents[2]
    code = ("import sys, repro, repro.api, repro.obs, repro.cli; "
            "print(sorted({'cProfile', 'pstats'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    assert out.strip() == "[]"


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
    profile = HotspotProfile([FunctionStat(engine, self_s=0.4),
                              FunctionStat(mapping, self_s=0.1),
                              FunctionStat(other, self_s=0.2)])
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
    assert text.startswith("hotspot: ")
    assert "_leaf" in text
    assert "cycle-domain join" in text
    assert "preparation" in text


def test_report_explains_empty_profile():
    assert "no calls recorded" in HotspotProfile().report()


# -- lifecycle -------------------------------------------------------------

def test_profiler_stop_is_idempotent():
    profiler = HotspotProfiler()
    profiler.start()
    _leaf(10)
    first = profiler.stop()
    second = profiler.stop()
    assert first is second
    assert active_profiler() is None
