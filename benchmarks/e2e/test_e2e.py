"""Tests of the end-to-end benchmark itself: ``pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import run
import tracer as tracer_mod
import worker
from tracer import Target, Tracer, layer_table
from workloads import WORKLOADS

BENCHMARK = json.loads((worker.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class FakeClock:
    now = 0

    def __call__(self) -> int:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer_mod, "perf_counter_ns", fake)
    return fake


@pytest.fixture
def fake_module(monkeypatch, clock):
    """``fake_layers.outer`` spends 10 + 2 ns around ``inner``'s 3 ns."""
    module = types.ModuleType("fake_layers")

    def inner():
        clock.now += 3

    def outer():
        clock.now += 10
        module.inner()
        clock.now += 2

    class Box:
        def method(self):
            clock.now += 7

    module.inner, module.outer, module.Box = inner, outer, Box
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    return module


def test_self_time_of_nested_calls(fake_module, clock):
    tracer = Tracer([Target("outer", "fake_layers", "outer"),
                     Target("inner", "fake_layers", "inner"),
                     Target("box", "fake_layers", "Box.method")])
    for _ in range(2):
        with tracer.installed(), tracer.op():
            clock.now += 1
            fake_module.outer()
            fake_module.Box().method()
    assert tracer.calls == {"outer": 2, "inner": 2, "box": 2}
    assert tracer.total_ns == {"outer": 30, "inner": 6, "box": 14}
    assert tracer.self_ns == {"outer": 24, "inner": 6, "box": 14}
    assert (tracer.ops, tracer.op_ns, tracer.uncovered_ns) == (2, 46, 2)
    table = layer_table(tracer)
    assert table["outer"]["calls"] == 1
    assert table["outer"]["self_ms"] == pytest.approx(12e-6)
    assert table["inner"]["share"] == pytest.approx(6 / 46)
    assert table["other"]["self_ms"] == pytest.approx(1e-6)
    assert sum(row["share"] for row in table.values()) == pytest.approx(1)


def test_uninstall_restores_bindings_and_spans_cover_first_op(fake_module, clock, tmp_path):
    outer, method = fake_module.outer, fake_module.Box.__dict__["method"]
    tracer = Tracer([Target("outer", "fake_layers", "outer"),
                     Target("box", "fake_layers", "Box.method")])
    for _ in range(3):
        with tracer.installed(), tracer.op():
            clock.now += 1
            fake_module.outer()
    assert fake_module.outer is outer
    assert fake_module.Box.__dict__["method"] is method
    # One op span plus one layer span, kept for the first op only.
    assert [span[0] for span in tracer.spans] == ["outer", "op"]
    name, start, end, span_id, parent = tracer.spans[0]
    assert parent == tracer.spans[1][3] and end - start == 15
    path = tmp_path / "trace.json"
    tracer.write_chrome(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert {event["ph"] for event in events} == {"X"}
    assert [event["name"] for event in events] == ["op", "outer"]


def test_missing_targets_are_absent_layers(fake_module):
    tracer = Tracer([Target("outer", "fake_layers", "outer"),
                     Target("renamed", "fake_layers", "no_longer_here"),
                     Target("moved", "no_such_package.module", "f"),
                     Target("method", "fake_layers", "Box.gone"),
                     Target("klass", "fake_layers", "Gone.method")])
    with tracer.installed(), tracer.op():
        fake_module.outer()
    assert tracer.absent == ["renamed", "moved", "method", "klass"]
    table = layer_table(tracer)
    assert table["renamed"] == {"calls": 0, "self_ms": 0, "share": 0}
    assert table["outer"]["calls"] == 1


def test_percentiles_and_sample_count_rule():
    values = list(range(1, 101))
    assert worker.percentile(values, 50) == pytest.approx(50.5)
    assert worker.percentile(values, 90) == pytest.approx(90.1)
    assert worker.percentile([7], 99) == 7
    # A percentile is shown only with ten samples beyond it.
    assert worker.reportable_percentiles(8000) == [50, 90, 99]
    assert worker.reportable_percentiles(10000) == [50, 90, 99, 99.9]
    assert worker.reportable_percentiles(100) == [50, 90]
    assert worker.reportable_percentiles(99) == [50]
    assert worker.reportable_percentiles(3) == [50]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """A warm-up op and one measured block of every workload, and two traced runs."""
    results = {}
    for name, cls in WORKLOADS.items():
        for trace in (False, True):
            if trace and name not in ("dse_search", "warm_rerun"):
                continue
            scratch = tmp_path_factory.mktemp(name)
            workload = cls(0, scratch)
            try:
                workload.check(workload.op())
                results[name, trace] = worker.run(workload, 0, trace, scratch / "chrome.json")
            finally:
                workload.close()
    return results


def test_smoke_runs_are_correct(smoke):
    for (name, trace), result in smoke.items():
        assert result["correct"], (name, result["problems"])
        assert result["failed"] == 0
        assert result["attempted"] == max(WORKLOADS[name].ops_per_probe, 2 if trace else 1)
        assert result["digest"]
    assert smoke["paper_figures", False]["digest"] == smoke["warm_rerun", False]["digest"]
    assert smoke["paper_figures", False]["info"]["paper_err_mean"] == pytest.approx(0.139, abs=1e-3)


def test_traced_counts_match_the_workloads(smoke):
    warm = {k: v["value"] for k, v in smoke["warm_rerun", True]["metrics"].items()}
    assert warm["simulator.simulate.calls"] == 0
    assert warm["jobs.cache.hit_ratio"] == 1
    assert warm["jobs.codec.encode.calls"] == 0
    dse = {k: v["value"] for k, v in smoke["dse_search", True]["metrics"].items()}
    assert dse["jobs.cache.get.calls"] == 0
    assert dse["simulator.simulate.calls"] == 384
    assert dse["estimator.calls"] == 64
    assert smoke["dse_search", True]["info"]["absent_layers"] == []


def test_output_names_match_benchmark_json(smoke):
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for (name, trace), result in smoke.items():
        produced = {k: v["unit"] for k, v in result["metrics"].items()}
        if trace:
            assert produced == layers, name
        else:
            assert {**produced, "setup_s": "s"} == e2e, name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(WORKLOADS) == list(run.WORKLOADS)
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert BENCHMARK["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert Path(worker.ROOT / BENCHMARK["paths"][0]) == Path(__file__).parent
