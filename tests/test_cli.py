"""CLI smoke tests (every command exits 0 and prints sane output)."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_bench_is_an_unknown_command(capsys):
    """Speed is measured by ``benchmarks/e2e/run.py`` alone."""
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "run"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_the_verb_set_is_pinned():
    """One verb per job: a run's spans, counters and manifest come from
    ``--trace-out`` / ``--metrics-out`` and its host time from ``hotspot``,
    so there is no ``profile`` and no ``runs`` registry."""
    import argparse

    parser = build_parser()
    verbs = next(action for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)).choices
    assert list(verbs) == [
        "estimate", "simulate", "bottleneck", "floorplan", "energy", "evaluate",
        "validate", "sweep", "table", "report", "compare", "reproduce",
        "workloads", "trace", "plan", "components", "cache", "hotspot",
        "serve", "client",
    ]


def test_a_command_writes_no_file_its_command_line_does_not_name(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "supernpu", "mobilenet"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_estimate_command(capsys):
    assert main(["estimate", "supernpu"]) == 0
    out = capsys.readouterr().out
    assert "52.6" in out and "SuperNPU" in out


def test_estimate_ersfq(capsys):
    assert main(["estimate", "baseline", "--technology", "ersfq"]) == 0
    out = capsys.readouterr().out
    assert "static power    : 0.00 W" in out


def test_simulate_command(capsys):
    assert main(["simulate", "supernpu", "mobilenet"]) == 0
    out = capsys.readouterr().out
    assert "TMAC/s" in out and "batch 30" in out


def test_simulate_custom_batch(capsys):
    assert main(["simulate", "baseline", "alexnet", "--batch", "2"]) == 0
    assert "batch 2" in capsys.readouterr().out


def test_validate_command(capsys):
    assert main(["validate"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_table1_command(capsys):
    assert main(["table", "1"]) == 0
    out = capsys.readouterr().out
    assert "Baseline" in out and "SuperNPU" in out


def test_table2_command(capsys):
    assert main(["table", "2"]) == 0
    assert "AlexNet" in capsys.readouterr().out


def test_unknown_design_exits_2(capsys):
    assert main(["estimate", "meganpu"]) == 2
    err = capsys.readouterr().err
    assert "unknown design 'meganpu'" in err and "hint:" in err


def test_workloads_command(capsys):
    assert main(["workloads"]) == 0
    out = capsys.readouterr().out
    assert "VGG16" in out and "duplication" in out


def test_trace_summary_command(capsys):
    assert main(["trace", "baseline", "vgg16", "conv3_1"]) == 0
    out = capsys.readouterr().out
    assert "psum_move" in out and "mappings" in out


def test_trace_csv_command(capsys):
    assert main(["trace", "supernpu", "resnet50", "conv2_1b", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("mapping,phase,start_cycle")


def test_trace_unknown_layer_exits_3(capsys):
    assert main(["trace", "baseline", "vgg16", "conv99"]) == 3
    assert "no layer 'conv99'" in capsys.readouterr().err


def test_debug_flag_reraises():
    with pytest.raises(KeyError):
        main(["--debug", "estimate", "meganpu"])


def test_report_json_command(capsys):
    assert main(["report", "supernpu", "googlenet"]) == 0
    out = capsys.readouterr().out
    assert '"design": "SuperNPU"' in out


def test_report_csv_layers_command(capsys):
    assert main(["report", "baseline", "alexnet", "--format", "csv", "--layers"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("design,network,layer")


@pytest.mark.parametrize("command", [
    "report baseline alexnet --format csv",
    "report baseline alexnet --format csv --layers",
    "trace supernpu resnet50 conv2_1b --format csv",
])
def test_csv_lines_end_in_one_newline(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert "\r" not in out
    assert out.endswith("\n") and not out.endswith("\n\n")


def test_floorplan_command(capsys):
    assert main(["floorplan", "supernpu"]) == 0
    out = capsys.readouterr().out
    assert "pe_array" in out and "implied clock: 52.6 GHz" in out


def test_energy_command(capsys):
    assert main(["energy", "mobilenet"]) == 0
    out = capsys.readouterr().out
    assert "ERSFQ-SuperNPU (free cooling)" in out


def test_evaluate_command(capsys):
    assert main(["evaluate"]) == 0
    out = capsys.readouterr().out
    assert "SuperNPU" in out and "Average" in out


def test_sweep_resources_command(capsys):
    assert main(["sweep", "resources"]) == 0
    out = capsys.readouterr().out
    assert "intensity" in out


def test_sweep_registers_command(capsys):
    assert main(["sweep", "registers"]) == 0
    assert "speedup" in capsys.readouterr().out


def test_table3_command(capsys):
    assert main(["table", "3"]) == 0
    out = capsys.readouterr().out
    assert "RSFQ-SuperNPU (w/ cooling)" in out


def test_tables_and_bottleneck_run_on_the_ambient_runner(tmp_path, capsys):
    from repro import api

    with api.session(cache_dir=tmp_path / "cache") as runner:
        assert main(["table", "1"]) == 0
        assert main(["bottleneck", "baseline", "alexnet", "--batch", "1"]) == 0
        assert runner.cache.stats().by_kind == {"estimate": 4}
        assert main(["table", "3"]) == 0
        simulated = runner.cache.stats().by_kind["simulate"]
        assert simulated > 0
        assert main(["table", "3"]) == 0
    assert runner.stats.hits >= simulated  # the rerun came from the cache


def test_config_file_flow(tmp_path, capsys):
    from repro.core.config_io import save
    from repro.core.designs import supernpu

    path = tmp_path / "custom.json"
    save(supernpu().with_updates(name="my-npu", registers_per_pe=2), path)
    assert main(["estimate", "--config-file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "my-npu" in out
    assert main(["simulate", "googlenet", "--config-file", str(path)]) == 0
    assert "my-npu running GoogLeNet" in capsys.readouterr().out


def test_compare_command(capsys):
    assert main(["compare", "baseline", "supernpu", "--workloads", "mobilenet"]) == 0
    out = capsys.readouterr().out
    assert "winner (mean throughput): SuperNPU" in out


def test_simulate_metrics_out_flag(tmp_path, capsys):
    import json

    path = tmp_path / "m.json"
    assert main(["simulate", "baseline", "alexnet", "--batch", "1",
                 "--metrics-out", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"metrics written to {path}" in out
    data = json.loads(path.read_text())
    assert data["manifest"]["command"] == "simulate"
    assert data["manifest"]["design"] == "Baseline"
    assert data["metrics"]["counters"]["sim.cycles"] > 0


def test_simulate_trace_out_flag(tmp_path, capsys):
    import json

    path = tmp_path / "t.json"
    assert main(["simulate", "supernpu", "alexnet", "--batch", "1",
                 "--trace-out", str(path)]) == 0
    data = json.loads(path.read_text())
    layer_events = [e for e in data["traceEvents"] if e["name"] == "simulate/layer"]
    assert layer_events and all("layer" in e["args"] for e in layer_events)


def test_sweep_metrics_out_flag(tmp_path, capsys):
    import json

    path = tmp_path / "sweep.json"
    assert main(["sweep", "buffers", "--metrics-out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["manifest"]["which"] == "buffers"
    assert data["metrics"]["counters"]["sim.runs"] > 0


def test_simulate_without_obs_flags_records_nothing(capsys):
    from repro import obs

    assert main(["simulate", "baseline", "alexnet", "--batch", "1"]) == 0
    assert obs.metrics().is_empty()
    assert obs.tracer().roots == []


def test_compare_metrics_out_flag(tmp_path, capsys):
    import json

    path = tmp_path / "compare.json"
    assert main(["compare", "baseline", "supernpu", "--workloads", "alexnet",
                 "--metrics-out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["manifest"]["command"] == "compare"
    assert data["metrics"]["counters"]["sim.runs"] >= 2


def test_compare_shows_cycle_movement(capsys):
    assert main(["compare", "baseline", "supernpu", "--workloads", "alexnet"]) == 0
    out = capsys.readouterr().out
    assert "cycle movement vs Baseline" in out
    assert "psum_move" in out and "dram_stall" in out


def test_reproduce_metrics_out_flag(tmp_path, capsys):
    import json

    path = tmp_path / "repro.json"
    assert main(["reproduce", "--only", "fig15_cycle_breakdown",
                 "--metrics-out", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["manifest"]["command"] == "reproduce"
    assert data["metrics"]["counters"]["sim.runs"] > 0


def test_reproduce_bad_input_exits_2(tmp_path, capsys):
    assert main(["reproduce", "--only", "fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiments" in err and "fig07_feedback" in err
    path = tmp_path / "results"
    path.write_text("")
    assert main(["reproduce", "--out", str(path), "--only", "fig07_feedback"]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_bottleneck_command(capsys):
    assert main(["bottleneck", "baseline", "alexnet", "--batch", "1"]) == 0
    out = capsys.readouterr().out
    assert "bottleneck: Baseline running AlexNet" in out
    assert "attribution summary (cycle-weighted)" in out
    assert "critical layers" in out
    assert "roofline" in out and "MACs/byte" in out
    assert "busiest unit" in out


def test_bottleneck_json(capsys):
    import json

    assert main(["bottleneck", "baseline", "resnet50", "--json"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    assert (envelope["command"], envelope["design"]) == ("bottleneck", "Baseline")
    doc = envelope["data"]
    assert doc["design"] == "Baseline" and doc["network"] == "ResNet50"
    for layer in doc["layers"]:
        assert layer["bound"] in ("compute", "preparation", "dram")
        fractions = sum(v for k, v in layer.items() if k.startswith("frac_"))
        assert abs(fractions - 1.0) < 1e-6
    assert abs(sum(doc["summary"]["fractions"].values()) - 1.0) < 1e-6
    assert doc["roofline"]["points"]
    assert doc["critical_layers"][0]["share"] > 0


def test_bottleneck_timeline_out(tmp_path, capsys):
    import json

    path = tmp_path / "timeline.json"
    assert main(["bottleneck", "supernpu", "resnet50",
                 "--timeline-out", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"timeline written to {path}" in out
    trace = json.loads(path.read_text())
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    span_us = max(e["ts"] + e["dur"] for e in events)
    other = trace["otherData"]
    # Timestamps are simulated time: span == total_cycles / clock.
    expected_us = other["total_cycles"] / (other["clock_ghz"] * 1e3)
    assert abs(span_us - expected_us) < 1e-6 * expected_us
    assert other["time_domain"] == "simulated"
    assert trace["metadata"]["command"] == "bottleneck"
    phase_names = {e["name"] for e in events}
    assert {"compute", "weight_load", "dram"} <= phase_names


def test_bottleneck_custom_top(capsys):
    assert main(["bottleneck", "supernpu", "resnet50", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "critical layers (top 3" in out


def test_bottleneck_leaves_obs_disabled():
    from repro import obs

    assert main(["bottleneck", "baseline", "alexnet", "--batch", "1"]) == 0
    assert not obs.enabled()
    assert obs.metrics().is_empty()


# -- the JSON envelope -----------------------------------------------------

ENVELOPE_KEYS = {"command", "design", "workload", "data", "manifest"}


def _json_out(capsys):
    import json

    return json.loads(capsys.readouterr().out)


def test_estimate_json_envelope(capsys):
    assert main(["estimate", "supernpu", "--json"]) == 0
    doc = _json_out(capsys)
    assert set(doc) == ENVELOPE_KEYS
    assert doc["command"] == "estimate" and doc["design"] == "SuperNPU"
    assert doc["workload"] is None
    assert abs(doc["data"]["frequency_ghz"] - 52.6) < 0.1
    assert doc["manifest"]["command"] == "estimate"


def test_simulate_json_envelope(capsys):
    assert main(["simulate", "baseline", "alexnet", "--batch", "2", "--json"]) == 0
    doc = _json_out(capsys)
    assert set(doc) == ENVELOPE_KEYS
    assert doc["design"] == "Baseline" and doc["workload"] == "AlexNet"
    assert doc["data"]["batch"] == 2
    assert doc["data"]["total_cycles"] > 0


def test_evaluate_json_envelope(capsys):
    assert main(["evaluate", "--json"]) == 0
    doc = _json_out(capsys)
    assert set(doc) == ENVELOPE_KEYS
    assert doc["command"] == "evaluate"
    assert doc["data"]["workloads"][-1] == "Average"
    assert doc["data"]["speedups"]["SuperNPU"]["Average"] > 1


def test_compare_json_envelope(capsys):
    assert main(["compare", "baseline", "supernpu",
                 "--workloads", "alexnet", "--json"]) == 0
    doc = _json_out(capsys)
    assert set(doc) == ENVELOPE_KEYS
    assert doc["data"]["winner"] == "SuperNPU"
    assert len(doc["data"]["columns"]) == 2
    assert doc["data"]["phase_deltas"]


# -- jobs / caching flags --------------------------------------------------

def test_simulate_cache_flags(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["simulate", "baseline", "alexnet", "--batch", "1", "--cache-dir", cache]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "0 cache hits / 1 misses" in cold

    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "1 cache hits / 0 misses" in warm and "0 simulated" in warm
    # Identical results, modulo the cache-summary line.
    strip = lambda s: [l for l in s.splitlines() if not l.startswith("cache [")]  # noqa: E731
    assert strip(warm) == strip(cold)


def test_simulate_no_cache_flag(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["simulate", "baseline", "alexnet", "--batch", "1",
            "--cache-dir", cache, "--no-cache"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "cache [" not in out
    assert not (tmp_path / "cache").exists()


def test_evaluate_parallel_matches_serial(capsys):
    assert main(["evaluate"]) == 0
    serial = capsys.readouterr().out
    assert main(["evaluate", "--jobs", "4"]) == 0
    parallel = capsys.readouterr().out
    stripped = [l for l in parallel.splitlines() if not l.startswith("jobs:")]
    assert stripped == serial.splitlines()


def test_json_keeps_stdout_clean(tmp_path, capsys):
    import json

    assert main(["evaluate", "--json", "--cache-dir", str(tmp_path / "c")]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # one parseable document, no summary lines
    assert "cache [" in captured.err


def test_cache_stats_and_clear_commands(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["simulate", "baseline", "alexnet", "--batch", "1",
                 "--cache-dir", cache]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    out = capsys.readouterr().out
    assert "entries : 2" in out  # one simulate + one estimate entry
    assert "simulate" in out and "estimate" in out
    assert main(["cache", "clear", "--cache-dir", cache]) == 0
    assert "removed 2 entries" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache]) == 0
    assert "entries : 0" in capsys.readouterr().out


def test_evaluate_metrics_report_cache_counters(tmp_path, capsys):
    import json

    cache = str(tmp_path / "cache")
    cold_metrics = tmp_path / "cold.json"
    warm_metrics = tmp_path / "warm.json"
    assert main(["evaluate", "--cache-dir", cache,
                 "--metrics-out", str(cold_metrics)]) == 0
    assert main(["evaluate", "--cache-dir", cache,
                 "--metrics-out", str(warm_metrics)]) == 0
    cold = json.loads(cold_metrics.read_text())["metrics"]["counters"]
    warm = json.loads(warm_metrics.read_text())["metrics"]["counters"]
    assert cold["jobs.cache.misses"] == cold["jobs.tasks"]
    assert warm["jobs.cache.hits"] == warm["jobs.tasks"]
    assert warm["jobs.cache.misses"] == 0
    assert warm.get("jobs.sim.executed", 0) == 0


def test_report_config_file_flag(tmp_path, capsys):
    from repro.core.config_io import save
    from repro.core.designs import supernpu

    path = tmp_path / "custom.json"
    save(supernpu().with_updates(name="my-npu"), path)
    assert main(["report", "supernpu", "alexnet", "--batch", "1",
                 "--config-file", str(path)]) == 0
    assert '"design": "my-npu"' in capsys.readouterr().out


def test_trace_config_file_flag(tmp_path, capsys):
    from repro.core.config_io import save
    from repro.core.designs import baseline

    path = tmp_path / "custom.json"
    save(baseline().with_updates(name="my-npu"), path)
    assert main(["trace", "baseline", "vgg16", "conv3_1",
                 "--config-file", str(path)]) == 0
    assert "my-npu / VGG16 / conv3_1" in capsys.readouterr().out


def test_plan_list_command(capsys):
    assert main(["plan", "list"]) == 0
    out = capsys.readouterr().out
    assert "fig23_evaluate" in out and "batch_knee" in out


def test_plan_list_json_builds_each_plan_once(monkeypatch, capsys):
    import json

    from repro import api

    names = api.plans()
    expected = [{"name": name, "points": api.plan(name).num_points,
                 "description": api.plan(name).description} for name in names]
    built = []
    plan = api.plan

    def counted(name):
        built.append(name)
        return plan(name)

    monkeypatch.setattr(api, "plan", counted)
    assert main(["plan", "list", "--json"]) == 0
    assert built == list(names)
    assert json.loads(capsys.readouterr().out)["data"] == {"plans": expected}


def test_plan_show_command(capsys, monkeypatch, tmp_path):
    from repro.core import jobs

    keyed = []
    original_key = jobs.SimTask.key
    monkeypatch.setattr(jobs.SimTask, "key",
                        lambda task: keyed.append(task) or original_key(task))
    assert main(["plan", "show", "batch_knee"]) == 0
    out = capsys.readouterr().out
    assert "plan batch_knee: 6 points" in out
    assert "unique simulations" in out
    # Without a cache the count is of distinct tasks: no key is read.
    assert main(["plan", "show", "search_grid"]) == 0
    assert "384 points -> 384 unique simulations\n" in capsys.readouterr().out
    assert keyed == []
    # With one, each unique task's key is read once, to look it up.
    assert main(["plan", "show", "batch_knee", "--cache-dir", str(tmp_path)]) == 0
    assert "0 already cached, 6 to execute" in capsys.readouterr().out
    assert len(keyed) == 6


def test_a_dry_run_leaves_no_cache_directory_behind(tmp_path, capsys):
    missing = tmp_path / "c"
    assert main(["plan", "show", "batch_knee", "--cache-dir", str(missing)]) == 0
    assert "0 already cached, 6 to execute" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", str(missing)]) == 0
    assert "entries : 0" in capsys.readouterr().out
    assert not missing.exists()


def test_plan_show_without_name_exits_2(capsys):
    assert main(["plan", "show"]) == 2
    assert "known plans" in capsys.readouterr().err


def test_plan_unknown_name_exits_2(capsys):
    assert main(["plan", "show", "fig99"]) == 2
    assert "unknown plan" in capsys.readouterr().err


def test_plan_run_warm_cache_executes_nothing(tmp_path, capsys):
    import json

    cache = str(tmp_path / "cache")
    metrics = tmp_path / "metrics.json"
    assert main(["plan", "run", "batch_knee", "--cache-dir", cache]) == 0
    assert "6 points (0 cached, 6 executed)" in capsys.readouterr().out
    assert main(["plan", "run", "batch_knee", "--cache-dir", cache,
                 "--metrics-out", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "6 points (6 cached, 0 executed)" in out
    document = json.loads(metrics.read_text())
    counters = document["metrics"]["counters"]
    assert counters["plan.points_cached"] == counters["plan.points_total"]
    assert counters["plan.points_executed"] == 0
    assert document["manifest"]["plan"] == "batch_knee"
    assert len(document["manifest"]["plan_hash"]) == 64


def test_plan_run_json_envelope(tmp_path, capsys):
    import json

    assert main(["plan", "run", "batch_knee", "--json",
                 "--cache-dir", str(tmp_path / "cache")]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["command"] == "plan"
    assert document["data"]["points_total"] == 6
    assert len(document["data"]["records"]) == 6
    # Cache temperature lives in the manifest, never in the record.
    assert "cached" not in document["data"]["records"][0]
    assert "points_cached" not in document["data"]
    assert (document["manifest"]["points_cached"],
            document["manifest"]["points_executed"]) == (0, 6)


def test_plan_run_takes_every_registered_name(monkeypatch, capsys):
    """``plan run`` looks a plan up by its registry key, which is not
    always the plan's own name (``search_grid`` builds ``search``)."""
    from types import SimpleNamespace

    from repro import api

    ran = []

    def execute(plan):
        ran.append(plan.name)
        return SimpleNamespace(plan=plan, plan_hash="0" * 64, points_total=0,
                               points_cached=0, points_executed=0,
                               describe=lambda: plan.name)

    monkeypatch.setattr(api, "_execute_plan", execute)
    for name in api.plans():
        assert main(["plan", "run", name]) == 0, name
        assert ran.pop() == api.plan(name).name
    capsys.readouterr()


# -- serve / client ---------------------------------------------------------

def test_serve_parser_accepts_all_knobs():
    args = build_parser().parse_args([
        "serve", "--port", "0", "--cache-dir", "/tmp/c", "--jobs", "2",
        "--quota-rps", "4", "--quota-burst", "8", "--max-inflight", "3",
        "--deadline", "10", "--header-timeout", "2", "--drain-timeout", "5",
        "--chaos", "worker:sigkill:1", "--chaos", "handler:reject:2:0.5",
    ])
    assert args.command == "serve"
    assert args.jobs == 2 and args.quota_burst == 8
    assert args.chaos == ["worker:sigkill:1", "handler:reject:2:0.5"]


def test_client_request_against_live_daemon(tmp_path, capsys):
    import json

    from repro.serve.daemon import ServeConfig, daemon_in_thread

    config = ServeConfig(cache_dir=tmp_path / "cache",
                         port_file=tmp_path / "daemon.port",
                         quota_rate_per_s=1000.0, quota_burst=1000)
    with daemon_in_thread(config):
        assert main(["client", "request", "/health",
                     "--port-file", str(tmp_path / "daemon.port")]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["ok"] is True and body["data"]["status"] == "ok"

        assert main(["client", "request", "/v1/estimate",
                     "--port-file", str(tmp_path / "daemon.port"),
                     "--data", '{"design": "supernpu"}']) == 0
        body = json.loads(capsys.readouterr().out)
        assert body["data"]["design"] == "SuperNPU"

        # An error response surfaces as exit 1 with the envelope printed.
        assert main(["client", "request", "/v1/estimate",
                     "--port-file", str(tmp_path / "daemon.port"),
                     "--data", '{"design": "nope"}']) == 1
        body = json.loads(capsys.readouterr().out)
        assert body["ok"] is False and body["error"]["code"]


def test_client_request_without_port_exits_2(capsys):
    assert main(["client", "request", "/health"]) == 2
    assert "no daemon port" in capsys.readouterr().err


def test_client_request_fails_cleanly(capsys):
    import socket

    with socket.socket() as probe:  # a port nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = str(probe.getsockname()[1])
    assert main(["client", "request", "/v1/estimate", "--port", port,
                 "--data", "notjson"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --data is not JSON") and "hint:" in err
    assert main(["client", "request", "/health", "--port", port]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: no daemon at 127.0.0.1:{port}")
    assert "supernpu serve" in err and "Traceback" not in err


# -- the command session -----------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["bottleneck", "supernpu", "mobilenet", "--top", "0"],
    ["bottleneck", "supernpu", "mobilenet", "--top", "-1"],
    ["sweep", "buffers", "--jobs", "0"],
    ["simulate", "supernpu", "mobilenet", "--jobs", "0"],
    ["evaluate", "--jobs", "-3"],
    ["hotspot", "--top", "0", "workloads"],
])
def test_count_flags_below_one_exit_2(argv, capsys):
    flag = next(arg for arg in argv if arg.startswith("--"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error, hint = captured.err.splitlines()
    assert error.startswith(f"error: {flag} must be at least 1")
    assert hint == f"hint: pass {flag} 1 or more"


def test_failed_command_leaves_obs_off(tmp_path, capsys):
    import json

    from repro import obs

    trace = tmp_path / "t.json"
    assert main(["simulate", "supernpu", "mobilenet",
                 "--batch", "0", "--trace-out", str(trace)]) == 3
    assert not obs.enabled()
    assert obs.metrics().is_empty() and obs.tracer().roots == []
    # The session still wrote what it was asked for.
    assert json.loads(trace.read_text())["metadata"]["command"] == "simulate"
    assert main(["simulate", "supernpu", "mobilenet"]) == 0
    assert obs.metrics().is_empty()


def test_json_status_lines_go_to_stderr(tmp_path, capsys):
    import json

    metrics, trace = tmp_path / "m.json", tmp_path / "t.json"
    assert main(["simulate", "supernpu", "mobilenet", "--json",
                 "--metrics-out", str(metrics), "--trace-out", str(trace)]) == 0
    captured = capsys.readouterr()
    document = json.loads(captured.out)  # stdout is one JSON document
    assert document["command"] == "simulate"
    assert f"metrics written to {metrics}" in captured.err
    assert f"trace written to {trace}" in captured.err
    # The envelope and the metrics file carry the one manifest.
    assert json.loads(metrics.read_text())["manifest"] == document["manifest"]


@pytest.mark.parametrize("argv", [["plan", "list"],
                                  ["plan", "show", "fig23_evaluate"]])
def test_plan_inspection_honours_hotspot_and_trace(argv, tmp_path, capsys):
    import json

    trace, collapsed = tmp_path / "t.json", tmp_path / "h.col"
    assert main([*argv]) == 0
    plain = capsys.readouterr().out
    assert main(["hotspot", "--hotspot-out", str(collapsed),
                 *argv, "--trace-out", str(trace)]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain + f"trace written to {trace}\n"
    assert "hotspot:" in captured.err
    assert collapsed.read_text()
    assert json.loads(trace.read_text())["metadata"]["command"] == "plan"
