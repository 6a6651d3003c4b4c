"""Run-manifest and file-export tests."""

import json

from repro.obs import (
    RunManifest,
    config_content_hash,
    metrics_document,
    write_metrics,
    write_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def test_config_hash_is_content_addressed(supernpu_config, baseline_config):
    assert config_content_hash(supernpu_config) == config_content_hash(supernpu_config)
    assert config_content_hash(supernpu_config) != config_content_hash(baseline_config)
    # Same content, different provenance -> same hash.
    clone = supernpu_config.with_updates()
    assert config_content_hash(clone) == config_content_hash(supernpu_config)
    # Any field change -> different hash.
    tweaked = supernpu_config.with_updates(registers_per_pe=2)
    assert config_content_hash(tweaked) != config_content_hash(supernpu_config)


def test_capture_from_live_objects(supernpu_config, tiny_network):
    manifest = RunManifest.capture(
        "simulate",
        config=supernpu_config,
        workload=tiny_network,
        batch=4,
        technology="rsfq",
        wall_time_s=1.25,
        suite="unit-test",
    )
    data = manifest.to_dict()
    assert data["command"] == "simulate"
    assert data["design"] == "SuperNPU"
    assert data["config_hash"] == config_content_hash(supernpu_config)
    assert data["workload"] == "TinyNet"
    assert data["batch"] == 4
    assert data["technology"] == "rsfq"
    assert data["wall_time_s"] == 1.25
    assert data["suite"] == "unit-test"
    import repro

    assert data["package_version"] == repro.__version__
    assert json.loads(manifest.to_json()) == data


def test_capture_minimal():
    manifest = RunManifest.capture("evaluate")
    data = manifest.to_dict()
    assert data["design"] is None and data["workload"] is None
    assert data["created_unix"] > 0


def test_write_metrics_document(tmp_path, supernpu_config):
    registry = MetricsRegistry(enabled=True)
    registry.counter("sim.runs").inc()
    manifest = RunManifest.capture("simulate", config=supernpu_config)
    path = write_metrics(tmp_path / "out" / "metrics.json", registry, manifest)
    data = json.loads(path.read_text())
    assert data["metrics"]["counters"]["sim.runs"] == 1
    assert data["manifest"]["design"] == "SuperNPU"
    assert metrics_document(registry, manifest)["metrics"] == data["metrics"]


def test_write_trace_embeds_manifest(tmp_path):
    tracer = Tracer(enabled=True)
    with tracer.span("simulate"):
        pass
    manifest = RunManifest.capture("profile")
    path = write_trace(tmp_path / "trace.json", tracer, manifest)
    data = json.loads(path.read_text())
    assert data["traceEvents"][0]["name"] == "simulate"
    assert data["metadata"]["command"] == "profile"


def test_write_defaults_to_global_runtime(tmp_path, obs_enabled):
    obs_enabled.counter("a").inc(3)
    with obs_enabled.trace_span("root"):
        pass
    metrics_data = json.loads(write_metrics(tmp_path / "m.json").read_text())
    trace_data = json.loads(write_trace(tmp_path / "t.json").read_text())
    assert metrics_data["metrics"]["counters"] == {"a": 3}
    assert metrics_data["manifest"] is None
    assert [e["name"] for e in trace_data["traceEvents"]] == ["root"]
