"""One-command reproduction runner tests."""

import json

import pytest

from repro.core.experiments import EXPERIMENTS, reproduce_all
from repro.errors import ConfigError
from repro.workloads.models import mobilenet, resnet50


@pytest.fixture(scope="module")
def small_workloads():
    return [resnet50(), mobilenet()]


def test_registry_covers_every_figure_and_table():
    expected = {
        "fig05_network", "fig07_feedback", "fig08_duplication",
        "fig13_validation", "fig15_cycle_breakdown", "fig17_roofline",
        "fig20_buffer_opt", "fig21_resource_balancing", "fig22_registers",
        "fig23_performance", "table1_setup", "table2_batches", "table3_power",
    }
    assert set(EXPERIMENTS) == expected


def test_subset_run(small_workloads):
    results = reproduce_all(
        workloads=small_workloads,
        only=["fig07_feedback", "table1_setup"],
    )
    assert set(results) == {"fig07_feedback", "table1_setup"}
    assert results["fig07_feedback"]["ws_ghz"] > results["fig07_feedback"]["os_ghz"]
    assert results["table1_setup"]["SuperNPU"]["frequency_ghz"] == pytest.approx(52.6, rel=0.002)


def test_json_artifacts_written(tmp_path, small_workloads):
    reproduce_all(
        out_dir=tmp_path,
        workloads=small_workloads,
        only=["fig08_duplication", "fig15_cycle_breakdown"],
    )
    files = sorted(p.name for p in tmp_path.glob("*.json"))
    assert files == ["fig08_duplication.json", "fig15_cycle_breakdown.json"]
    payload = json.loads((tmp_path / "fig15_cycle_breakdown.json").read_text())
    assert payload["ResNet50"]["preparation"] > 0.9


def test_unknown_experiment_rejected(small_workloads):
    with pytest.raises(ConfigError, match="unknown experiments") as excinfo:
        reproduce_all(workloads=small_workloads, only=["fig99"])
    assert excinfo.value.code == "config.unknown_experiment"
    assert "fig07_feedback" in excinfo.value.hint


def test_out_path_that_is_a_file_rejected_before_running(tmp_path, monkeypatch):
    from repro.core import experiments

    ran = []
    monkeypatch.setitem(experiments.EXPERIMENTS, "fig07_feedback",
                        lambda library, workloads: ran.append(1))
    path = tmp_path / "results"
    path.write_text("not a directory")
    with pytest.raises(ConfigError, match="not a directory"):
        reproduce_all(out_dir=path, only=["fig07_feedback"])
    assert ran == []


def test_full_run_results_are_consistent(small_workloads):
    results = reproduce_all(workloads=small_workloads)
    assert len(results) == len(EXPERIMENTS)
    # Fig. 23's averages rise along the optimization sequence.
    speedups = results["fig23_performance"]
    order = ["Baseline", "Buffer opt.", "Resource opt.", "SuperNPU"]
    values = [speedups[d]["Average"] for d in order]
    assert values[0] < values[-1]
    # Table III's ERSFQ free-cooling headline is present.
    table3 = results["table3_power"]
    ersfq = table3["ERSFQ-SuperNPU (w/o cooling)"]["perf_per_watt_vs_tpu"]
    assert ersfq > 100


def test_extension_registry(small_workloads):
    from repro.core.experiments import EXTENSIONS

    assert set(EXTENSIONS) == {
        "ext_feature_ablation", "ext_process_scaling",
        "ext_bandwidth_sensitivity", "ext_cooling_sensitivity",
        "ext_dataflow_ablation", "ext_training_step",
    }
    results = reproduce_all(
        workloads=small_workloads,
        only=["ext_process_scaling", "ext_dataflow_ablation"],
    )
    scaling = results["ext_process_scaling"]
    assert scaling[0]["feature_um"] == 1.0
    dataflow = results["ext_dataflow_ablation"]
    assert dataflow["ResNet50"]["ws_tmacs"] > dataflow["ResNet50"]["os_tmacs"]


def test_extensions_join_default_set(small_workloads):
    results = reproduce_all(
        workloads=small_workloads,
        only=None,
        include_extensions=True,
    )
    from repro.core.experiments import EXTENSIONS

    assert set(EXTENSIONS) <= set(results)
    assert len(results) == len(EXPERIMENTS) + len(EXTENSIONS)


def test_cli_reproduce_command(tmp_path, capsys):
    from repro.cli import main

    assert main(["reproduce", "--out", str(tmp_path), "--only", "fig07_feedback"]) == 0
    out = capsys.readouterr().out
    assert "fig07_feedback" in out
    assert (tmp_path / "fig07_feedback.json").exists()
