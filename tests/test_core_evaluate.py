"""End-to-end evaluation-suite tests (Fig. 23 / Table III shapes)."""

import pytest

from repro.core.evaluate import evaluate_suite, table3_plan, table3_rows
from repro.core.designs import supernpu
from repro.core.plan import execute
from repro.workloads.models import by_name


@pytest.fixture(scope="module")
def suite():
    return evaluate_suite()


@pytest.fixture(scope="module")
def table3():
    return execute(table3_plan())


def test_suite_covers_all_designs_and_workloads(suite):
    assert [d.config.name for d in suite.designs] == [
        "Baseline", "Buffer opt.", "Resource opt.", "SuperNPU",
    ]
    assert len(suite.tpu_runs) == 6


def test_fig23_progression(suite):
    """Average speedups rise along the optimization sequence."""
    speedups = suite.speedups()
    averages = [speedups[d]["Average"] for d in
                ("Baseline", "Buffer opt.", "Resource opt.", "SuperNPU")]
    assert averages[0] < 1.0  # Baseline loses to the TPU (paper: 0.4x)
    assert averages[0] < averages[1] < averages[2] < averages[3]


def test_fig23_supernpu_headline(suite):
    """SuperNPU beats the TPU by tens of times (paper: 23x average)."""
    speedups = suite.speedups()["SuperNPU"]
    assert 10 <= speedups["Average"] <= 50
    # MobileNet shows the largest gain (paper: ~42x).
    workloads_only = {k: v for k, v in speedups.items() if k != "Average"}
    assert max(workloads_only, key=workloads_only.get) == "MobileNet"


def test_every_design_beats_baseline(suite):
    speedups = suite.speedups()
    for design in ("Buffer opt.", "Resource opt.", "SuperNPU"):
        assert speedups[design]["Average"] > speedups["Baseline"]["Average"]


def test_design_lookup(suite):
    assert suite.design("SuperNPU").config.name == "SuperNPU"
    with pytest.raises(KeyError):
        suite.design("MegaNPU")


def test_evaluate_design_single(rsfq):
    evaluation = evaluate_suite(designs=[supernpu()], workloads=[by_name("resnet50")],
                                library=rsfq).design("SuperNPU")
    assert set(evaluation.runs) == {"ResNet50"}
    assert evaluation.mean_mac_per_s > 0
    assert evaluation.power["ResNet50"].total_w > 0


def test_table3_shape(table3):
    rows = table3_rows(table3)
    labels = [r.label for r in rows]
    assert labels[0] == "TPU"
    assert any("RSFQ" in l for l in labels)
    assert any("ERSFQ" in l for l in labels)
    reference = rows[0]
    by_label = {r.label: r for r in rows}
    # RSFQ with cooling is catastrophically inefficient (paper: 0.002x).
    assert by_label["RSFQ-SuperNPU (w/ cooling)"].normalized_to(reference) < 0.01
    # ERSFQ with free cooling wins by hundreds of times (paper: 490x).
    assert by_label["ERSFQ-SuperNPU (w/o cooling)"].normalized_to(reference) > 100
    # ERSFQ including cooling still edges out the TPU (paper: 1.23x).
    assert by_label["ERSFQ-SuperNPU (w/ cooling)"].normalized_to(reference) > 1.0


def test_table3_chip_power_bands(table3):
    rows = {r.label: r for r in table3_rows(table3)}
    assert 900 <= rows["RSFQ-SuperNPU (w/ cooling)"].chip_power_w <= 1030
    assert rows["ERSFQ-SuperNPU (w/ cooling)"].chip_power_w < 3.0
