"""The claims table: every paper claim, measured once and checked in band."""

import re
from pathlib import Path

import pytest

from repro.core.golden import CLAIMS, GOLDEN, check, current_record, holds, measure, render, splice

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def record():
    return current_record()


@pytest.fixture(scope="module")
def full_record():
    return measure()


def test_all_goldens_hold(record):
    violations = check(record)
    assert not violations, "\n".join(violations)


def test_record_covers_every_golden(record):
    assert set(GOLDEN) <= set(record)


def test_every_claim_holds(full_record):
    assert set(full_record) == {claim.id for claim in CLAIMS}
    violations = check(full_record)
    assert not violations, "\n".join(violations)


#: One drift per band kind: claim id -> an out-of-band replacement value.
DRIFTS = {
    "supernpu_speedup": lambda value: value * 2,  # relative tolerance
    "fig15.preparation": lambda shares: {**shares, "VGG16": 0.5},  # bounds, one element
    "table3.rsfq_perf_per_watt_free": lambda value: 0.1,  # bounds, scalar
    "fig23.averages_rise": lambda series: series[::-1],  # shape: ordering
    "fig23.supernpu_peak_workload": lambda name: "AlexNet",  # shape: argmax
}


def test_check_flags_drift(full_record):
    """Moving one value out of its band gives one new violation, naming that row."""
    baseline = check(full_record)
    for claim_id, drift in DRIFTS.items():
        drifted = {**full_record, claim_id: drift(full_record[claim_id])}
        new = [violation for violation in check(drifted) if violation not in baseline]
        assert [violation.split(":")[0] for violation in new] == [claim_id]


def test_check_flags_missing_metric(record):
    partial = {k: v for k, v in record.items() if k != "npu_frequency_ghz"}
    violations = check(partial)
    assert any("missing" in violation for violation in violations)


@pytest.mark.parametrize("claim_id, broken", [
    ("supernpu_speedup", float("nan")),
    ("table3.rsfq_perf_per_watt_free", float("nan")),
    ("fig15.preparation", {"AlexNet": float("inf")}),
    ("fig22.width64_rises", [1.0, float("nan"), 2.0]),
])
def test_check_flags_non_finite(record, claim_id, broken):
    new = [violation for violation in check({**record, claim_id: broken})
           if violation not in check(record)]
    assert [violation.split(":")[0] for violation in new] == [claim_id]
    assert "non-finite" in new[0]


def test_goldens_track_the_paper():
    """A band that excludes the paper's own value names a known deviation."""
    assert GOLDEN["npu_frequency_ghz"][0] == 52.6  # Table I
    for claim in CLAIMS:
        if isinstance(claim.paper, (int, float)) and not holds(claim.band, claim.paper):
            assert claim.deviation is not None, claim.id


def test_claim_ids_are_unique():
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS)


def test_deviations_name_experiments_items():
    summary = EXPERIMENTS_MD.read_text(encoding="utf-8").split(
        "### Summary of known deviations")[1]
    items = {int(number) for number in re.findall(r"^(\d+)\. \*\*", summary, re.MULTILINE)}
    flagged = {claim.deviation for claim in CLAIMS if claim.deviation is not None}
    assert flagged <= items
    assert {1, 2, 3, 4} <= flagged


def test_experiments_md_claims_block_is_current(full_record):
    document = EXPERIMENTS_MD.read_text(encoding="utf-8")
    assert splice(document, render(full_record)) == document, (
        "EXPERIMENTS.md's claims block is stale: run `python -m repro.core.golden`"
    )
