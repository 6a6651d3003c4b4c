"""Design-space search tests — the Section V narrative, rediscovered."""

import importlib

import pytest

from repro.core.search import AREA_BUDGET_MM2, best, search
from repro.errors import ConfigError
from repro.workloads.models import mobilenet, resnet50


@pytest.fixture(scope="module")
def results():
    return search(
        widths=(256, 128, 64),
        divisions=(1, 64, 256),
        registers=(1, 8),
        workloads=[resnet50(), mobilenet()],
    )


def test_all_candidates_within_budget(results):
    assert results
    assert all(c.area_mm2_28nm <= AREA_BUDGET_MM2 for c in results)
    assert all(c.within_budget for c in results)


def test_ranking_is_descending(results):
    values = [c.mean_mac_per_s for c in results]
    assert values == sorted(values, reverse=True)
    assert best(results) is results[0]


def test_winner_is_supernpu_class(results):
    """The search must rediscover the paper's design direction: a narrowed
    array with divided buffers and multiple registers per PE."""
    winner = best(results).config
    assert winner.pe_array_width in (64, 128)
    assert winner.ifmap_division >= 64
    assert winner.integrated_output_buffer


def test_undivided_designs_rank_last(results):
    """Division is the decisive optimization (Fig. 20's message)."""
    tail = results[-3:]
    assert all(c.config.ifmap_division == 1 for c in tail)
    assert best(results).mean_mac_per_s > 50 * tail[-1].mean_mac_per_s


def test_registers_break_ties_upward(results):
    """Among otherwise-equal configs, more registers never hurt."""
    by_name = {c.config.name: c for c in results}
    for width in (64, 128):
        lean = by_name.get(f"w{width}-d256-r1")
        fat = by_name.get(f"w{width}-d256-r8")
        if lean and fat:
            assert fat.mean_mac_per_s >= 0.95 * lean.mean_mac_per_s


def test_best_requires_candidates():
    with pytest.raises(ValueError):
        best([])


def test_budget_validation():
    with pytest.raises(ValueError):
        search(area_budget_mm2=0, workloads=[mobilenet()])


@pytest.mark.parametrize("axes", [
    {"widths": (0,)},  # resource_config would divide by zero
    {"widths": (512,)},  # wider than the array whose area is re-balanced
    {"divisions": (0,)},  # would be simulated as undivided
    {"divisions": (-64,)},
    {"registers": (0,)},
    {"widths": (64.0,)},
    {"divisions": (True,)},
])
def test_bad_search_axes_are_config_errors_before_any_work(monkeypatch, axes):
    module = importlib.import_module("repro.core.search")

    def forbidden(*args, **kwargs):
        raise AssertionError("no design may be built for a bad axis")

    monkeypatch.setattr(module, "resource_config", forbidden)
    monkeypatch.setattr(module, "get_runner", forbidden)
    with pytest.raises(ConfigError) as info:
        search(workloads=[mobilenet()], **axes)
    assert info.value.code == "config.invalid_value"
    assert info.value.context["field"] == next(iter(axes))
