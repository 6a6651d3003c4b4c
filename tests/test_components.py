"""Component-estimator registry tests.

Covers the registry itself, the registry-backed memory-model factory,
technology wiring through ``NPUConfig``, the cross-temperature energy
report, the golden bitwise-invariance contract (default technologies
reproduce every pre-registry hash), and the end-to-end technology
plan-axis sweep.
"""

import hashlib
import math

import pytest

from repro import api
from repro.components import (
    DEFAULT_LINK_TECHNOLOGY,
    DEFAULT_MEMORY_TECHNOLOGY,
    ComponentEstimator,
    all_components,
    component_by_name,
    component_names,
    cross_temperature_report,
    register,
    unregister,
)
from repro.components.study import TECHNOLOGY_PAIRS, memory_technology_plan
from repro.core.designs import supernpu
from repro.core.jobs import (
    SimTask,
    _canonical_hash,
    config_signature,
    estimate_key,
    estimate_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.core.plan import PLAN_BUILDERS, execute, plan_by_name, technology_axis
from repro.core.search import search, search_plan
from repro.device.cells import rsfq_library
from repro.errors import ConfigError
from repro.estimator.arch_level import estimate_npu
from repro.simulator.engine import simulate
from repro.simulator.memory import MemoryModel, memory_model_for
from repro.uarch.config import NPUConfig
from repro.workloads.models import resnet50
from tests.payloads import columns_document, unstamped


# -- the registry -----------------------------------------------------------

def test_builtin_components_registered():
    names = component_names()
    for required in ("dram-300k", "dram-77k", "cryo-sram-4k",
                     "4k-300k-link", "4k-77k-link", "chip2chip-ptl"):
        assert required in names
    assert all(c.kind == "memory" for c in all_components(kind="memory"))
    assert all(c.kind == "link" for c in all_components(kind="link"))


def test_unknown_component_error_lists_registry():
    with pytest.raises(ConfigError) as excinfo:
        component_by_name("sram-from-the-future")
    assert excinfo.value.code == "components.unknown"
    assert "dram-300k" in (excinfo.value.hint or "")


def test_wrong_kind_lookup_rejected():
    with pytest.raises(ConfigError) as excinfo:
        component_by_name("dram-300k", kind="link")
    assert excinfo.value.code == "components.wrong_kind"


def test_duplicate_registration_rejected():
    spare = ComponentEstimator(name="test-spare-ram", kind="memory",
                               stage_k=4.2)
    register(spare)
    try:
        with pytest.raises(ConfigError) as excinfo:
            register(spare)
        assert excinfo.value.code == "components.duplicate"
    finally:
        unregister("test-spare-ram")


def test_component_validation():
    with pytest.raises(ConfigError, match="kind"):
        ComponentEstimator(name="x", kind="fpga", stage_k=4.2)
    with pytest.raises(ConfigError, match="stage"):
        ComponentEstimator(name="x", kind="memory", stage_k=10.0)
    with pytest.raises(ConfigError, match="action"):
        ComponentEstimator(name="x", kind="memory", stage_k=4.2,
                           action_energy_pj_per_byte={"jump": 1.0})
    with pytest.raises(ConfigError, match="bandwidth"):
        ComponentEstimator(name="x", kind="memory", stage_k=4.2,
                           bandwidth_gbps=0.0)


def test_action_energy_math():
    dram = component_by_name("dram-300k")
    assert math.isclose(dram.action_energy_j("read", 1e12), 31.0)
    assert dram.action_energy_j("transfer", 100) == 0.0  # undeclared
    with pytest.raises(ConfigError):
        dram.action_energy_j("jump")
    sram = component_by_name("cryo-sram-4k")
    assert math.isclose(sram.area_mm2(2 * 1024 * 1024), 3.2)


# -- the memory-model factory ----------------------------------------------

def test_default_factory_matches_legacy_construction():
    config = supernpu()
    model = memory_model_for(config, 52.6)
    assert model == MemoryModel(config.memory_bandwidth_gbps, 52.6)


def test_factory_uses_component_bandwidth():
    config = supernpu().with_updates(memory_technology="cryo-sram-4k")
    assert memory_model_for(config, 52.6).bandwidth_gbps == 1100.0


def test_factory_caps_at_link_bandwidth():
    config = supernpu().with_updates(memory_technology="cryo-sram-4k",
                                     link_technology="chip2chip-ptl")
    assert memory_model_for(config, 52.6).bandwidth_gbps == 500.0


def test_factory_handles_configs_without_technology_fields():
    class Bare:
        memory_bandwidth_gbps = 300.0

    model = memory_model_for(Bare(), 1.0)
    assert model.bandwidth_gbps == 300.0


def test_memory_model_validates_inputs():
    with pytest.raises(ConfigError) as excinfo:
        MemoryModel(0.0, 52.6)
    assert excinfo.value.code == "config.invalid_value"
    with pytest.raises(ConfigError):
        MemoryModel(300.0, -1.0)
    # ConfigError subclasses ValueError: legacy callers keep working.
    with pytest.raises(ValueError):
        MemoryModel(-5.0, 52.6)


# -- technology wiring through NPUConfig -----------------------------------

def test_config_defaults_are_registry_defaults():
    config = NPUConfig(name="x")
    assert config.memory_technology == DEFAULT_MEMORY_TECHNOLOGY
    assert config.link_technology == DEFAULT_LINK_TECHNOLOGY


def test_config_rejects_unknown_technology():
    with pytest.raises(ConfigError) as excinfo:
        NPUConfig(name="x", memory_technology="stone-tablet")
    assert excinfo.value.code == "components.unknown"
    with pytest.raises(ConfigError):
        NPUConfig(name="x", link_technology="dram-300k")  # wrong kind


def test_estimate_components_lookup():
    est = estimate_npu(supernpu(), rsfq_library())
    parts = est.components()
    assert parts["memory"].name == DEFAULT_MEMORY_TECHNOLOGY
    assert parts["link"].name == DEFAULT_LINK_TECHNOLOGY
    assert est.off_chip_access_energy_j(1e12) == pytest.approx(31.0)


def test_unknown_unit_error_is_structured():
    est = estimate_npu(supernpu(), rsfq_library())
    with pytest.raises(ConfigError) as excinfo:
        est.unit_access_energy_j("flux_capacitor")
    assert excinfo.value.code == "estimator.unknown_unit"
    assert "pe_array" in (excinfo.value.hint or "")


# -- key invariance + distinctness -----------------------------------------

#: Pre-refactor golden values (captured on the seed of this PR).  With
#: default technologies every key, payload, and plan hash MUST stay
#: bitwise-identical to these — the refactor's central invariant.
GOLDEN_TASK_KEY = \
    "efb93a6dd775275fd45dc2090cf85e14e4a98a4f3f3cfab741beb1c6c72b4b79"
GOLDEN_ESTIMATE_KEY = \
    "c845524b4b24c4191e80d93b6c9d2ca775cf31da5918703e85c41af212102ca7"
GOLDEN_ESTIMATE_PAYLOAD = \
    "95fd7ba492bb4672f7a2ac06144a35ef8b1c6ba80d2221a6b23475b446e201ca"
#: Hash of the simulate payload in row layout (one dict per layer), the
#: layout of entry format 1; checked over the rows rebuilt from columns.
GOLDEN_SIMULATE_PAYLOAD = \
    "9c6c82004b4eedbe00d0ffef801c4ed895575ad24c35f925eb52e60e0ad20fa3"
#: Hash of the same payload as entry format 2 stored it (layer columns),
#: checked over a result decoded from its format-3 payload.
GOLDEN_SIMULATE_COLUMNS = \
    "e35c26a85e28da596b9828c1f99a7865ec074efb0481dc307c46d0963b6b1cea"
GOLDEN_PLAN_HASHES = {
    "fig21_resources":
        "9d1b1822dab2c66d58135e69fdee9602a1eb81986623dea17d8f744aeb416ee4",
    "fig20_buffers":
        "4ee6678162473160eb42e744306d1c7eb81547bdaf305d8e23238eb39db6b43f",
}


#: The default search: its plan hash, a sha256 over its 384 task keys then
#: its 64 estimate keys (one per line), and a sha256 over its ranking, one
#: ``name repr(mean) repr(area) repr(peak)`` line per candidate.
GOLDEN_SEARCH_PLAN_HASH = \
    "150858ce84610c1c03995f627e33bff23e9a4ca4c774e5b56fb72a6f678554a4"
GOLDEN_SEARCH_KEYS = \
    "df1ce47b313068ba653ef48fe5c9c914b01c3eba4e81786d77e992aa892bc6f0"
GOLDEN_SEARCH_RANKING = \
    "c844ff86e5c2ee3661f0e6a54fc8fdd529493855f4b5c3e3f1553ef93a816bad"


def _lines_digest(lines):
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


def test_golden_search_plan_keys_and_ranking_unchanged():
    plan, library = search_plan(), rsfq_library()
    assert plan.plan_hash() == GOLDEN_SEARCH_PLAN_HASH
    task_keys = plan.lower().task_keys()
    configs = plan.grids[0].axes[0].values
    assert (len(task_keys), len(configs)) == (384, 64)
    assert _lines_digest(task_keys + [estimate_key(config, library) for config in configs]) \
        == GOLDEN_SEARCH_KEYS
    assert _lines_digest(
        f"{c.config.name} {c.mean_mac_per_s!r} {c.area_mm2_28nm!r} {c.peak_tmacs!r}"
        for c in search()) == GOLDEN_SEARCH_RANKING


def test_search_plan_balances_buffers_once_per_width(monkeypatch):
    import importlib

    from repro.core import optimizer

    search_module = importlib.import_module("repro.core.search")

    calls = []
    balanced = optimizer.balanced_buffer_bytes

    def counted(width, *args, **kwargs):
        calls.append(width)
        return balanced(width, *args, **kwargs)

    for module in (optimizer, search_module):
        monkeypatch.setattr(module, "balanced_buffer_bytes", counted)
    plan = search_plan()
    # Once per width of the default grid, not once per width x registers.
    assert sorted(calls) == sorted(search_module.DEFAULT_WIDTHS)
    assert plan.plan_hash() == GOLDEN_SEARCH_PLAN_HASH
    library = rsfq_library()
    assert _lines_digest(plan.lower().task_keys() + [
        estimate_key(config, library) for config in plan.grids[0].axes[0].values
    ]) == GOLDEN_SEARCH_KEYS


#: Every registered plan, in registry order: a ``name plan_hash points``
#: line, its points' keys (``lower().task_keys()``), then its estimate
#: points' keys as ``estimate_key`` computes them, one per line.
GOLDEN_ALL_PLAN_KEYS = \
    "2618627eaf95be4c68393370f1de23e3306262cf1cbb66165e8be16107da9e3e"


def test_golden_keys_of_every_registered_plan_unchanged():
    lines = []
    for name, build in PLAN_BUILDERS.items():
        plan = build()
        lowered = plan.lower()
        lines.append(f"{name} {plan.plan_hash()} {len(lowered.points)}")
        lines.extend(lowered.task_keys())
        lines.extend(estimate_key(point.config, point.library or rsfq_library())
                     for point in lowered.points if point.kind == "estimate")
    assert (len(PLAN_BUILDERS), len(lines)) == (13, 829)
    assert _lines_digest(lines) == GOLDEN_ALL_PLAN_KEYS


def test_golden_default_technology_keys_unchanged():
    config, network, library = supernpu(), resnet50(), rsfq_library()
    assert SimTask(config, network, 30, library).key() == GOLDEN_TASK_KEY
    assert estimate_key(config, library) == GOLDEN_ESTIMATE_KEY


def test_golden_default_technology_payloads_unchanged():
    config, library = supernpu(), rsfq_library()
    est = estimate_npu(config, library)
    assert _canonical_hash(estimate_to_dict(est)) == GOLDEN_ESTIMATE_PAYLOAD
    run = result_from_dict(result_to_dict(simulate(config, resnet50(), 30, estimate=est)))
    payload = columns_document(run)
    assert _canonical_hash(payload) == GOLDEN_SIMULATE_COLUMNS
    columns = payload["layers"]
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    assert _canonical_hash({**payload, "layers": rows}) == GOLDEN_SIMULATE_PAYLOAD


def test_golden_plan_hashes_unchanged():
    for name, expected in GOLDEN_PLAN_HASHES.items():
        assert plan_by_name(name).plan_hash() == expected, name


def test_config_signature_omits_only_default_technologies():
    default = config_signature(supernpu())
    assert "memory_technology" not in default
    assert "link_technology" not in default
    swept = config_signature(
        supernpu().with_updates(memory_technology="dram-77k"))
    assert swept["memory_technology"] == "dram-77k"
    assert "link_technology" not in swept


def test_non_default_technology_changes_every_key():
    network, library = resnet50(), rsfq_library()
    base = supernpu()
    swept = base.with_updates(memory_technology="cryo-sram-4k")
    assert SimTask(base, network, 30, library).key() != \
        SimTask(swept, network, 30, library).key()
    assert estimate_key(base, library) != estimate_key(swept, library)


def test_estimate_payload_roundtrip_preserves_technology():
    from repro.core.jobs import estimate_from_dict

    config = supernpu().with_updates(memory_technology="dram-77k",
                                     link_technology="4k-77k-link")
    est = estimate_npu(config, rsfq_library())
    restored = estimate_from_dict(estimate_to_dict(est))
    assert restored.config.memory_technology == "dram-77k"
    assert restored.config.link_technology == "4k-77k-link"
    # And a default-technology payload restores defaults.
    est0 = estimate_npu(supernpu(), rsfq_library())
    restored0 = estimate_from_dict(estimate_to_dict(est0))
    assert restored0.config.memory_technology == DEFAULT_MEMORY_TECHNOLOGY


# -- cross-temperature accounting ------------------------------------------

def test_cross_temperature_default_matches_single_stage_cooler():
    """Default technologies: chip heat at 4.2 K, DRAM heat at 300 K."""
    from repro.cooling import PAPER_COOLER
    from repro.simulator.power import power_report

    config = supernpu()
    est = estimate_npu(config, rsfq_library())
    run = simulate(config, resnet50(), 30, estimate=est)
    report = cross_temperature_report(run, est)
    chip = power_report(run, est).total_w
    assert report.dissipation_by_stage_w[4.2] == chip
    # DRAM heat lands at 300 K where cooling is free, so the wall power
    # is the paper's 401x chip charge plus the DRAM watts themselves.
    dram_w = report.dissipation_by_stage_w[300.0]
    assert dram_w > 0
    assert report.wall_power_w == pytest.approx(
        PAPER_COOLER.wall_power_w(chip) + dram_w)
    assert report.free_cooling_wall_power_w == pytest.approx(chip + dram_w)


def test_cross_temperature_cold_memory_pays_cooling():
    """The same joules cost ~401x more when dissipated at 4.2 K."""
    config = supernpu().with_updates(memory_technology="cryo-sram-4k",
                                     link_technology="chip2chip-ptl")
    est = estimate_npu(config, rsfq_library())
    run = simulate(config, resnet50(), 30, estimate=est)
    report = cross_temperature_report(run, est)
    assert report.dissipation_by_stage_w[300.0] == 0.0
    assert report.dissipation_by_stage_w[77.0] == 0.0
    assert report.wall_power_w == pytest.approx(
        report.dissipation_by_stage_w[4.2] * 401.0)


# -- the plan axis, end to end ---------------------------------------------

def test_technology_axis_labels_and_signature():
    axis = technology_axis(supernpu(), ("dram-300k", "dram-77k"))
    assert axis.labels == ("dram-300k", "dram-77k")
    sig_default, sig_77k = (axis.value_signature(v) for v in axis.values)
    assert "memory_technology" not in sig_default["fields"]
    assert sig_77k["fields"]["memory_technology"] == "dram-77k"
    with pytest.raises(ConfigError):
        technology_axis(supernpu(), ("dram-300k",), field_name="psum_bits")


def test_memory_technology_plan_registered():
    assert "memory_technologies" in api.plans()
    plan = plan_by_name("memory_technologies")
    assert plan.num_points == len(TECHNOLOGY_PAIRS) * 3


def test_technology_sweep_distinct_cached_reproducible(tmp_path):
    """Sweeping ≥3 memory technologies end-to-end through the cached job
    engine yields distinct results per technology, all cache hits on the
    second run, and bitwise-identical records both times."""
    from repro.core import jobs

    tiny = resnet50().__class__(
        name="tiny", layers=resnet50().layers[:2])
    plan = memory_technology_plan(workloads=(tiny,), widths=(64,))
    assert plan.num_points == len(TECHNOLOGY_PAIRS) == 3

    with jobs.session(cache_dir=tmp_path):
        cold = execute(plan)
        assert cold.points_executed == 3 and cold.points_cached == 0
    with jobs.session(cache_dir=tmp_path):
        warm = execute(plan)
        assert warm.points_cached == 3 and warm.points_executed == 0

    assert cold.plan_hash == warm.plan_hash
    cycles = {r.coord("config"): r.run.total_cycles for r in cold}
    assert len(set(cycles.values())) > 1  # technologies actually differ
    for cold_r, warm_r in zip(cold, warm):
        assert unstamped(result_to_dict(cold_r.run)) == unstamped(result_to_dict(warm_r.run))
