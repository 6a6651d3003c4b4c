"""The estimator's unit memo: value-keyed, never identity-keyed, and
invisible in every estimate it serves."""

from __future__ import annotations

import gc
import importlib
import random
import sys
import threading

import pytest

from repro.core.designs import all_designs
from repro.device.cells import ersfq_library, rsfq_library
from repro.estimator import arch_level
from repro.estimator.arch_level import (
    ReplicatedUnit,
    build_units,
    clear_unit_memo,
    estimate_npu,
)
from repro.estimator.uarch_level import estimate_unit
from repro.simulator.dataflow_ablation import estimate_os_npu
from repro.uarch.activation import MaxPoolUnit, ReLUUnit
from repro.uarch.buffers import IntegratedOutputBuffer, ShiftRegisterBuffer
from repro.uarch.dau import DataAlignmentUnit
from repro.uarch.mac import Dataflow, MACUnit
from repro.uarch.network import SystolicChain
from repro.uarch.pe import ProcessingElement
from repro.uarch.unit import Unit

jobs = importlib.import_module("repro.core.jobs")
search = importlib.import_module("repro.core.search")

LIBRARIES = {"rsfq": rsfq_library(), "ersfq": ersfq_library()}


@pytest.fixture(autouse=True)
def _cold_memo():
    clear_unit_memo()
    yield
    clear_unit_memo()


def _search_configs(library):
    return list(search.search_plan(library=library).grids[0].axes[0].values)


def _fresh(config, library):
    """The estimate with nothing memoized."""
    clear_unit_memo()
    return estimate_npu(config, library)


def _all_units(unit):
    yield unit
    if isinstance(unit, ReplicatedUnit):
        yield from _all_units(unit.prototype)
    if isinstance(unit, ProcessingElement):
        yield unit.mac


# -- signatures ----------------------------------------------------------------

def test_every_constructed_unit_class_defines_a_signature():
    seen = set()
    for config in all_designs():  # separate and integrated output buffers
        for unit in build_units(config).values():
            for part in _all_units(unit):
                seen.add(type(part))
    # estimate_os_npu's PE is a ProcessingElement with an OS MACUnit.
    os_pe = ProcessingElement(dataflow=Dataflow.OUTPUT_STATIONARY)
    seen.update(type(part) for part in _all_units(os_pe))
    assert {IntegratedOutputBuffer, ShiftRegisterBuffer, ReplicatedUnit,
            ProcessingElement, MACUnit} <= seen
    for cls in seen:
        assert any("signature" in vars(klass) for klass in cls.__mro__
                   if klass is not Unit), cls


def test_the_base_unit_has_no_fallback_signature():
    with pytest.raises(NotImplementedError):
        Unit().signature()


@pytest.mark.parametrize("make, variants", [
    (lambda **k: MACUnit(**{"bits": 8, "psum_bits": 24, **k}),
     [{"bits": 9}, {"psum_bits": 25}, {"dataflow": Dataflow.OUTPUT_STATIONARY}]),
    (lambda **k: ProcessingElement(**{"bits": 8, "psum_bits": 24, "registers": 1, **k}),
     [{"bits": 9}, {"psum_bits": 25}, {"registers": 2},
      {"dataflow": Dataflow.OUTPUT_STATIONARY}]),
    (lambda **k: ReplicatedUnit(**{"prototype": ProcessingElement(), "count": 4,
                                   "kind": "pe-array", **k}),
     [{"prototype": ProcessingElement(registers=2)}, {"count": 5}, {"kind": "other"}]),
    (lambda **k: SystolicChain(**{"width": 4, "bits": 8, **k}),
     [{"width": 5}, {"bits": 9}]),
    (lambda **k: DataAlignmentUnit(**{"rows": 4, "bits": 8, "pe_pipeline_stages": 15, **k}),
     [{"rows": 5}, {"bits": 9}, {"pe_pipeline_stages": 14}]),
    (lambda **k: ShiftRegisterBuffer(**{"capacity_bytes": 1024, "io_width": 4,
                                        "entry_bits": 8, "division": 2, **k}),
     [{"capacity_bytes": 2048}, {"io_width": 5}, {"entry_bits": 9}, {"division": 4}]),
    (lambda **k: IntegratedOutputBuffer(**{"capacity_bytes": 1024, "io_width": 4,
                                           "entry_bits": 8, "division": 2, **k}),
     [{"capacity_bytes": 2048}, {"io_width": 5}, {"entry_bits": 9}, {"division": 4}]),
    (lambda **k: ReLUUnit(**{"lanes": 4, "bits": 24, **k}), [{"lanes": 5}, {"bits": 25}]),
    (lambda **k: MaxPoolUnit(**{"lanes": 4, "bits": 8, **k}), [{"lanes": 5}, {"bits": 9}]),
])
def test_different_constructor_arguments_give_different_signatures(make, variants):
    reference = make().signature()
    assert make().signature() == reference
    hash(reference)
    signatures = {reference} | {make(**change).signature() for change in variants}
    assert len(signatures) == 1 + len(variants)


def test_signature_separates_classes_with_equal_arguments():
    args = dict(capacity_bytes=1024, io_width=4, entry_bits=8, division=2)
    assert (ShiftRegisterBuffer(**args).signature()
            != IntegratedOutputBuffer(**args).signature())


# -- memoized estimates equal fresh ones -----------------------------------------

@pytest.mark.parametrize("technology", sorted(LIBRARIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_memoized_estimates_equal_fresh_ones_in_any_order(technology, seed):
    library = LIBRARIES[technology]
    rng = random.Random(seed)
    configs = list(all_designs()) + rng.sample(_search_configs(library), 24)
    fresh = [_fresh(config, library) for config in configs]
    fresh_os = [estimate_os_npu(config, library) for config in configs[:4]]
    clear_unit_memo()
    order = list(range(len(configs)))
    rng.shuffle(order)
    for index in order:
        estimate = estimate_npu(configs[index], library)
        assert estimate == fresh[index], configs[index].name
        assert list(estimate.units) == list(fresh[index].units)
        assert estimate.critical_path == fresh[index].critical_path
    for config, expected in zip(configs[:4], fresh_os):
        assert estimate_os_npu(config, library) == expected


def test_rebuilt_units_at_recycled_addresses_never_share_an_estimate(rsfq):
    configs = list(all_designs()) + _search_configs(rsfq)[::5]
    fresh = {config.name: _fresh(config, rsfq) for config in configs}
    clear_unit_memo()
    rng = random.Random(7)
    for _ in range(3 * len(configs)):
        config = rng.choice(configs)
        units = build_units(config)
        direct = {name: estimate_unit(unit, rsfq, name) for name, unit in units.items()}
        del units
        gc.collect()  # free the units so the next design may reuse their addresses
        estimate = estimate_npu(config, rsfq)
        assert estimate == fresh[config.name]
        assert estimate.units == direct


def test_each_call_returns_its_own_units_dict(rsfq, supernpu_config):
    first = estimate_npu(supernpu_config, rsfq)
    second = estimate_npu(supernpu_config, rsfq)
    assert first.units is not second.units
    assert first.units["pe_array"] is second.units["pe_array"]  # shared, frozen entry


def test_runner_unit_sort_never_reorders_another_estimate(rsfq):
    a, b = _search_configs(rsfq)[:2]  # same width, so most units are shared
    built_order = list(build_units(a))
    assert built_order != sorted(built_order)
    direct_a = estimate_npu(a, rsfq)
    direct_b = estimate_npu(b, rsfq)
    runner = jobs.JobRunner()
    for config in (a, b):
        served = runner.estimate(config, rsfq)
        assert list(served.units) == sorted(served.units)
    assert list(direct_a.units) == built_order
    assert list(direct_b.units) == list(build_units(b))
    assert estimate_npu(a, rsfq) == direct_a


# -- observability -------------------------------------------------------------

def test_hits_keep_their_unit_spans_and_counters(obs_enabled, supernpu_config, rsfq):
    estimate_npu(supernpu_config, rsfq)
    estimate_npu(supernpu_config, rsfq)
    cold, warm = obs_enabled.tracer().roots
    units = list(build_units(supernpu_config))
    for root, memo in ((cold, "miss"), (warm, "hit")):
        spans = [c for c in root.children if c.name == "estimate/unit"]
        assert [s.attrs["unit"] for s in spans] == units
        assert {s.attrs["memo"] for s in spans} == {memo}
    counters = obs_enabled.metrics().snapshot()["counters"]
    assert counters["estimator.units_estimated"] == 2 * len(units)
    assert counters["estimator.unit_memo.misses"] == len(units)
    assert counters["estimator.unit_memo.hits"] == len(units)


def test_memo_stays_bounded(rsfq, monkeypatch):
    monkeypatch.setattr(arch_level, "UNIT_MEMO_SIZE", 10)
    configs = _search_configs(rsfq)[:8]
    fresh = [_fresh(config, rsfq) for config in configs]
    clear_unit_memo()
    for config, expected in zip(configs, fresh):
        assert estimate_npu(config, rsfq) == expected
        assert len(arch_level._UNIT_MEMO) <= 10


def test_the_runners_design_memo_stays_bounded(rsfq, monkeypatch):
    monkeypatch.setattr(jobs, "UNIT_MEMO_SIZE", 4)
    monkeypatch.setattr(jobs, "_WORKER_ESTIMATES", {})
    configs = _search_configs(rsfq)[:10]
    fresh = [_fresh(config, rsfq) for config in configs]
    clear_unit_memo()
    first = jobs._estimate_for(configs[0], rsfq)
    for config, expected in zip(configs, fresh):
        assert jobs._estimate_for(config, rsfq) == expected
        assert len(jobs._WORKER_ESTIMATES) <= 4
    assert jobs.estimate_content(configs[0], rsfq) not in jobs._WORKER_ESTIMATES
    again = jobs._estimate_for(configs[0], rsfq)  # evicted: estimated anew
    assert again is not first
    assert again == first == fresh[0]
    assert repr(again.static_power_w) == repr(fresh[0].static_power_w)
    assert repr(again.area_mm2) == repr(fresh[0].area_mm2)


def test_threads_sharing_a_tiny_memo_get_fresh_estimates(rsfq, monkeypatch):
    monkeypatch.setattr(arch_level, "UNIT_MEMO_SIZE", 6)  # evicting on most inserts
    configs = _search_configs(rsfq)[::4]
    fresh = {config.name: _fresh(config, rsfq) for config in configs}
    clear_unit_memo()
    failures = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(150):
                config = rng.choice(configs)
                if estimate_npu(config, rsfq) != fresh[config.name]:
                    failures.append(config.name)
                if rng.random() < 0.05:
                    clear_unit_memo()
        except Exception as error:  # an eviction race would surface here
            failures.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(arch_level._UNIT_MEMO) <= 6
