"""A result's layer columns, its totals and its ``.layers`` rows agree.

Every constructor of :class:`~repro.simulator.results.SimulationResult`
is covered: a lone weight-stationary ``simulate``, a ``charge_designs``
group, the output-stationary ``simulate_os``, the CMOS ``simulate_cmos``,
and the cache codec's ``result_from_dict``.

A run built by a weight-stationary charge pass keeps its slice of the
pass's int64 block, and a run decoded from a cache record keeps a view of
the record's block: its totals come from one int64 reduction, and its
columns are built from the block when first read.
"""

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.baselines.scalesim import TPU_CORE, simulate_cmos
from repro.core.designs import baseline, supernpu
from repro.core.jobs import (
    CACHE_FORMAT_VERSION,
    JobRunner,
    ResultCache,
    SimTask,
    result_from_dict,
    result_to_dict,
)
from repro.device.cells import rsfq_library
from repro.errors import SimulationError
from repro.estimator.arch_level import estimate_npu
from repro.simulator.dataflow_ablation import simulate_os
from repro.simulator.engine import charge_designs, simulate
from repro.simulator.kernel import EXACT_LIMIT
from repro.simulator.results import LAYER_FIELDS
from repro.uarch.config import NPUConfig
from repro.workloads.layers import fc_layer
from repro.workloads.models import WORKLOAD_NAMES, Network, by_name
from tests.payloads import columns_document, unpack_record, unstamped

#: sha256 prefixes of the sorted-key JSON of ``columns_document`` of each
#: run decoded from its payload, per network and constructor: the bytes
#: entry formats 1 and 2 stored.  The values a cache entry holds must not
#: move, whatever its format.
GOLDEN_PAYLOADS = {
    ("AlexNet", "simulate"): "0ca2987ecfda913d",
    ("AlexNet", "group-baseline"): "8bfbedfd9682d428",
    ("AlexNet", "group-supernpu"): "40969df7685da4be",
    ("AlexNet", "dataflow_ablation"): "52e7f638d02d2059",
    ("AlexNet", "scalesim"): "8413b807bfcd3cd8",
    ("FasterRCNN", "simulate"): "6b10a08dbb41d775",
    ("FasterRCNN", "group-baseline"): "bdfa3e785c6bb11f",
    ("FasterRCNN", "group-supernpu"): "6933e9ab24396349",
    ("FasterRCNN", "dataflow_ablation"): "11861f3463bf21bb",
    ("FasterRCNN", "scalesim"): "4355b48d1fee123d",
    ("GoogLeNet", "simulate"): "d237f372bacce955",
    ("GoogLeNet", "group-baseline"): "b4f8790da253ea97",
    ("GoogLeNet", "group-supernpu"): "ca7be5dde1d8733f",
    ("GoogLeNet", "dataflow_ablation"): "47ac6d01222fccb5",
    ("GoogLeNet", "scalesim"): "ae0a458b8072850b",
    ("MobileNet", "simulate"): "9db77b244cfa87c2",
    ("MobileNet", "group-baseline"): "dfa850ee3859e74f",
    ("MobileNet", "group-supernpu"): "cf12a3730656b520",
    ("MobileNet", "dataflow_ablation"): "93bc66156d5bac04",
    ("MobileNet", "scalesim"): "deb1a0cc5bf3d32b",
    ("ResNet50", "simulate"): "4c78089616ddfa7f",
    ("ResNet50", "group-baseline"): "df1086d2e4425e30",
    ("ResNet50", "group-supernpu"): "452b25b41940927a",
    ("ResNet50", "dataflow_ablation"): "1e1ddc65096d626c",
    ("ResNet50", "scalesim"): "32759b94c7b59be0",
    ("VGG16", "simulate"): "7a4973a5fb240164",
    ("VGG16", "group-baseline"): "c7211269d0a7b27f",
    ("VGG16", "group-supernpu"): "4650cb8c25401e82",
    ("VGG16", "dataflow_ablation"): "476b18ae2c5fb4f6",
    ("VGG16", "scalesim"): "49aac96e591b63ca",
}


def _results(network):
    """One result per constructor site, by site name."""
    library = rsfq_library()
    configs = [baseline(), supernpu()]
    estimates = [estimate_npu(config, library) for config in configs]
    group = charge_designs(configs, network, [1, 7], estimates)
    return {
        "simulate": simulate(supernpu(), network, 3, estimate=estimates[1]),
        "group-baseline": simulate(configs[0], network, 1, estimate=estimates[0],
                                   charges=group[0]),
        "group-supernpu": simulate(configs[1], network, 7, estimate=estimates[1],
                                   charges=group[1]),
        "dataflow_ablation": simulate_os(supernpu(), network, 2),
        "scalesim": simulate_cmos(TPU_CORE, network, 4),
    }


def _digest(run):
    text = json.dumps(columns_document(result_from_dict(result_to_dict(run))), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


#: sha256 prefixes of the format-4 record body (the fixed little-endian
#: header, the kind, design, network and unit names, the activity row, the
#: layer names, the int64 layer block) of a few sites' entries, written
#: with a fixed creation time.
GOLDEN_RECORDS = {
    ("AlexNet", "group-supernpu"): "8dcde1cf8221227f",
    ("MobileNet", "dataflow_ablation"): "9193abf831d4c870",
    ("VGG16", "scalesim"): "346cadccbe818b79",
}


def test_format4_record_bytes_are_pinned(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    for (name, site), expected in GOLDEN_RECORDS.items():
        run = _results(by_name(name))[site]
        key = hashlib.sha256(f"{name}/{site}".encode()).hexdigest()
        cache.put(key, unstamped(result_to_dict(run)))
        segment, offset, length = cache.locate(key)
        with open(segment, "rb") as handle:
            handle.seek(offset)
            body = handle.read(length)
        head, sections = unpack_record(body)
        assert head[:2] == [b"\x93NPU", CACHE_FORMAT_VERSION]
        assert head[2:5] == [run.batch, run.frequency_ghz, 0.0]
        assert [sections[part].decode() for part in ("kind", "design", "network")] == [
            "simulate", run.design, run.network]
        units = sorted(run.activity.effective_cycles)
        assert sections["units"] == ",".join(units).encode() and head[10] == len(units)
        assert len(sections["activity"]) == 8 * len(units)
        assert sections["names"].decode().split("\0") == run.columns["name"]
        assert len(sections["block"]) == 8 * (len(LAYER_FIELDS) - 1) * head[11]
        assert head[11] == len(run.columns["name"])
        assert hashlib.sha256(body).hexdigest()[:16] == expected, (name, site)


def _assert_agree(run):
    layers = run.layers
    assert run.total_cycles == sum(layer.total_cycles for layer in layers)
    assert run.total_macs == sum(layer.macs for layer in layers)
    assert run.compute_cycles == sum(layer.compute_cycles for layer in layers)
    assert run.preparation_cycles == sum(layer.preparation_cycles for layer in layers)
    assert run.memory_stall_cycles == sum(layer.memory_stall_cycles for layer in layers)
    assert all(type(total) is int for total in (
        run.total_cycles, run.total_macs, run.compute_cycles,
        run.preparation_cycles, run.memory_stall_cycles))
    # A fresh view per read, equal every time.
    again = run.layers
    assert again == layers and again is not layers
    assert [layer.name for layer in layers] == run.columns["name"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_rows_view_and_totals_agree_for_every_constructor(name):
    network = by_name(name)
    for site, run in _results(network).items():
        _assert_agree(run)
        assert len(run.layers) == len(network.layers)
        decoded = result_from_dict(result_to_dict(run))
        assert decoded == run, site
        _assert_agree(decoded)
        assert (decoded.total_cycles, decoded.memory_stall_cycles, decoded.mac_per_s) == (
            run.total_cycles, run.memory_stall_cycles, run.mac_per_s)
        assert _digest(run) == GOLDEN_PAYLOADS[name, site], site


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_warm_cache_hits_hold_the_cold_rows(tmp_path, name):
    network = by_name(name)
    # Two SFQ points of one network are charged as one group; the CMOS
    # point runs alone.
    tasks = [SimTask(baseline(), network, 1), SimTask(supernpu(), network, 7),
             SimTask(TPU_CORE, network, 4)]
    cold = JobRunner(cache=ResultCache(tmp_path / "cache")).run(tasks)
    runner = JobRunner(cache=ResultCache(tmp_path / "cache"))
    warm = runner.run(tasks)
    assert runner.stats.hits == len(tasks) and runner.stats.executed == 0
    for hot, fresh in zip(warm, cold):
        assert hot.layers == fresh.layers
        assert hot == fresh
        _assert_agree(hot)

    # The sites without a task kind, through the cache's own round trip.
    cache = ResultCache(tmp_path / "direct")
    runs = _results(network)
    for site, run in runs.items():
        cache.put(hashlib.sha256(site.encode()).hexdigest(), result_to_dict(run))
    reopened = ResultCache(tmp_path / "direct")
    for site, run in runs.items():
        hit = result_from_dict(reopened.get(hashlib.sha256(site.encode()).hexdigest()))
        assert hit.layers == run.layers, site


def _pass_runs(network, batches=(1, 7)):
    """Runs built by a charge pass: a lone ``simulate`` (one design, the
    scalar path) and a two-design ``charge_designs`` group."""
    library = rsfq_library()
    configs = [baseline(), supernpu()]
    estimates = [estimate_npu(config, library) for config in configs]
    group = charge_designs(configs, network, list(batches), estimates)
    return [simulate(supernpu(), network, 3, estimate=estimates[1])] + [
        simulate(config, network, batch, estimate=estimate, charges=charges)
        for config, batch, estimate, charges in zip(configs, batches, estimates, group)]


def _assert_columns_are_python_ints(run):
    columns = run.columns
    assert list(columns) == list(LAYER_FIELDS)
    assert all(type(name) is str for name in columns["name"])
    assert all(type(value) is int
               for field in LAYER_FIELDS[1:] for value in columns[field])
    assert run.total_cycles == sum(columns["total_cycles"])
    assert run.total_macs == sum(columns["macs"])
    assert run.compute_cycles == sum(columns["compute_cycles"])
    assert run.preparation_cycles == sum(
        sum(columns[field]) for field in ("weight_load_cycles", "ifmap_prep_cycles",
                                          "psum_move_cycles", "activation_transfer_cycles"))
    assert all(type(total) is int for total in (
        run.total_cycles, run.total_macs, run.compute_cycles, run.preparation_cycles))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_pass_runs_build_python_int_columns_on_read_and_round_trip(name):
    network = by_name(name)
    for run in _pass_runs(network):
        # Totals are ready; the per-layer lists are not built yet.
        assert "columns" not in vars(run)
        assert isinstance(run.total_cycles, int) and run.mac_per_s > 0
        assert "columns" not in vars(run)
        _assert_columns_are_python_ints(run)
        assert run.columns is run.columns  # built once, then kept
        assert result_from_dict(result_to_dict(run)) == run


def test_a_pass_run_equals_its_round_trip_before_its_columns_are_read():
    network = by_name("alexnet")
    for run, twin in zip(_pass_runs(network), _pass_runs(network)):
        decoded = result_from_dict(result_to_dict(twin))
        # The encoder writes the pass's block as it is, and the decoder
        # keeps a view of it: neither builds the per-layer lists.
        assert "columns" not in vars(twin) and "columns" not in vars(decoded)
        assert "columns" not in vars(run)
        assert decoded == run
        assert repr(decoded) == repr(run)


def _tall_network(layers):
    """``layers`` tiny FC layers: at the largest batch the guard allows,
    each layer takes about 2**52.4 cycles, so a few thousand of them sum
    past 2**63."""
    return Network("tall", tuple(fc_layer(f"fc{index}", 1, 1) for index in range(layers)))


@pytest.mark.parametrize("designs", [1, 2])
def test_column_totals_past_the_int64_bound_are_exact(designs):
    network = _tall_network(2048)
    config = NPUConfig("tall", pe_array_height=1, pe_array_width=1,
                       ifmap_buffer_bytes=0, output_buffer_bytes=0, psum_buffer_bytes=0,
                       integrated_output_buffer=True)
    estimate = SimpleNamespace(frequency_ghz=52.6)
    batch = EXACT_LIMIT // 3 - 2 ** 20
    if designs == 1:
        run = simulate(config, network, batch, estimate=estimate)
    else:
        group = charge_designs([config] * designs, network, [batch] * designs,
                               [estimate] * designs)
        run = simulate(config, network, batch, estimate=estimate, charges=group[-1])
    assert max(run.columns["total_cycles"]) < EXACT_LIMIT
    assert run.total_cycles >= 2 ** 63  # an int64 sum would have wrapped
    _assert_columns_are_python_ints(run)

    # Past the guard, the pass refuses to charge at all.
    with pytest.raises(SimulationError) as info:
        simulate(config, network, EXACT_LIMIT // 3, estimate=estimate)
    assert info.value.code == "simulation.charge_overflow"
