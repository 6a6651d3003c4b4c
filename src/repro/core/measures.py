"""How each group of rows in the claims table (:mod:`repro.core.golden`) is measured.

Every public function without arguments returns ``{claim id: measured
value}`` for its group.  A group measures through the ``reproduce``
experiment for its figure (:mod:`repro.core.experiments`) where one
exists, else by calling the library directly.  Only a check imports
this module, so the claims table itself stays cheap to import.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from repro.baselines.scalesim import TPU_CORE, simulate_cmos
from repro.core.batching import derived_batch
from repro.core.designs import all_designs, supernpu
from repro.core.energy import inference_energy_table, relative_energy
from repro.core.evaluate import suite_from, table3_plan, table3_rows
from repro.core.experiments import reproduce_all
from repro.core.optimizer import FIG21_WIDTHS, FIG22_REGISTERS, balanced_buffer_bytes
from repro.core.plan import execute
from repro.core.search import best, search as design_search
from repro.device.cells import rsfq_library
from repro.estimator.arch_level import estimate_npu
from repro.estimator.variation import monte_carlo_frequency
from repro.gatesim import build_multiplier
from repro.simulator.batch_sweep import batch_sweep, knee_batch
from repro.simulator.engine import simulate
from repro.uarch.bitserial import BitSerialMAC
from repro.uarch.config import MIB
from repro.uarch.mac import MACUnit
from repro.workloads.extra import bert_base_block
from repro.workloads.models import alexnet, all_workloads, mobilenet, resnet50

Record = Dict[str, Any]


def _experiment(name: str) -> Any:
    return reproduce_all(only=[name])[name]


def _column(rows: Dict[str, Dict[str, Any]], field: str) -> Dict[str, Any]:
    return {name: row[field] for name, row in rows.items()}


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values)


def evaluation() -> Record:
    """Fig. 23 and Table III from one executed ``table3_power`` plan."""
    resultset = execute(table3_plan())
    suite = suite_from(resultset)
    speedups = suite.speedups()
    rows = {row.label: row for row in table3_rows(resultset)}
    reference = rows["TPU"]
    supernpu_estimate = suite.design("SuperNPU").estimate
    baseline_estimate = suite.design("Baseline").estimate
    supernpu_runs = {name: value for name, value in speedups["SuperNPU"].items()
                     if name != "Average"}
    return {
        "npu_frequency_ghz": supernpu_estimate.frequency_ghz,
        "baseline_speedup": speedups["Baseline"]["Average"],
        "buffer_opt_speedup": speedups["Buffer opt."]["Average"],
        "resource_opt_speedup": speedups["Resource opt."]["Average"],
        "supernpu_speedup": speedups["SuperNPU"]["Average"],
        "rsfq_chip_power_w": rows["RSFQ-SuperNPU (w/ cooling)"].chip_power_w,
        "ersfq_chip_power_w": rows["ERSFQ-SuperNPU (w/ cooling)"].chip_power_w,
        "ersfq_perf_per_watt_free": rows["ERSFQ-SuperNPU (w/o cooling)"].normalized_to(reference),
        "ersfq_perf_per_watt_cooled": rows["ERSFQ-SuperNPU (w/ cooling)"].normalized_to(reference),
        "rsfq_perf_per_watt_cooled": rows["RSFQ-SuperNPU (w/ cooling)"].normalized_to(reference),
        "supernpu_area_mm2_28nm": supernpu_estimate.area_mm2_scaled(),
        "baseline_area_mm2_28nm": baseline_estimate.area_mm2_scaled(),
        "fig23.averages_rise": [speedups[design]["Average"] for design in
                                ("Baseline", "Buffer opt.", "Resource opt.", "SuperNPU")],
        "fig23.supernpu_every_workload": supernpu_runs,
        "fig23.supernpu_peak_workload": max(supernpu_runs, key=supernpu_runs.get),
        "table3.rsfq_perf_per_watt_free":
            rows["RSFQ-SuperNPU (w/o cooling)"].normalized_to(reference),
        "table3.ersfq_over_rsfq_chip_power": rows["ERSFQ-SuperNPU (w/o cooling)"].chip_power_w
            / rows["RSFQ-SuperNPU (w/o cooling)"].chip_power_w,
    }


def fig05() -> Record:
    widths = _experiment("fig05_network")

    def systolic_over_best_tree(metric: str) -> Dict[str, float]:
        return {width: designs["systolic_array"][metric]
                / min(designs[tree][metric] for tree in ("2d_splitter_tree", "1d_splitter_tree"))
                for width, designs in widths.items()}

    return {
        "fig05.tree_delay_at_64": widths["64"]["2d_splitter_tree"]["critical_path_delay_ps"],
        "fig05.systolic_delay": systolic_over_best_tree("critical_path_delay_ps"),
        "fig05.systolic_area": systolic_over_best_tree("area_mm2"),
    }


def fig07() -> Record:
    ghz = _experiment("fig07_feedback")
    (fa, fa_loop), (sr, sr_loop) = ghz["FA"], ghz["SR"]
    return {
        "fig07.fa_ghz": fa,
        "fig07.fa_loop_ghz": fa_loop,
        "fig07.sr_ghz": sr,
        "fig07.sr_loop_ghz": sr_loop,
        "fig07.loop_slowdown": {"FA": fa_loop / fa, "SR": sr_loop / sr},
        "fig07.os_pe_slowdown": ghz["os_ghz"] / ghz["ws_ghz"],
    }


def fig08() -> Record:
    plotted = {name: share for name, share in _experiment("fig08_duplication").items()
               if name in ("AlexNet", "ResNet50", "VGG16")}
    return {**{f"fig08.{name.lower()}_duplicated": share for name, share in plotted.items()},
            "fig08.mean_duplicated": _mean(plotted.values())}


def fig13() -> Record:
    rows = _experiment("fig13_validation")
    uarch = [rows[name] for name in ("mac_unit", "sr_mem", "nw_unit")]
    return {
        "fig13.frequency_error": {name: row["frequency_error"] for name, row in rows.items()
                                  if row["frequency_error"] is not None},
        "fig13.power_error": _column(rows, "power_error"),
        "fig13.area_error": _column(rows, "area_error"),
        "fig13.uarch_power_error": _mean(row["power_error"] for row in uarch),
        "fig13.uarch_area_error": _mean(row["area_error"] for row in uarch),
    }


def fig15() -> Record:
    return {"fig15.preparation": _column(_experiment("fig15_cycle_breakdown"), "preparation")}


def fig17() -> Record:
    points = _experiment("fig17_roofline")
    return {
        "fig17.mean_utilization": _mean(_column(points, "max_utilization").values()),
        "fig17.utilization": _column(points, "max_utilization"),
        "fig17.measured_over_roof": {name: point["measured_gmacs"] / point["attainable_gmacs"]
                                     for name, point in points.items()},
    }


def fig20() -> Record:
    points = {point["label"]: point for point in _experiment("fig20_buffer_opt")}
    div2, div64 = points["+Integration (Division 2)"], points["+Division 64"]
    div4096 = points["+Division 4096"]
    return {
        "fig20.integration_single_batch": div2["single_batch"],
        "fig20.div64_single_batch": div64["single_batch"],
        "fig20.div64_max_batch": div64["max_batch"],
        "fig20.saturation": div4096["single_batch"] / div64["single_batch"],
        "fig20.div64_area": div64["area"],
        "fig20.div4096_area": div4096["area"],
        "fig20.max_batch_rises": [points[label]["max_batch"] for label in (
            "Baseline", "+Integration (Division 2)", "+Division 4", "+Division 16",
            "+Division 64")],
    }


def fig21() -> Record:
    gains = {point["width"]: point["max_batch_added_buffer"]
             for point in _experiment("fig21_resource_balancing")}
    mib = {width: balanced_buffer_bytes(width) / MIB for width in FIG21_WIDTHS}
    return {
        "fig21.width64_gain": gains[64],
        "fig21.width128_gain": gains[128],
        "fig21.best_width": max(gains, key=gains.get),
        **{f"fig21.buffer_mib_{width}": mib[width] for width in (256, 128, 64, 16)},
        "fig21.buffer_16_over_64": mib[16] / mib[64],
    }


def fig22() -> Record:
    speedups = _experiment("fig22_registers")
    gain = {width: series[FIG22_REGISTERS.index(8)] / series[0]
            for width, series in speedups.items()}
    return {
        "fig22.width64_gain_at_8": gain["64"],
        "fig22.width64_rises": speedups["64"],
        "fig22.gain64_over_gain128": gain["64"] / gain["128"],
        "fig22.lowest_speedup": {width: min(series) for width, series in speedups.items()},
    }


def table1() -> Record:
    designs = _experiment("table1_setup")
    peaks = _column(designs, "peak_tmacs")
    return {
        "table1.frequency_ghz": _column(designs, "frequency_ghz"),
        "table1.area_mm2_28nm": _column(designs, "area_mm2_28nm"),
        "table1.baseline_peak_tmacs": peaks["Baseline"],
        "table1.supernpu_peak_tmacs": peaks["SuperNPU"],
        "table1.peak_ratio": peaks["Baseline"] / peaks["SuperNPU"],
    }


def table2() -> Record:
    derived = _experiment("table2_batches")["derived"]
    large = {design: derived[design] for design in ("Resource opt.", "SuperNPU")}
    return {
        "table2.baseline_batch": derived["Baseline"],
        "table2.smallest_batch": {  # VGG16 wins a tie
            design: min(batches, key=lambda name: (batches[name], name != "VGG16"))
            for design, batches in large.items()},
        "table2.largest_batch": {design: max(batches.values()) for design, batches in large.items()},
        "table2.tpu_vgg16_batch": derived["TPU"]["VGG16"],
    }


def bandwidth() -> Record:
    points = {point["bandwidth_gbps"]: point for point in _experiment("ext_bandwidth_sensitivity")}
    return {
        "bandwidth.speedup": _column(points, "speedup"),
        "bandwidth.sfq_rises": [point["sfq_tmacs"] for point in points.values()],
        "bandwidth.speedup_at_300": points[300]["speedup"],
    }


def cooling() -> Record:
    points = _experiment("ext_cooling_sensitivity")  # the first point is the Carnot bound
    return {
        "cooling.rsfq": [point["rsfq"] for point in points],
        "cooling.ersfq_carnot": points[0]["ersfq"],
        "cooling.ersfq_falls": [point["ersfq"] for point in points],
        "cooling.ersfq_at_400": next(point["ersfq"] for point in points[1:]
                                     if point["factor"] == 400),
    }


def dataflow() -> Record:
    rows = _experiment("ext_dataflow_ablation")
    ratios = {name: row["ws_tmacs"] / row["os_tmacs"] for name, row in rows.items()}
    return {
        "dataflow.os_ghz": rows["ResNet50"]["os_ghz"],
        "dataflow.ws_ghz": rows["ResNet50"]["ws_ghz"],
        "dataflow.ws_over_os_conv": {name: ratios[name] for name in
                                     ("GoogLeNet", "MobileNet", "ResNet50", "FasterRCNN")},
        "dataflow.mean_ws_over_os": _mean(ratios.values()),
    }


def features() -> Record:
    rows = _experiment("ext_feature_ablation")
    relative = {row["feature"]: row["relative_to_full"] for row in rows}
    return {
        "features.costliest": rows[0]["feature"],
        **{f"features.{name}": relative[name]
           for name in ("no_division", "single_register", "no_integration")},
    }


def scaling() -> Record:
    nodes = {point["feature_um"]: point for point in _experiment("ext_process_scaling")}
    ghz = _column(nodes, "frequency_ghz")
    return {
        "scaling.ghz_0.5_over_1.0": ghz[0.5] / ghz[1.0],
        "scaling.ghz_0.2_over_1.0": ghz[0.2] / ghz[1.0],
        "scaling.ghz_0.1_over_0.2": ghz[0.1] / ghz[0.2],
        "scaling.area_28nm": nodes[0.028]["area_mm2"] / (nodes[1.0]["area_mm2"] * 0.028**2),
        "scaling.ghz_at_0.2": ghz[0.2],
    }


def training() -> Record:
    rows = _experiment("ext_training_step")
    return {
        "training.step_over_forward": _column(rows, "step_over_forward"),
        "training.macs_over_forward": _column(rows, "macs_over_forward"),
        "training.mean_step_over_forward": _mean(_column(rows, "step_over_forward").values()),
    }


def bitserial() -> Record:
    """Bit-serial vs bit-parallel 8-bit MAC: clock, MAC/s, MAC/s per junction."""
    library = rsfq_library()
    serial, parallel = BitSerialMAC(8, 24), MACUnit(8, 24)
    parallel_ghz = parallel.frequency(library).frequency_ghz
    parallel_mac_per_s = parallel_ghz * 1e9
    return {
        "bitserial.clock_ratio": serial.frequency(library).frequency_ghz / parallel_ghz,
        "bitserial.throughput_ratio": parallel_mac_per_s / serial.throughput_mac_per_s(library),
        "bitserial.per_jj_ratio": parallel_mac_per_s / parallel.jj_count(library)
        / serial.throughput_per_jj(library),
    }


def variation() -> Record:
    """SuperNPU's Monte Carlo clock at 2, 5 and 10 % per-cell timing spread."""
    config, library = supernpu(), rsfq_library()
    reports = {sigma: monte_carlo_frequency(config, sigma=sigma, trials=40,
                                            seed=2024, library=library)
               for sigma in (0.02, 0.05, 0.10)}
    return {
        "variation.worst_minus_nominal": {sigma: report.worst_ghz - report.nominal_ghz
                                          for sigma, report in reports.items()},
        "variation.yield90_over_nominal": {sigma: report.frequency_at_yield(0.9)
                                           / report.nominal_ghz
                                           for sigma, report in reports.items()},
        "variation.yield90_falls": [report.frequency_at_yield(0.9)
                                    for report in reports.values()],
    }


def search() -> Record:
    """The exhaustive width x division x registers search on three CNNs."""
    results = design_search(
        widths=(256, 128, 64, 32),
        divisions=(1, 16, 64, 256),
        registers=(1, 2, 8, 16),
        workloads=[alexnet(), resnet50(), mobilenet()],
    )
    winner, worst = best(results), results[-1]
    return {
        "search.winner_width": winner.config.pe_array_width,
        "search.winner_division": winner.config.ifmap_division,
        "search.winner_registers": winner.config.registers_per_pe,
        "search.worst_division": worst.config.ifmap_division,
        "search.winner_over_worst": winner.mean_mac_per_s / worst.mean_mac_per_s,
    }


def energy() -> Record:
    rows = inference_energy_table(resnet50())
    relative = relative_energy(rows)
    images = {row.label: row.images_per_s for row in rows}
    return {
        "energy.ersfq_free": relative["ERSFQ-SuperNPU (free cooling)"],
        "energy.ersfq_cooled": relative["ERSFQ-SuperNPU (w/ cooling)"],
        "energy.rsfq_cooled": relative["RSFQ-SuperNPU (w/ cooling)"],
        "energy.ersfq_cooled_images": images["ERSFQ-SuperNPU (w/ cooling)"] / images["TPU"],
    }


def latency() -> Record:
    """SuperNPU's and the TPU's batch-1 latency on each workload."""
    config = supernpu()
    estimate = estimate_npu(config, rsfq_library())
    speedups = {}
    for network in all_workloads():
        sfq = simulate(config, network, batch=1, estimate=estimate)
        tpu = simulate_cmos(TPU_CORE, network, batch=1)
        speedups[network.name] = tpu.latency_s / sfq.latency_s
    return {"latency.tpu_over_supernpu": speedups,
            "latency.mean_speedup": _mean(speedups.values())}


def multibatch() -> Record:
    points = batch_sweep(supernpu(), resnet50(), (1, 2, 4, 8, 16, 30), None, rsfq_library())
    peak = max(points, key=lambda point: point.mac_per_s)
    return {
        "multibatch.peak_over_batch1": peak.mac_per_s / points[0].mac_per_s,
        "multibatch.peak_latency_per_image":
            peak.latency_per_image_s / points[0].latency_per_image_s,
        "multibatch.knee": knee_batch(points),
    }


def transformer() -> Record:
    """A BERT-base encoder block on the TPU and on every SFQ design."""
    library, network = rsfq_library(), bert_base_block()
    mac_per_s = {"TPU": simulate_cmos(TPU_CORE, network, batch=8).mac_per_s}
    for config in all_designs():
        estimate = estimate_npu(config, library)
        batch = derived_batch(config.with_updates(name=f"{config.name}*"), network)
        mac_per_s[config.name] = simulate(config, network, batch=batch,
                                          estimate=estimate).mac_per_s
    return {
        "transformer.supernpu_over_tpu": mac_per_s["SuperNPU"] / mac_per_s["TPU"],
        "transformer.supernpu_over_baseline": mac_per_s["SuperNPU"] / mac_per_s["Baseline"],
        "transformer.bufferopt_over_baseline": mac_per_s["Buffer opt."] / mac_per_s["Baseline"],
    }


def gatesim() -> Record:
    """Gate-level pipelined multipliers (2, 4, 8 bits) streaming 24 operations."""
    results = {}
    for bits in (2, 4, 8):
        circuit = build_multiplier(bits)
        operations = [{"a": a % (1 << bits), "b": (a * 7 + 1) % (1 << bits)}
                      for a in range(24)]
        outputs = circuit.compute_stream(operations)
        results[bits] = {
            "latency": circuit.latency,
            "histogram": circuit.gate_histogram(),
            "stream_correct": outputs == [op["a"] * op["b"] for op in operations],
        }
    return {
        "gatesim.stream_correct": {bits: r["stream_correct"] for bits, r in results.items()},
        "gatesim.dff_over_logic": {
            bits: r["histogram"]["DFF"]
            / sum(r["histogram"].get(name, 0) for name in ("AND", "XOR", "OR"))
            for bits, r in results.items()},
        "gatesim.latency_rises": [r["latency"] for r in results.values()],
    }
