"""The paper's claims, stated once and checked as data.

Each :class:`Claim` row names one result the paper reports (or that an
extension study rests on), the figure or table it comes from, the
paper's value where the paper prints one, and the band a measurement
must land in.  Rows sit under the measurement that produces them, a
function of :mod:`repro.core.measures`: the ``reproduce`` experiment for
the figure where one exists, else a direct call into the library.
:func:`measure` runs each measurement once per call; :func:`check`
compares a record with the bands.  A row that differs from the paper on
purpose names its item in EXPERIMENTS.md's summary of known deviations.

``GOLDEN`` is the view of the twelve headline rows: the calibrated
model's own Fig. 23, Table I and Table III numbers, pinned with relative
tolerances.  The calibration constants scattered through the model (cell
timings, JJ pitch, activity factors) jointly produce them, so an edit to
any one of those constants moves these rows first.

Measure every row, check it and rewrite EXPERIMENTS.md's claims block::

    python -m repro.core.golden
"""

from __future__ import annotations

import json
import math
from numbers import Real
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple, Union

from repro.estimator.validation import MAX_AREA_ERROR, MAX_FREQUENCY_ERROR, MAX_POWER_ERROR

# -- bands --------------------------------------------------------------------


def _leaves(value: Any) -> List[Any]:
    """A measurement's elements: a mapping's values, a sequence's items."""
    if isinstance(value, Mapping):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def _show(value: Any) -> str:
    if isinstance(value, Mapping):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return ", ".join(_show(item) for item in value)
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


class Near(NamedTuple):
    """Within ``rel`` (relative) of ``value``."""

    value: float
    rel: float

    def admits(self, x: float) -> bool:
        return abs(x - self.value) <= self.rel * abs(self.value)

    def __str__(self) -> str:
        return f"{self.value:g} ± {100 * self.rel:g}%"


class Within(NamedTuple):
    """Between ``low`` and ``high`` (either may be open-ended)."""

    low: Optional[float] = None
    high: Optional[float] = None
    open: bool = False  # strict inequalities

    def admits(self, x: float) -> bool:
        if self.open:
            return (self.low is None or x > self.low) and (self.high is None or x < self.high)
        return (self.low is None or x >= self.low) and (self.high is None or x <= self.high)

    def __str__(self) -> str:
        if self.low == self.high:
            return f"= {self.low:g}"
        if self.high is None:
            return f"{'>' if self.open else '≥'} {self.low:g}"
        if self.low is None:
            return f"{'<' if self.open else '≤'} {self.high:g}"
        left, right = "()" if self.open else "[]"
        return f"{left}{self.low:g}, {self.high:g}{right}"


class Shape(NamedTuple):
    """A predicate over the whole measurement (an ordering, an argmax)."""

    name: str
    predicate: Callable[[Any], bool]

    def __str__(self) -> str:
        return self.name


Band = Union[Near, Within, Shape]


def holds(band: Band, value: Any) -> bool:
    """Whether ``value`` lies in ``band``; numeric bands hold element by element."""
    if isinstance(band, Shape):
        return bool(band.predicate(value))
    return all(isinstance(x, Real) and band.admits(x) for x in _leaves(value))


def above(x: float) -> Within:
    return Within(low=x, open=True)


def below(x: float) -> Within:
    return Within(high=x, open=True)


def rising(slack: float = 1.0) -> Shape:
    """Each value at most ``slack`` times the next."""
    name = "non-decreasing" if slack == 1.0 else f"non-decreasing within {100 * (slack - 1):g}%"
    return Shape(name, lambda series: all(a <= b * slack for a, b in zip(series, series[1:])))


FALLING = Shape("non-increasing", lambda series: all(a >= b for a, b in zip(series, series[1:])))
ALL_TRUE = Shape("true everywhere", lambda value: all(_leaves(value)))


def one_of(*options: Any) -> Shape:
    return Shape(" or ".join(map(str, options)),
                 lambda value: all(leaf in options for leaf in _leaves(value)))


# -- the table ----------------------------------------------------------------


class Claim(NamedTuple):
    """One checked claim: where it comes from, the paper's value, its band."""

    id: str
    text: str
    band: Band
    paper: Union[float, str, None] = None
    #: Item number in EXPERIMENTS.md's summary of known deviations.
    deviation: Optional[int] = None
    #: The figure or table; filled in from the row's group in ``_TABLE``.
    source: str = ""


#: (measurement, source) -> rows.  A measurement is a function of
#: :mod:`repro.core.measures`; the source is the figure or table.
_TABLE: Dict[Tuple[str, str], Tuple[Claim, ...]] = {
    ("evaluation", "Table I"): (
        Claim("npu_frequency_ghz", "SuperNPU clock (GHz)", Near(52.6, 0.005), 52.6),
        Claim("supernpu_area_mm2_28nm", "SuperNPU area, 28 nm (mm²)", Near(298.6, 0.05), "283–299"),
        Claim("baseline_area_mm2_28nm", "Baseline area, 28 nm (mm²)", Near(297.3, 0.05), "283–299"),
    ),
    ("evaluation", "Fig. 23"): (
        Claim("baseline_speedup", "Baseline mean speedup", Near(0.36, 0.15), 0.4),
        Claim("buffer_opt_speedup", "Buffer opt. mean speedup", Near(12.3, 0.15), 7.7, deviation=4),
        Claim("resource_opt_speedup", "Resource opt. mean speedup", Near(19.2, 0.15), 17.3),
        Claim("supernpu_speedup", "SuperNPU mean speedup", Near(25.5, 0.15), 23),
        Claim("fig23.averages_rise", "mean speedups, Baseline → SuperNPU", rising()),
        Claim("fig23.supernpu_every_workload", "SuperNPU speedup, every workload", above(1)),
        Claim("fig23.supernpu_peak_workload", "peak workload", one_of("MobileNet"), "MobileNet"),
    ),
    ("evaluation", "Table III"): (
        Claim("rsfq_chip_power_w", "RSFQ chip power (W)", Near(967.8, 0.05), 964),
        Claim("ersfq_chip_power_w", "ERSFQ chip power (W)", Near(1.44, 0.25), 1.9, deviation=9),
        Claim("ersfq_perf_per_watt_free", "ERSFQ perf/W vs TPU, uncooled", Near(491.8, 0.15),
              490.0),
        Claim("ersfq_perf_per_watt_cooled", "ERSFQ perf/W vs TPU, cooled", Near(1.23, 0.15), 1.23),
        Claim("rsfq_perf_per_watt_cooled", "RSFQ perf/W vs TPU, cooled", Near(0.0018, 0.30), 0.002),
        Claim("table3.rsfq_perf_per_watt_free", "RSFQ perf/W, uncooled", Within(0.3, 1.5), 0.95),
        Claim("table3.ersfq_over_rsfq_chip_power", "ERSFQ / RSFQ chip power", below(0.01)),
    ),
    ("fig05", "Fig. 5"): (
        Claim("fig05.tree_delay_at_64", "2D tree delay at width 64 (ps)", above(800), "> 800"),
        Claim("fig05.systolic_delay", "systolic / best tree delay, every width", Within(high=1)),
        Claim("fig05.systolic_area", "systolic / best tree area, every width", below(1)),
    ),
    ("fig07", "Fig. 7c"): (
        Claim("fig07.fa_ghz", "full adder, no feedback (GHz)", Near(66, 0.05), 66),
        Claim("fig07.fa_loop_ghz", "full adder with loop (GHz)", Near(30, 0.10), 30),
        Claim("fig07.sr_ghz", "shift register, no feedback (GHz)", Near(133, 0.05), 133),
        Claim("fig07.sr_loop_ghz", "shift register with loop (GHz)", Near(71, 0.10), 71),
        Claim("fig07.loop_slowdown", "clock with / without the loop, FA and SR", below(0.6)),
        Claim("fig07.os_pe_slowdown", "OS PE clock / WS PE clock", below(0.55)),
    ),
    ("fig08", "Fig. 8"): (
        Claim("fig08.alexnet_duplicated", "AlexNet duplicated share", Within(0.90), "> 0.9"),
        Claim("fig08.resnet50_duplicated", "ResNet50 duplicated share", Within(0.50), "> 0.9",
              deviation=1),
        Claim("fig08.vgg16_duplicated", "VGG16 duplicated share", Within(0.88), "> 0.9"),
        Claim("fig08.mean_duplicated", "mean duplicated share of the three", above(0.75)),
    ),
    ("fig13", "Fig. 13"): (
        Claim("fig13.frequency_error", "frequency error, each prototype",
              Within(high=MAX_FREQUENCY_ERROR)),
        Claim("fig13.power_error", "power error, every prototype", Within(high=MAX_POWER_ERROR)),
        Claim("fig13.area_error", "area error, every prototype", Within(high=MAX_AREA_ERROR)),
        Claim("fig13.uarch_power_error", "µarch mean power error", Within(high=0.03), 0.012),
        Claim("fig13.uarch_area_error", "µarch mean area error", Within(high=0.03), 0.013),
    ),
    ("fig15", "Fig. 15"): (
        Claim("fig15.preparation", "preparation share, every workload", above(0.90), "> 0.9"),
    ),
    ("fig17", "Fig. 17"): (
        Claim("fig17.mean_utilization", "mean max PE utilization, batch 1", below(0.02), "< 0.02"),
        Claim("fig17.utilization", "roofline / peak, every workload", below(0.1)),
        Claim("fig17.measured_over_roof", "simulated / roofline, every workload",
              Within(high=1.05)),
    ),
    ("fig20", "Fig. 20"): (
        Claim("fig20.integration_single_batch", "single-batch gain, integration", above(1.5)),
        Claim("fig20.div64_single_batch", "single-batch gain at ÷64", above(4.0), 6.26),
        Claim("fig20.div64_max_batch", "max-batch gain at ÷64", above(10.0), 20, deviation=2),
        Claim("fig20.saturation", "single-batch gain ÷4096 / ÷64", below(1.35)),
        Claim("fig20.div64_area", "area at ÷64 (× Baseline)", below(1.05)),
        Claim("fig20.div4096_area", "area at ÷4096 (× Baseline)", above(1.3)),
        Claim("fig20.max_batch_rises", "max-batch gain, Baseline → ÷64", rising(1.01), deviation=2),
    ),
    ("fig21", "Fig. 21"): (
        Claim("fig21.width64_gain", "width-64 max-batch gain", above(10), 42, deviation=2),
        Claim("fig21.width128_gain", "width-128 max-batch gain", above(10), 47, deviation=2),
        Claim("fig21.best_width", "width with the largest gain", one_of(128, 64, 32), 128),
        Claim("fig21.buffer_mib_256", "balanced buffer at width 256 (MB)", Within(24, 24), 24),
        Claim("fig21.buffer_mib_128", "balanced buffer at width 128 (MB)", Within(34, 44), 38),
        Claim("fig21.buffer_mib_64", "balanced buffer at width 64 (MB)", Within(40, 55), 46),
        Claim("fig21.buffer_16_over_64", "buffer at width 16 / at width 64", above(1)),
        Claim("fig21.buffer_mib_16", "balanced buffer at width 16 (MB)", Within(high=60), 51),
    ),
    ("fig22", "Fig. 22"): (
        Claim("fig22.width64_gain_at_8", "width-64 gain, 8 registers", above(1.04), 1.3,
              deviation=3),
        Claim("fig22.width64_rises", "width-64 speedup over 1-32 registers", rising(1.001)),
        Claim("fig22.gain64_over_gain128", "register gain at width 64 / at width 128", above(1)),
        Claim("fig22.lowest_speedup", "lowest speedup vs Baseline, widths 64, 128", above(5)),
    ),
    ("table1", "Table I"): (
        Claim("table1.frequency_ghz", "clock of every design (GHz)", Near(52.6, 0.002), 52.6),
        Claim("table1.area_mm2_28nm", "area at 28 nm, every design (mm²)", below(330), "< 330"),
        Claim("table1.baseline_peak_tmacs", "Baseline peak (TMAC/s)", Near(3447, 0.05), 3366),
        Claim("table1.supernpu_peak_tmacs", "SuperNPU peak (TMAC/s)", Near(862, 0.05), 842),
        Claim("table1.peak_ratio", "Baseline peak / SuperNPU peak", Near(4, 1e-6), 4),
    ),
    ("table2", "Table II"): (
        Claim("table2.baseline_batch", "Baseline derived batch, every workload", Within(1, 1), 1),
        Claim("table2.smallest_batch", "workload with the smallest derived batch", one_of("VGG16"),
              "VGG16"),
        Claim("table2.largest_batch", "largest derived batch", Within(15), 30),
        Claim("table2.tpu_vgg16_batch", "TPU derived batch on VGG16", Within(3, 3), 3),
    ),
    ("bandwidth", "Extension"): (
        Claim("bandwidth.speedup", "speedup over the TPU, every bandwidth", above(5)),
        Claim("bandwidth.sfq_rises", "SuperNPU TMAC/s as bandwidth grows", rising(1.001)),
        Claim("bandwidth.speedup_at_300", "speedup over the TPU at 300 GB/s", Within(5, 60)),
    ),
    ("bitserial", "Extension"): (
        Claim("bitserial.clock_ratio", "bit-serial clock / bit-parallel clock", Within(1)),
        Claim("bitserial.throughput_ratio", "bit-parallel / bit-serial MAC/s", above(30)),
        Claim("bitserial.per_jj_ratio", "bit-parallel / bit-serial MAC/s per JJ", above(1)),
    ),
    ("cooling", "Extension"): (
        Claim("cooling.rsfq", "RSFQ perf/W vs TPU, every cooling factor", below(0.1)),
        Claim("cooling.ersfq_carnot", "ERSFQ perf/W vs TPU at the Carnot bound", above(1.5)),
        Claim("cooling.ersfq_falls", "ERSFQ perf/W as cooling worsens", FALLING),
        Claim("cooling.ersfq_at_400", "ERSFQ perf/W vs TPU at 400 W/W", Within(0.5, 2.5)),
    ),
    ("dataflow", "Extension"): (
        Claim("dataflow.os_ghz", "output-stationary SuperNPU clock (GHz)", Near(31.8, 0.02)),
        Claim("dataflow.ws_ghz", "weight-stationary SuperNPU clock (GHz)", Near(52.6, 0.002), 52.6),
        Claim("dataflow.ws_over_os_conv", "WS / OS throughput, conv-heavy nets", above(1.0)),
        Claim("dataflow.mean_ws_over_os", "mean WS / OS throughput", above(1.5)),
    ),
    ("features", "Extension"): (
        Claim("features.no_division", "no division (× full)", below(0.1)),
        Claim("features.costliest", "costliest feature to remove", one_of("no_division")),
        Claim("features.single_register", "one register (× full)", below(0.98)),
        Claim("features.no_integration", "no integration (× full)", Within(0.5, 0.98, open=True)),
    ),
    ("scaling", "Extension"): (
        Claim("scaling.ghz_0.5_over_1.0", "clock at 0.5 µm / at 1.0 µm", Near(2, 0.01)),
        Claim("scaling.ghz_0.2_over_1.0", "clock at 0.2 µm / at 1.0 µm", Near(5, 0.01)),
        Claim("scaling.ghz_0.1_over_0.2", "clock at 0.1 µm / at 0.2 µm (clamped)", Within(1, 1)),
        Claim("scaling.area_28nm", "area at 28 nm / quadratic shrink of 1.0 µm", Near(1, 0.01)),
        Claim("scaling.ghz_at_0.2", "clock at 0.2 µm (GHz)", Within(200, 400)),
    ),
    ("training", "Extension"): (
        Claim("training.step_over_forward", "step / forward cycles, every workload",
              Within(2.0, 8.0)),
        Claim("training.macs_over_forward", "step / forward MACs, every workload", Within(2.5)),
        Claim("training.mean_step_over_forward", "mean step / forward cycles", Within(2.5, 6.0)),
    ),
    ("variation", "Extension"): (
        Claim("variation.worst_minus_nominal", "worst clock - nominal (GHz), every σ",
              Within(high=1e-9)),
        Claim("variation.yield90_over_nominal", "clock at 90% yield / nominal, every σ",
              above(0.8)),
        Claim("variation.yield90_falls", "clock at 90% yield as σ grows", FALLING),
    ),
    ("search", "Extension"): (
        Claim("search.winner_width", "search winner's array width", one_of(64, 128)),
        Claim("search.winner_division", "search winner's buffer division", Within(64)),
        Claim("search.winner_registers", "search winner's registers per PE", Within(2)),
        Claim("search.worst_division", "worst design's buffer division", Within(1, 1)),
        Claim("search.winner_over_worst", "winner / worst mean throughput", above(100)),
    ),
    ("energy", "Extension"): (
        Claim("energy.ersfq_free", "ERSFQ J/image vs TPU, uncooled", below(0.01)),
        Claim("energy.ersfq_cooled", "ERSFQ J/image vs TPU, cooled", Within(0.5, 1.5, open=True)),
        Claim("energy.rsfq_cooled", "RSFQ J/image vs TPU, cooled", above(10)),
        Claim("energy.ersfq_cooled_images", "ERSFQ images/s / TPU images/s", above(1)),
    ),
    ("latency", "Extension"): (
        Claim("latency.tpu_over_supernpu", "TPU / SuperNPU latency, every workload", above(1)),
        Claim("latency.mean_speedup", "mean batch-1 latency speedup", above(3)),
    ),
    ("multibatch", "Extension"): (
        Claim("multibatch.peak_over_batch1", "peak / batch-1 throughput, ResNet50", above(5)),
        Claim("multibatch.peak_latency_per_image", "per-image latency, peak / batch 1", below(1)),
        Claim("multibatch.knee", "knee batch of the 1-30 sweep", Within(1, 30)),
    ),
    ("transformer", "Extension"): (
        Claim("transformer.supernpu_over_tpu", "BERT: SuperNPU / TPU", above(5)),
        Claim("transformer.supernpu_over_baseline", "BERT: SuperNPU / Baseline", above(5)),
        Claim("transformer.bufferopt_over_baseline", "BERT: Buffer opt. / Baseline", above(1)),
    ),
    ("gatesim", "Extension"): (
        Claim("gatesim.stream_correct", "1 op/clock stream is correct, every width", ALL_TRUE),
        Claim("gatesim.dff_over_logic", "DFFs / logic gates, every width", above(1.5)),
        Claim("gatesim.latency_rises", "multiplier latency as width grows", rising()),
    ),
}


#: Every row, in table order.
CLAIMS: Tuple[Claim, ...] = tuple(
    claim._replace(source=source) for (_, source), rows in _TABLE.items() for claim in rows)
_MEASURED_BY = {claim.id: measure for (measure, _), rows in _TABLE.items() for claim in rows}

#: The headline rows: metric -> (golden value, relative tolerance).
GOLDEN: Dict[str, Tuple[float, float]] = {
    claim.id: (claim.band.value, claim.band.rel)
    for claim in CLAIMS if _MEASURED_BY[claim.id] == "evaluation" and "." not in claim.id
}


# -- measuring and checking ---------------------------------------------------


def measure(claims: Iterable[Claim] = CLAIMS) -> Dict[str, Any]:
    """Measure ``claims`` (default: every row), running each measurement once."""
    from repro.core import measures

    wanted = {claim.id: _MEASURED_BY[claim.id] for claim in claims}
    record: Dict[str, Any] = {}
    for name in dict.fromkeys(wanted.values()):
        record.update(getattr(measures, name)())
    return {claim_id: value for claim_id, value in record.items() if claim_id in wanted}


def current_record() -> Dict[str, float]:
    """Measure every headline metric from scratch (runs the Fig. 23 suite once)."""
    return measure(claim for claim in CLAIMS if claim.id in GOLDEN)


def violation(claim: Claim, value: Any) -> Optional[str]:
    """Why ``value`` breaks ``claim``, or None when it holds."""
    numbers = [x for x in _leaves(value) if isinstance(x, Real) and not isinstance(x, bool)]
    if not all(math.isfinite(x) for x in numbers):
        return f"{claim.id}: non-finite measurement {_show(value)}"
    if holds(claim.band, value):
        return None
    if isinstance(claim.band, Near) and isinstance(value, Real):
        error = abs(value - claim.band.value) / abs(claim.band.value)
        return (f"{claim.id}: measured {value:.4g} vs {claim.band.value:g} "
                f"({100 * error:.1f}% > {100 * claim.band.rel:g}% tolerance)")
    return f"{claim.id}: measured {_show(value)}, outside {claim.band}"


def check(record: Optional[Dict[str, Any]] = None) -> List[str]:
    """Return a list of violations (empty = every claim holds).

    Every headline row must be in ``record`` (default: :func:`current_record`);
    any other row is checked when the record holds it, so
    ``check(measure())`` checks the whole table.
    """
    record = record if record is not None else current_record()
    violations: List[str] = []
    for claim in CLAIMS:
        if claim.id not in record:
            if claim.id in GOLDEN:
                violations.append(f"{claim.id}: missing from record")
            continue
        problem = violation(claim, record[claim.id])
        if problem:
            violations.append(problem)
    return violations


# -- the generated block in EXPERIMENTS.md ------------------------------------

EXPERIMENTS_MD = Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"
BLOCK_BEGIN = "<!-- claims:begin (generated by `python -m repro.core.golden`; do not edit) -->"
BLOCK_END = "<!-- claims:end -->"


def render(record: Dict[str, Any]) -> str:
    """The claims table as markdown, with each row's measurement and status."""
    lines = [
        "| claim | source | what | paper | measured | band | status |",
        "|---|---|---|---|---|---|---|",
    ]
    for claim in CLAIMS:
        value = record[claim.id]
        paper = "—" if claim.paper is None else (
            f"{claim.paper:g}" if isinstance(claim.paper, Real) else str(claim.paper))
        if violation(claim, value):
            status = "❌"
        elif claim.deviation is not None:
            status = f"⚠️ deviation {claim.deviation}"
        else:
            status = "✅"
        lines.append(f"| `{claim.id}` | {claim.source} | {claim.text} | {paper} "
                     f"| {_show(value)} | {claim.band} | {status} |")
    return "\n".join([BLOCK_BEGIN, *lines, BLOCK_END])


def splice(document: str, block: str) -> str:
    """``document`` with its claims block replaced by ``block``."""
    head, _, rest = document.partition(BLOCK_BEGIN)
    _, found, tail = rest.partition(BLOCK_END)
    if not found:
        raise ValueError("document has no claims block")
    return head + block + tail


def main() -> int:
    record = measure()
    print(json.dumps({metric: record[metric] for metric in GOLDEN}, indent=2, sort_keys=True))
    if EXPERIMENTS_MD.is_file():
        EXPERIMENTS_MD.write_text(splice(EXPERIMENTS_MD.read_text(encoding="utf-8"),
                                         render(record)), encoding="utf-8")
        print(f"\nclaims block rewritten in {EXPERIMENTS_MD}")
    violations = check(record)
    if violations:
        print("\nCLAIM VIOLATIONS:")
        for problem in violations:
            print(f"  - {problem}")
        return 1
    print(f"\nall {len(CLAIMS)} claims hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
