"""Command-line interface: ``supernpu <command>``.

Commands mirror the paper's experiments:

* ``estimate <design>``  — frequency / power / area of a design point
* ``simulate <design> <workload>`` — cycle-level run (perf + power)
* ``bottleneck <design> <workload>`` — per-layer bound attribution,
  critical layers, roofline, and a simulated-cycle timeline export
* ``evaluate``           — the Fig. 23 speedup table
* ``validate``           — the Fig. 13 model validation
* ``sweep <which>``      — Figs. 20/21/22 design-space sweeps
* ``table1|table2|table3`` — the evaluation-setup and power tables
* ``plan list|show|run`` — the declarative experiment plans every
  figure/table lowers onto: inspect a plan's grids, dry-run-count its
  unique simulation tasks (and how many are already cached), or execute
  it directly through the job engine
* ``serve`` — the long-lived evaluation daemon: HTTP/JSON endpoints
  over the job engine with admission control, per-client quotas,
  request coalescing and graceful degradation (docs/API.md); drains
  cleanly on SIGTERM
* ``client request|drill|smoke`` — talk to a running daemon, or run
  the chaos drill / CI smoke against one (docs/ROBUSTNESS.md)
* ``hotspot [--top N] [--hotspot-out FILE] <command...>`` — run any
  other supernpu command under the host-time profiler (stdlib
  ``cProfile``), in that command's own session.  All profiler output
  goes to stderr, so the profiled command's stdout stays
  bitwise-identical to an unprofiled run

``simulate``, ``evaluate``, ``sweep``, ``compare``, ``reproduce``,
``plan`` and ``bottleneck`` accept ``--trace-out FILE`` (Chrome
trace-event JSON, loadable in Perfetto) and ``--metrics-out FILE``
(metrics snapshot + run manifest); either flag switches the
``repro.obs`` instrumentation on for that run.  ``bottleneck`` adds
``--timeline-out FILE``: a Chrome trace whose timestamps are *simulated*
time (cycles through the design's clock).

Commands that fan out many design-point simulations (``simulate``,
``evaluate``, ``compare``, ``sweep``, ``reproduce``) accept
``--jobs N`` (parallel worker processes; default 1 = serial),
``--cache-dir DIR`` (content-addressed on-disk result cache: warm
re-runs skip simulation entirely, and a killed run's finished tasks are
hits when it is run again), and ``--no-cache``.  ``supernpu
cache stats|clear --cache-dir DIR`` inspects / empties a cache.
Parallel and warm-cache results are bitwise-identical to serial cold
runs.  ``estimate``, ``simulate``, ``evaluate``, ``compare``,
``bottleneck``, ``plan`` and ``components`` accept
``--json``: one consistent machine-readable envelope (``{"command",
"design", "workload", "data", "manifest"}``) on stdout.  For
``estimate``, ``simulate``, ``evaluate``, ``compare``, ``bottleneck``
and ``plan run`` its ``data`` is a :mod:`repro.core.report` record.

All command logic routes through :mod:`repro.api`, the canonical typed
facade; the CLI only parses flags and formats tables.  ``estimate``,
``simulate``, ``evaluate`` and ``plan run`` run their rows of
:data:`repro.core.report.VERBS`, the table ``serve`` answers from, so
each of those verbs' call and record is written once.  :func:`main`
opens one session around every command (:func:`_command_session`): the
job runner, the profiler, ``repro.obs`` and the one run manifest, torn
down on every exit.  A command writes only the files its command line
names.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from typing import Iterable, List, Optional, Sequence


def _fmt_row(cells: Iterable[object], widths: Sequence[int]) -> str:
    return "  ".join(f"{str(c):>{w}s}" for c, w in zip(cells, widths))


class _Session:
    """A command's handle on its :func:`_command_session`.

    The command notes manifest fields, reads the one manifest they make,
    and prints its ``--json`` envelope.
    """

    def __init__(self, args: argparse.Namespace):
        from repro.core.plan import recent_plans

        self.args = args
        self.context: dict = {}
        self.run = None
        self.profiler = None
        self._manifest = None
        self._plans_before = len(recent_plans())
        self._start = time.perf_counter()

    def note(self, run=None, **context) -> None:
        """Add run-manifest fields (before the first :meth:`manifest`).

        Under ``supernpu hotspot`` a ``run`` joins the host profile with
        its simulated-cycle phase attribution, so the report answers "which
        loop models the phase that dominates simulated time".
        """
        if run is not None:
            self.run = run
        self.context.update(context)

    def manifest(self):
        """The command's one run manifest, captured on first use."""
        if self._manifest is None:
            from repro import obs
            from repro.core.plan import recent_plans

            # Every plan this command executed, (name, hash) stamped.
            executed = recent_plans()[self._plans_before:]
            plans = [{"name": name, "hash": digest} for name, digest in executed]
            self._manifest = obs.RunManifest.capture(
                self.args.command,
                wall_time_s=time.perf_counter() - self._start,
                **self.context, **({"plans": plans} if plans else {}))
        return self._manifest

    def envelope(self, data) -> None:
        """Print the one JSON result envelope shared by every --json command."""
        import json

        document = {
            "command": self.args.command,
            "design": getattr(self.context.get("config"), "name", None),
            "workload": getattr(self.context.get("workload"), "name", None),
            "data": data,
            "manifest": self.manifest().to_dict(),
        }
        print(json.dumps(document, indent=2, sort_keys=True))

    def stop_profiler(self) -> None:
        """Stop and report a running ``hotspot`` profile.

        The report goes to stderr only: a profiled command's stdout stays
        bitwise-identical to an unprofiled run.
        """
        if self.profiler is None:
            return
        profile, self.profiler = self.profiler.stop(), None
        phases = None
        if self.run is not None:
            from repro.simulator.attribution import attribute

            phases = dict(attribute(self.run).summary_fractions)
        print(profile.report(top_n=self.args.hotspot["top"],
                             phase_fractions=phases), file=sys.stderr)
        out = self.args.hotspot["out"]
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(profile.collapsed())
            print(f"collapsed stacks written to {out}", file=sys.stderr)


def _check_count(flag: str, value: Optional[int]) -> None:
    """Reject a count flag (``--jobs``, ``--top``) below 1."""
    from repro.errors import ConfigError

    if value is not None and value < 1:
        raise ConfigError(f"--{flag} must be at least 1, got {value}",
                          code=f"config.invalid_{flag}",
                          hint=f"pass --{flag} 1 or more")


@contextmanager
def _command_session(args: argparse.Namespace):
    """The one session :func:`main` opens around every command.

    Commands with the runner flags (``--no-cache`` among them) get the
    job runner those flags ask for; the rest run on the ambient runner.
    With a cache directory, a killed run resumes from the cache: each
    finished task was written there, so it is a hit on the next run.
    ``supernpu hotspot`` starts the host profiler; ``--trace-out`` /
    ``--metrics-out`` switch ``repro.obs`` on.  Commands only
    :meth:`_Session.note` their manifest fields.

    On every exit, success or failure, the session writes the trace and
    metrics with the one manifest (the ``--json`` envelope and the
    bottleneck timeline reuse it), disables and resets ``repro.obs``
    and stops the profiler, so nothing leaks into the next in-process
    command.  Under ``--json`` its status lines go to stderr and stdout
    stays one document.
    """
    from contextlib import nullcontext

    from repro import obs
    from repro.core import jobs
    from repro.core.resilience import RetryPolicy
    from repro.obs.progress import auto_reporter

    for flag in ("jobs", "top"):
        _check_count(flag, getattr(args, flag, None))
    session = _Session(args)
    # Status lines go to stderr under --json so stdout stays one document.
    stream = sys.stderr if getattr(args, "json", False) else sys.stdout
    observed = bool(getattr(args, "trace_out", None)
                    or getattr(args, "metrics_out", None))
    runner_session = nullcontext()
    if hasattr(args, "no_cache"):
        # Live progress goes to stderr only, so sweep stdout (tables, JSON
        # envelopes) stays bitwise-identical with progress on or off.
        runner_session = jobs.session(
            jobs=args.jobs, cache_dir=None if args.no_cache else args.cache_dir,
            retry=RetryPolicy(max_retries=args.retries),
            timeout_s=args.task_timeout,
            progress=auto_reporter(args.progress))
    try:
        with runner_session as runner:
            if getattr(args, "hotspot", None):
                # Started first: a nested profiler fails before obs is enabled.
                from repro.obs.hotspot import HotspotProfiler

                session.profiler = HotspotProfiler().start()
            if observed:
                obs.reset()
                obs.enable()
            yield session
            session.stop_profiler()
            if runner is None:
                return
            stats = runner.stats
            if runner.cache is not None and stats.tasks:
                print(f"cache [{runner.cache.root}]: {stats.describe()}",
                      file=stream)
            if runner.jobs > 1 and stats.elapsed_seconds > 0:
                print(f"jobs: {runner.jobs} workers, "
                      f"{stats.parallel_speedup:.2f}x aggregate-sim-time speedup",
                      file=stream)
            if stats.tasks > 1:
                # One-line sweep summary, always on stderr (satellite of the
                # progress stream; never part of a command's stdout contract).
                print(f"summary: {stats.tasks} tasks ({stats.executed} run, "
                      f"{stats.hits} cached, {stats.retries} retried), "
                      f"{stats.elapsed_seconds:.1f}s wall, "
                      f"{100 * stats.hit_rate:.0f}% cache hit-rate",
                      file=sys.stderr)
    finally:
        if session.profiler is not None:  # the command failed: no report
            session.profiler.stop()
        if observed:
            manifest = session.manifest()
            try:
                if args.metrics_out:
                    obs.write_metrics(args.metrics_out, manifest=manifest)
                    print(f"metrics written to {args.metrics_out}", file=stream)
                if args.trace_out:
                    obs.write_trace(args.trace_out, manifest=manifest)
                    print(f"trace written to {args.trace_out}", file=stream)
            finally:
                obs.disable()
                obs.reset()


def _resolve_design(args: argparse.Namespace):
    """One resolver for every design-taking command.

    ``--config-file`` wins when given; otherwise the positional design
    goes through :func:`repro.api.design`, which accepts both named
    design points and paths to JSON config files.
    """
    from repro import api

    if getattr(args, "config_file", None):
        config = api.design(args.config_file)
    else:
        config = api.design(args.design)
    # Component-technology overrides (commands with the flags only);
    # with_updates re-validates the names against the component registry.
    overrides = {}
    if getattr(args, "memory_technology", None):
        overrides["memory_technology"] = args.memory_technology
    if getattr(args, "link_technology", None):
        overrides["link_technology"] = args.link_technology
    if overrides:
        config = config.with_updates(**overrides)
    return config


def _simulate(args: argparse.Namespace):
    """The ``simulate`` verb on a command's design, workload, ``--batch``
    and ``--technology``, noted in its manifest; returns (config,
    network, run, power)."""
    from repro import api
    from repro.core.report import VERBS

    config, network = _resolve_design(args), api.workload(args.workload)
    run, power = VERBS["simulate"](design=config, workload=network,
                                   batch=args.batch, technology=args.technology)
    args.session.note(config=config, workload=network, batch=run.batch,
                      technology=args.technology, run=run)
    return config, network, run, power


def cmd_estimate(args: argparse.Namespace) -> int:
    from repro.core.report import VERBS

    config = _resolve_design(args)
    est = VERBS["estimate"](design=config, technology=args.technology)
    args.session.note(config=config, technology=args.technology)
    if args.json:
        args.session.envelope(VERBS["estimate"].record(est))
        return 0
    print(f"design          : {config.name} ({est.technology})")
    print(f"frequency       : {est.frequency_ghz:.2f} GHz  (critical: {est.critical_path})")
    print(f"peak throughput : {est.peak_tmacs:.0f} TMAC/s")
    print(f"static power    : {est.static_power_w:.2f} W")
    print(f"area (native)   : {est.area_mm2:.0f} mm^2")
    print(f"area (28nm eq.) : {est.area_mm2_scaled():.0f} mm^2")
    for name, unit in est.units.items():
        freq = "-" if unit.frequency_ghz is None else f"{unit.frequency_ghz:6.1f} GHz"
        print(
            f"  {name:14s} {freq:>12s}  {unit.static_power_w:9.2f} W  "
            f"{unit.area_mm2 * 0.028**2 / 1:9.1f} mm^2(28nm)"
        )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.core.report import VERBS

    config, network, run, power = _simulate(args)
    if args.json:
        args.session.envelope(VERBS["simulate"].record((run, power)))
        return 0
    peak_mac_per_s = VERBS["estimate"](
        design=config, technology=args.technology).peak_mac_per_s
    breakdown = run.cycle_breakdown()
    print(f"{config.name} running {network.name} (batch {run.batch})")
    print(f"  cycles      : {run.total_cycles:,}")
    print(f"  latency     : {run.latency_s * 1e6:.1f} us")
    print(f"  throughput  : {run.tmacs:.2f} TMAC/s")
    print(f"  PE util     : {100 * run.pe_utilization(peak_mac_per_s):.2f} %")
    print(
        "  breakdown   : "
        f"prep {100 * breakdown['preparation']:.1f}% / "
        f"compute {100 * breakdown['computation']:.1f}% / "
        f"memory {100 * breakdown['memory']:.1f}%"
    )
    print(f"  chip power  : {power.total_w:.2f} W "
          f"(static {power.static_w:.2f} + dynamic {power.dynamic_w:.2f})")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core.report import VERBS

    args.session.note(suite="fig23")
    record = VERBS["evaluate"].record(VERBS["evaluate"]())
    if args.json:
        args.session.envelope(record)
        return 0
    workloads = record["workloads"]
    widths = [14] + [10] * len(workloads)
    print(_fmt_row(["design (vs TPU)"] + workloads, widths))
    for design, row in record["speedups"].items():
        print(_fmt_row([design] + [f"{row[w]:.2f}x" for w in workloads], widths))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.estimator.validation import all_within_envelope, validate

    rows = validate()
    widths = [10, 22, 18, 18]
    print(_fmt_row(["unit", "freq (model/ref GHz)", "power err", "area err"], widths))
    for name, row in rows.items():
        if row.model_frequency_ghz is None or row.reference_frequency_ghz is None:
            freq = "-"
        else:
            freq = f"{row.model_frequency_ghz:.1f}/{row.reference_frequency_ghz:.1f}"
        print(
            _fmt_row(
                [
                    name,
                    freq,
                    f"{100 * row.power_error:.1f}%",
                    f"{100 * row.area_error:.1f}%",
                ],
                widths,
            )
        )
    ok = all_within_envelope(rows)
    print("validation:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.core.optimizer import buffer_sweep, register_sweep, resource_sweep

    args.session.note(which=args.which, plot=args.plot)
    if args.plot:
        from repro.core.plotting import sweep_chart

        if args.which == "buffers":
            print(sweep_chart(buffer_sweep(), "max_batch"))
        elif args.which == "resources":
            print(sweep_chart(resource_sweep(), "max_batch_added_buffer"))
        else:
            for width, rows in register_sweep().items():
                print(f"width {width}:")
                print(sweep_chart(rows, "speedup"))
        return 0

    if args.which == "buffers":
        for point in buffer_sweep():
            m = point.metrics
            print(
                f"{point.label:26s} single={m['single_batch']:7.2f}x "
                f"max={m['max_batch']:7.2f}x area={m['area']:5.2f}x"
            )
    elif args.which == "resources":
        for point in resource_sweep():
            m = point.metrics
            print(
                f"{point.label:14s} fixed={m['max_batch_fixed_buffer']:7.2f}x "
                f"added={m['max_batch_added_buffer']:7.2f}x "
                f"intensity={m['intensity']:9.0f}"
            )
    else:
        for width, rows in register_sweep().items():
            for point in rows:
                print(f"{point.label:22s} speedup={point.metrics['speedup']:7.2f}x")
    return 0


def cmd_bottleneck(args: argparse.Namespace) -> int:
    """Per-layer bound attribution, critical layers, roofline, timeline."""
    from repro import api, obs
    from repro.core.report import bottleneck_record
    from repro.simulator.attribution import attribute, roofline
    from repro.simulator.utilization import utilization_report

    config = _resolve_design(args)
    network = api.workload(args.workload)
    library = api.library(args.technology)
    estimate = api.estimate(config, technology=library)
    timeline = obs.CycleTimeline(
        estimate.frequency_ghz, design=config.name, network=network.name
    )
    run = api.simulate(config, network, batch=args.batch, technology=library,
                       timeline=timeline)
    batch = run.batch
    args.session.note(config=config, workload=network, batch=batch,
                      technology=args.technology)
    report = attribute(run)
    roof = roofline(run, estimate.peak_mac_per_s, config.memory_bandwidth_gbps)
    util = utilization_report(run)

    if args.timeline_out:
        obs.write_timeline(args.timeline_out, timeline,
                           manifest=args.session.manifest())

    if args.json:
        args.session.envelope(bottleneck_record(
            run, report, roof, util, technology=args.technology,
            simulated_us=timeline.span_us, top=args.top))
        return 0

    print(f"bottleneck: {config.name} running {network.name} "
          f"(batch {batch}, {run.frequency_ghz:.1f} GHz)")
    print(f"  total cycles : {run.total_cycles:,}  "
          f"({timeline.span_us:.2f} us simulated)")
    print()
    widths = [14, 14, 13, 20, 7, 7, 7]
    print(_fmt_row(
        ["layer", "cycles", "bound", "dominant", "prep%", "comp%", "dram%"], widths))
    for layer in report.layers:
        prep = sum(
            layer.fractions[p]
            for p in ("weight_load", "ifmap_prep", "psum_move", "activation_transfer")
        )
        print(_fmt_row(
            [
                layer.name,
                f"{layer.total_cycles:,}",
                layer.bound,
                layer.dominant_phase,
                f"{100 * prep:.1f}",
                f"{100 * layer.fractions['compute']:.1f}",
                f"{100 * layer.fractions['dram_stall']:.1f}",
            ],
            widths,
        ))
    print()
    counts = report.bound_counts
    print("attribution summary (cycle-weighted):")
    for phase, fraction in report.summary_fractions.items():
        print(f"  {phase:20s} {100 * fraction:6.2f} %")
    print(f"bound layers : compute {counts['compute']} / "
          f"preparation {counts['preparation']} / dram {counts['dram']}")
    print(f"busiest unit : {util.busiest_unit()} "
          f"({100 * util.per_unit[util.busiest_unit()]:.1f} % utilized)")
    print()
    print(f"critical layers (top {args.top} of {len(report.layers)}):")
    for rank, (layer, share) in enumerate(report.critical_layers(args.top), start=1):
        print(f"  {rank}. {layer.name:14s} {100 * share:5.1f}% of cycles  "
              f"{layer.bound}-bound ({layer.dominant_phase})")
    print()
    print(f"roofline (compute roof {roof.compute_roof_gops:,.0f} GOPS, "
          f"ridge {roof.ridge_macs_per_byte:.1f} MACs/byte):")
    widths = [14, 12, 14, 16, 10]
    print(_fmt_row(
        ["layer", "MACs/byte", "achieved", "attainable", "limiter"], widths))
    for point in roof.points:
        print(_fmt_row(
            [
                point.name,
                f"{point.intensity_macs_per_byte:.1f}",
                f"{point.achieved_gops:,.0f}",
                f"{point.attainable_gops:,.0f}",
                point.limiter,
            ],
            widths,
        ))
    if args.timeline_out:
        print()
        print(f"timeline written to {args.timeline_out}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    from repro import api

    if args.table == "1":
        from repro.core.designs import all_designs

        widths = [14, 8, 8, 10, 12, 12]
        print(_fmt_row(["design", "array", "regs", "freq", "peak", "area(28nm)"], widths))
        for config in all_designs():
            est = api.estimate(config)
            print(
                _fmt_row(
                    [
                        config.name,
                        f"{config.pe_array_width}x{config.pe_array_height}",
                        config.registers_per_pe,
                        f"{est.frequency_ghz:.1f}GHz",
                        f"{est.peak_tmacs:.0f}TMAC/s",
                        f"{est.area_mm2_scaled():.0f}mm2",
                    ],
                    widths,
                )
            )
    elif args.table == "2":
        from repro.core.batching import PAPER_BATCHES

        workloads = list(next(iter(PAPER_BATCHES.values())))
        widths = [14] + [10] * len(workloads)
        print(_fmt_row(["design"] + workloads, widths))
        for design, row in PAPER_BATCHES.items():
            print(_fmt_row([design] + [row[w] for w in workloads], widths))
    else:
        from repro.core.evaluate import table3_rows

        rows = table3_rows(api.run_plan("table3_power"))
        reference = rows[0]
        widths = [30, 12, 14, 16]
        print(_fmt_row(["configuration", "chip (W)", "wall (W)", "perf/W vs TPU"], widths))
        for row in rows:
            print(
                _fmt_row(
                    [
                        row.label,
                        f"{row.chip_power_w:.2f}",
                        f"{row.wall_power_w:.1f}",
                        f"{row.normalized_to(reference):.3f}x",
                    ],
                    widths,
                )
            )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core.report import VERBS, layer_records, to_csv, to_json

    _, _, run, power = _simulate(args)
    if args.layers:
        document = records = layer_records(run)
    else:
        document = VERBS["simulate"].record((run, power))
        records = [document]
    if args.format == "csv":
        print(to_csv(records), end="")
    else:
        print(to_json(document))
    return 0


def cmd_floorplan(args: argparse.Namespace) -> int:
    from repro.device.cells import rsfq_library
    from repro.estimator.floorplan import floorplan, implied_frequency_ghz

    config = _resolve_design(args)
    library = rsfq_library()
    plan = floorplan(config, library)
    print(f"{config.name}: die {plan.die_width_mm:.1f} x {plan.die_height_mm:.1f} mm "
          f"(AIST 1.0 um), packing {100 * plan.packing_efficiency:.1f}%")
    widths = [16, 10, 10, 10, 10]
    print(_fmt_row(["block", "w (mm)", "h (mm)", "x", "y"], widths))
    for name, block in plan.blocks.items():
        print(_fmt_row(
            [name, f"{block.width_mm:.1f}", f"{block.height_mm:.1f}",
             f"{block.x_mm:.1f}", f"{block.y_mm:.1f}"], widths))
    print("interfaces (edge gap + routing allowance):")
    for name in plan.edge_gaps_mm:
        print(f"  {name:26s} {plan.interface_distance_mm(name):.2f} mm")
    print(f"implied clock: {implied_frequency_ghz(config, library):.1f} GHz")
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    from repro.core.energy import inference_energy_table, relative_energy
    from repro.workloads.models import by_name

    network = by_name(args.workload)
    rows = inference_energy_table(network)
    rel = relative_energy(rows)
    widths = [32, 14, 16, 18, 10]
    print(_fmt_row(
        ["configuration", "images/s", "chip J/img", "wall J/img", "vs TPU"], widths))
    for row in rows:
        print(_fmt_row(
            [
                row.label,
                f"{row.images_per_s:.0f}",
                f"{row.chip_joules_per_image:.2e}",
                f"{row.wall_joules_per_image:.2e}",
                f"{rel[row.label]:.3f}x",
            ],
            widths,
        ))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro import api
    from repro.core.report import comparison_record

    configs = [api.design(spec) for spec in args.designs]
    workloads = args.workloads.split(",") if args.workloads else None
    columns = api.compare(configs, workloads=workloads)
    args.session.note(designs=",".join(c.config.name for c in columns))
    record = comparison_record(columns)
    if args.json:
        args.session.envelope(record)
        return 0
    _print_compare_tables(columns, record)
    return 0


def _print_compare_tables(columns, record) -> None:
    workload_names = list(columns[0].throughput_tmacs)
    widths = [16, 8, 8, 10, 10] + [10] * len(workload_names)
    print(_fmt_row(
        ["design", "GHz", "peak", "area mm2", "mean T/s"] + workload_names, widths))
    for column in columns:
        print(_fmt_row(
            [
                column.config.name,
                f"{column.frequency_ghz:.1f}",
                f"{column.peak_tmacs:.0f}",
                f"{column.area_mm2_28nm:.0f}",
                f"{column.mean_tmacs:.1f}",
            ]
            + [f"{column.throughput_tmacs[name]:.1f}" for name in workload_names],
            widths,
        ))
    print(f"winner (mean throughput): {record['winner']}")
    if len(columns) > 1:
        print()
        print(f"cycle movement vs {columns[0].config.name} "
              "(summed over workloads; negative = fewer cycles):")
        widths = [20] + [16] * len(columns) + [16]
        header = (["phase"] + [c.config.name for c in columns]
                  + [f"delta ({columns[-1].config.name})"])
        print(_fmt_row(header, widths))
        for row in record["phase_deltas"]:
            delta = row[f"{columns[-1].config.name}_delta"]
            print(_fmt_row(
                [row["phase"]]
                + [f"{row[c.config.name]:,}" for c in columns]
                + [f"{delta:+,}"],
                widths,
            ))


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.core.experiments import EXPERIMENTS, EXTENSIONS, reproduce_all

    only = args.only.split(",") if args.only else None
    results = reproduce_all(
        out_dir=args.out, only=only, include_extensions=args.extensions
    )
    args.session.note(experiments=",".join(results))
    for name in results:
        marker = f"-> {args.out}/{name}.json" if args.out else "(in memory)"
        print(f"  {name:28s} {marker}")
    available = len(EXPERIMENTS) + (len(EXTENSIONS) if args.extensions else 0)
    print(f"{len(results)} of {available} experiments regenerated")
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads.analysis import duplication_report
    from repro.workloads.models import all_workloads

    widths = [12, 8, 10, 12, 14]
    print(_fmt_row(["workload", "layers", "GMACs", "weights MB", "duplication"], widths))
    for network in all_workloads():
        report = duplication_report(network)
        print(
            _fmt_row(
                [
                    network.name,
                    len(network.layers),
                    f"{network.total_macs / 1e9:.2f}",
                    f"{network.total_weight_bytes / 2**20:.1f}",
                    f"{100 * report.duplication_ratio:.1f}%",
                ],
                widths,
            )
        )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro import api
    from repro.simulator.trace import trace_layer, trace_summary, trace_to_csv

    config = _resolve_design(args)
    network = api.workload(args.workload)
    matches = [l for l in network.layers if l.name == args.layer]
    if not matches:
        from repro.errors import UnknownWorkloadError

        names = ", ".join(l.name for l in network.layers[:12])
        raise UnknownWorkloadError(
            f"no layer {args.layer!r} in {network.name}; first layers: {names}",
            code="workload.unknown_layer", layer=args.layer, network=network.name,
        )
    events = trace_layer(matches[0], config, batch=args.batch)
    if args.format == "csv":
        print(trace_to_csv(events), end="")
    else:
        summary = trace_summary(events)
        print(f"{config.name} / {network.name} / {args.layer} (batch {args.batch})")
        for phase, cycles in summary.items():
            print(f"  {phase:14s} {cycles:>12,} cycles")
        print(f"  mappings       {events[-1].mapping_index + 1:>12,}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from repro import api
    from repro.errors import ConfigError

    args.session.note(action=args.action)
    if args.action == "list":
        plans = {name: api.plan(name) for name in api.plans()}
        if args.json:
            args.session.envelope({"plans": [
                {"name": name, "points": plan.num_points,
                 "description": plan.description}
                for name, plan in plans.items()
            ]})
            return 0
        widths = [24, 8]
        print(_fmt_row(["plan", "points"], widths) + "  description")
        for name, plan in plans.items():
            print(_fmt_row([name, plan.num_points], widths)
                  + f"  {plan.description}")
        return 0

    if not args.name:
        raise ConfigError(
            f"'plan {args.action}' needs a plan name",
            code="config.missing_plan",
            hint=f"known plans: {', '.join(api.plans())}",
        )
    if args.action == "show":
        plan = api.plan(args.name)
        args.session.note(plan=plan.name)
        lowered = plan.lower()
        unique = lowered.unique_tasks()
        estimate_points = lowered.tasks.count(-1)
        cached = None
        if args.cache_dir and not args.no_cache:
            from repro.core.jobs import ResultCache

            cache = ResultCache(args.cache_dir)
            cached = sum(1 for task in unique if task.key() in cache)
        if args.json:
            args.session.envelope({
                "name": plan.name,
                "hash": lowered.plan_hash,
                "description": plan.description,
                "points_total": len(lowered.points),
                "unique_simulations": len(unique),
                "estimate_points": estimate_points,
                "cached_simulations": cached,
                "grids": [
                    {"name": grid.name, "kind": grid.kind,
                     "points": grid.num_points}
                    for grid in plan.grids
                ],
            })
            return 0
        print(plan.describe())
        line = (f"dry run: {len(lowered.points)} points -> "
                f"{len(unique)} unique simulations")
        if estimate_points:
            line += f" + {estimate_points} estimate points"
        if cached is not None:
            line += (f"; {cached} already cached, "
                     f"{len(unique) - cached} to execute")
        print(line)
        return 0

    # run: the row takes the plan-registry key, which is not always the
    # plan's own name (``search_grid`` builds the plan named ``search``).
    from repro.core.report import VERBS

    resultset = VERBS["plan/run"](plan=args.name)
    args.session.note(plan=resultset.plan.name,
                      plan_hash=resultset.plan_hash,
                      points_total=resultset.points_total,
                      points_cached=resultset.points_cached,
                      points_executed=resultset.points_executed)
    if args.json:
        args.session.envelope(VERBS["plan/run"].record(resultset))
    else:
        print(resultset.describe())
        print(f"plan hash: {resultset.plan_hash}")
    return 0


def cmd_components(args: argparse.Namespace) -> int:
    from repro import api
    from repro.errors import ConfigError

    args.session.note(action=args.action)
    if args.action == "list":
        registered = api.components(kind=args.kind)
        if args.json:
            args.session.envelope(
                {"components": [component.to_dict() for component in registered]})
            return 0
        widths = [16, 8, 8, 10]
        print(_fmt_row(["component", "kind", "stage", "GB/s"], widths)
              + "  description")
        for component in registered:
            bandwidth = ("inherit" if component.bandwidth_gbps is None
                         else f"{component.bandwidth_gbps:g}")
            print(_fmt_row([component.name, component.kind,
                            f"{component.stage_k:g}K", bandwidth], widths)
                  + f"  {component.description}")
        return 0

    # show
    if not args.name:
        raise ConfigError(
            "'components show' needs a component name",
            code="components.missing_name",
            hint="known components: "
                 + ", ".join(c.name for c in api.components()),
        )
    component = api.component(args.name)
    args.session.note(component=component.name)
    if args.json:
        args.session.envelope(component.to_dict())
        return 0
    print(f"component   : {component.name} ({component.kind})")
    print(f"stage       : {component.stage_k:g} K")
    bandwidth = ("inherit (design memory_bandwidth_gbps)"
                 if component.bandwidth_gbps is None
                 else f"{component.bandwidth_gbps:g} GB/s")
    print(f"bandwidth   : {bandwidth}")
    for action in ("read", "write", "transfer", "idle"):
        if action in component.action_energy_pj_per_byte:
            print(f"  {action:9s}: "
                  f"{component.action_energy_pj_per_byte[action]:g} pJ/B")
    if component.area_mm2_per_mib:
        print(f"area        : {component.area_mm2_per_mib:g} mm^2/MiB")
    if component.idle_power_w:
        print(f"idle power  : {component.idle_power_w:g} W")
    if component.description:
        print(f"description : {component.description}")
    if component.citation:
        print(f"citation    : {component.citation}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.core.jobs import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cache [{cache.root}]: removed {removed} entries")
        return 0
    stats = cache.stats()
    print(f"cache [{cache.root}]")
    print(f"  entries : {stats.entries}")
    print(f"  size    : {stats.bytes / 1024:.1f} KiB")
    for kind in sorted(stats.by_kind):
        print(f"  {kind:14s}: {stats.by_kind[kind]}")
    if stats.quarantined:
        print(f"  quarantined   : {stats.quarantined}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived evaluation daemon (see docs/API.md).

    Blocks until SIGTERM/SIGINT, then drains in-flight requests and
    exits 0.  ``--chaos scope:kind:times[:seconds]`` arms fault
    injection for drills: ``handler:`` faults fire at the request
    boundary (keyed by endpoint), ``worker:`` faults travel into pool
    workers (keyed by task content hash).
    """
    import tempfile

    from repro.core.chaos import ChaosInjector, parse_fault_flag
    from repro.serve import EvalDaemon, ServeConfig

    worker_faults = {}
    handler_faults = {}
    for text in args.chaos or []:
        scope, spec = parse_fault_flag(text)
        # Worker faults key on task content hashes and handler faults on
        # endpoint names, neither of which the flag spells out — so
        # CLI-armed faults are wildcard, sharing one ``times`` budget.
        (worker_faults if scope == "worker" else handler_faults)["*"] = spec
    worker_chaos = handler_chaos = None
    if worker_faults or handler_faults:
        chaos_dir = args.chaos_dir or tempfile.mkdtemp(prefix="supernpu-chaos-")
        if worker_faults:
            worker_chaos = ChaosInjector(f"{chaos_dir}/worker", worker_faults)
        if handler_faults:
            handler_chaos = ChaosInjector(f"{chaos_dir}/handler", handler_faults)

    config = ServeConfig(
        host=args.host, port=args.port, cache_dir=args.cache_dir,
        jobs=args.jobs, retries=args.retries,
        task_timeout_s=args.task_timeout,
        max_inflight=args.max_inflight,
        quota_rate_per_s=args.quota_rps, quota_burst=args.quota_burst,
        deadline_s=args.deadline, read_timeout_s=args.header_timeout,
        drain_timeout_s=args.drain_timeout,
        port_file=args.port_file,
        worker_chaos=worker_chaos, handler_chaos=handler_chaos,
    )
    daemon = EvalDaemon(config)
    print(f"supernpu serve: listening on {config.host} "
          f"(port {'ephemeral' if not config.port else config.port}, "
          f"jobs={config.jobs}, quota {config.quota_rate_per_s:g} rps "
          f"burst {config.quota_burst})", file=sys.stderr)
    daemon.run()
    print("supernpu serve: drained, exiting", file=sys.stderr)
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    """The drill client: one request, or a whole scripted drill."""
    import json as json_mod
    import tempfile

    from repro.errors import ConfigError
    from repro.serve.client import ServeClient, read_port_file
    from repro.serve.drill import DrillFailure, run_chaos_drill, run_serve_smoke

    if args.action in ("drill", "smoke"):
        work_dir = args.work_dir or tempfile.mkdtemp(prefix="supernpu-drill-")
        runner = run_chaos_drill if args.action == "drill" else run_serve_smoke
        try:
            report = runner(work_dir)
        except DrillFailure as failure:
            print(f"{args.action} FAILED: {failure}", file=sys.stderr)
            return 1
        print(f"{args.action} passed:")
        print(report.describe())
        return 0

    # action == "request"
    if not args.path:
        raise ConfigError("'client request' needs a path, e.g. /health or "
                          "/v1/estimate", code="config.missing_command")
    port = args.port
    if args.port_file:
        port = read_port_file(args.port_file)
    if not port:
        raise ConfigError("no daemon port: pass --port or --port-file",
                          code="config.missing_port")
    try:
        body = json_mod.loads(args.data) if args.data else None
    except ValueError as error:
        raise ConfigError(f"--data is not JSON: {error}",
                          code="config.bad_json",
                          hint="""e.g. --data '{"design": "supernpu"}'""") from error
    method = args.method or ("POST" if body is not None else "GET")
    client = ServeClient(host=args.host, port=port, client_id=args.client_id)
    try:
        response = client.request(method, args.path, body=body,
                                  deadline_s=args.deadline)
    except OSError as error:
        raise ConfigError(f"no daemon at {args.host}:{port}: {error}",
                          code="serve.unreachable",
                          hint="start one with 'supernpu serve --port-file FILE' "
                               "and pass that --port-file here") from error
    print(f"{response.status} {args.path}", file=sys.stderr)
    print(response.body)
    return 0 if response.status < 400 else 1


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON of this run "
                             "(open in Perfetto / chrome://tracing)")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write this run's metrics snapshot + manifest as JSON")


def _add_jobs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel simulation worker processes "
                             "(default 1 = serial; results are identical)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="content-addressed result cache directory; "
                             "warm re-runs skip simulation entirely")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore --cache-dir for this run")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="retry budget per task for transient worker "
                             "failures (default 2; 0 fails fast)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock limit per simulation task when "
                             "--jobs > 1; a hung task is killed and retried")
    parser.add_argument("--progress", dest="progress", action="store_true",
                        default=None,
                        help="stream live sweep progress (task counts, ETA) "
                             "to stderr; default: only when stderr is a tty")
    parser.add_argument("--no-progress", dest="progress", action="store_false",
                        help="never stream sweep progress")


def _add_component_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--memory-technology", metavar="NAME", default=None,
                        help="registered memory component to charge off-chip "
                             "traffic to (see 'components list'; default: "
                             "the design's own, normally dram-300k)")
    parser.add_argument("--link-technology", metavar="NAME", default=None,
                        help="registered link component carrying that "
                             "traffic (default: 4k-300k-link)")


def _add_design_args(parser: argparse.ArgumentParser, *, required: bool = False,
                     workload: bool = True, batch: bool = True,
                     batch_default: Optional[int] = None,
                     technology: bool = True) -> None:
    """``design [workload]`` plus ``--batch`` / ``--technology`` / ``--config-file``."""
    if required:
        parser.add_argument("design")
    else:
        parser.add_argument("design", nargs="?", default="supernpu")
    if workload:
        parser.add_argument("workload")
    if batch:
        parser.add_argument("--batch", type=int, default=batch_default)
    if technology:
        parser.add_argument("--technology", choices=["rsfq", "ersfq"], default="rsfq")
    parser.add_argument("--config-file", help="JSON NPUConfig instead of a named design")


def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON envelope "
                             '({"command", "design", "workload", "data", '
                             '"manifest"}) instead of tables')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supernpu",
        description="SuperNPU: SFQ-based NPU modeling and simulation (MICRO 2020 reproduction)",
    )
    parser.add_argument("--debug", action="store_true",
                        help="show full tracebacks instead of one-line errors")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="frequency / power / area of a design")
    _add_design_args(p_est, workload=False, batch=False)
    _add_component_flags(p_est)
    _add_json_flag(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_sim = sub.add_parser("simulate", help="cycle-level simulation of one workload")
    _add_design_args(p_sim)
    _add_component_flags(p_sim)
    _add_obs_flags(p_sim)
    _add_jobs_flags(p_sim)
    _add_json_flag(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_bott = sub.add_parser(
        "bottleneck",
        help="per-layer bound attribution, critical layers, roofline, "
             "and a simulated-cycle timeline export",
    )
    _add_design_args(p_bott)
    p_bott.add_argument("--top", type=int, default=5,
                        help="how many critical layers to rank (default 5)")
    _add_json_flag(p_bott)
    p_bott.add_argument("--timeline-out", metavar="FILE", default=None,
                        help="write the run's simulated-cycle timeline as "
                             "Chrome trace JSON (timestamps are simulated "
                             "time; open in Perfetto)")
    _add_obs_flags(p_bott)
    p_bott.set_defaults(func=cmd_bottleneck)

    p_floor = sub.add_parser("floorplan", help="block placement and interfaces")
    _add_design_args(p_floor, workload=False, batch=False, technology=False)
    p_floor.set_defaults(func=cmd_floorplan)

    p_energy = sub.add_parser("energy", help="joules per image across designs")
    p_energy.add_argument("workload")
    p_energy.set_defaults(func=cmd_energy)

    p_eval = sub.add_parser("evaluate", help="full Fig. 23 speedup comparison")
    _add_obs_flags(p_eval)
    _add_jobs_flags(p_eval)
    _add_json_flag(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_val = sub.add_parser("validate", help="Fig. 13 model validation")
    p_val.set_defaults(func=cmd_validate)

    p_sweep = sub.add_parser("sweep", help="design-space sweeps (Figs. 20-22)")
    p_sweep.add_argument("which", choices=["buffers", "resources", "registers"])
    p_sweep.add_argument("--plot", action="store_true",
                         help="render the sweep as an ASCII chart")
    _add_obs_flags(p_sweep)
    _add_jobs_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = sub.add_parser("table", help="print Table I / II / III")
    p_table.add_argument("table", choices=["1", "2", "3"])
    p_table.set_defaults(func=cmd_table)

    p_report = sub.add_parser("report", help="export a run as JSON/CSV records")
    _add_design_args(p_report, required=True)
    p_report.add_argument("--format", choices=["json", "csv"], default="json")
    p_report.add_argument("--layers", action="store_true",
                          help="emit per-layer records instead of the summary")
    p_report.set_defaults(func=cmd_report)

    p_compare = sub.add_parser("compare", help="side-by-side design comparison")
    p_compare.add_argument("designs", nargs="+",
                           help="named designs or .json config files")
    p_compare.add_argument("--workloads", default=None,
                           help="comma-separated workload names (default: all six)")
    _add_obs_flags(p_compare)
    _add_jobs_flags(p_compare)
    _add_json_flag(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_repro = sub.add_parser("reproduce", help="run every figure/table experiment")
    p_repro.add_argument("--out", default=None, help="directory for per-experiment JSON")
    p_repro.add_argument("--only", default=None,
                         help="comma-separated experiment ids (default: all)")
    p_repro.add_argument("--extensions", action="store_true",
                         help="also run the ext_* extension studies")
    _add_obs_flags(p_repro)
    _add_jobs_flags(p_repro)
    p_repro.set_defaults(func=cmd_reproduce)

    p_workloads = sub.add_parser("workloads", help="list the benchmark networks")
    p_workloads.set_defaults(func=cmd_workloads)

    p_trace = sub.add_parser("trace", help="per-mapping execution trace of one layer")
    _add_design_args(p_trace, required=True, batch_default=1, technology=False)
    p_trace.add_argument("layer")
    p_trace.add_argument("--format", choices=["summary", "csv"], default="summary")
    p_trace.set_defaults(func=cmd_trace)

    p_plan = sub.add_parser(
        "plan", help="inspect / run the declarative experiment plans"
    )
    p_plan.add_argument("action", choices=["list", "show", "run"],
                        help="list registered plans, show one plan's grids "
                             "and dry-run counts, or execute it")
    p_plan.add_argument("name", nargs="?", default=None,
                        help="a registered plan name (see 'plan list')")
    _add_obs_flags(p_plan)
    _add_jobs_flags(p_plan)
    _add_json_flag(p_plan)
    p_plan.set_defaults(func=cmd_plan)

    p_comp = sub.add_parser(
        "components",
        help="inspect the registered component estimators "
             "(memory / link technologies)",
    )
    p_comp.add_argument("action", choices=["list", "show"],
                        help="list the registry or show one component's "
                             "energies, stage, and bandwidth")
    p_comp.add_argument("name", nargs="?", default=None,
                        help="a registered component name (see 'components list')")
    p_comp.add_argument("--kind", choices=["memory", "link"], default=None,
                        help="restrict the listing to one component kind")
    _add_json_flag(p_comp)
    p_comp.set_defaults(func=cmd_components)

    p_cache = sub.add_parser("cache", help="inspect or empty a result cache")
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.add_argument("--cache-dir", metavar="DIR", required=True,
                         help="the cache directory to inspect / clear")
    p_cache.set_defaults(func=cmd_cache)

    p_hot = sub.add_parser(
        "hotspot",
        help="run another supernpu command under the host-time profiler "
             "(top-N table on stderr; stdout untouched)",
    )
    p_hot.add_argument("--top", dest="hotspot_top", type=int, default=10,
                       metavar="N",
                       help="how many functions the report ranks (default 10)")
    p_hot.add_argument("--hotspot-out", metavar="FILE", default=None,
                       help="write collapsed caller;callee edges "
                            "(flamegraph.pl / speedscope format, two frames "
                            "deep)")
    p_hot.add_argument("argv", nargs=argparse.REMAINDER,
                       help="the supernpu command line to profile, e.g. "
                            "'simulate supernpu mobilenet'")

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived evaluation daemon (HTTP/JSON; see "
             "docs/API.md for endpoints, admission and fault model)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="listen port (default 0 = ephemeral; the bound "
                              "port lands in --port-file)")
    p_serve.add_argument("--port-file", metavar="FILE", default=None,
                         help="write the bound port here once listening "
                              "(removed on clean drain)")
    p_serve.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="shared content-addressed result cache; strongly "
                              "recommended — warm hits answer in microseconds")
    p_serve.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="pool workers per request (default 1 = serial)")
    p_serve.add_argument("--retries", type=int, default=2, metavar="N")
    p_serve.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS")
    p_serve.add_argument("--max-inflight", type=int, default=8, metavar="N",
                         help="bounded admission queue: requests beyond this "
                              "many in flight are shed with 503")
    p_serve.add_argument("--quota-rps", type=float, default=8.0, metavar="R",
                         help="per-client token refill rate (requests/s; "
                              "over-quota requests get 429 + Retry-After)")
    p_serve.add_argument("--quota-burst", type=int, default=16, metavar="N",
                         help="per-client token bucket size")
    p_serve.add_argument("--deadline", type=float, default=60.0,
                         metavar="SECONDS",
                         help="default per-request deadline; waiters shed 504 "
                              "(clients may lower it via X-Deadline-S)")
    p_serve.add_argument("--header-timeout", type=float, default=5.0,
                         metavar="SECONDS",
                         help="slow-client bound on reading the request "
                              "(shed with 408)")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0,
                         metavar="SECONDS",
                         help="how long SIGTERM waits for in-flight work")
    p_serve.add_argument("--chaos", action="append", metavar="SPEC",
                         help="arm fault injection: scope:kind:times[:seconds] "
                              "(scope handler|worker; e.g. worker:sigkill:2, "
                              "handler:hung_handler:1:0.5); repeatable")
    p_serve.add_argument("--chaos-dir", metavar="DIR", default=None,
                         help="chaos budget-ledger directory (default: a "
                              "fresh temp dir)")
    p_serve.set_defaults(func=cmd_serve)

    p_client = sub.add_parser(
        "client",
        help="talk to a running daemon, or run the serve drills",
    )
    p_client.add_argument("action", choices=["request", "drill", "smoke"],
                          help="request = one HTTP exchange; drill = the full "
                               "in-process chaos drill; smoke = the CI smoke "
                               "(subprocess daemon, quota burst, SIGTERM drain)")
    p_client.add_argument("path", nargs="?", default=None,
                          help="for 'request': /health, /stats, or /v1/<endpoint>")
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=0)
    p_client.add_argument("--port-file", metavar="FILE", default=None,
                          help="read the daemon's port from this file")
    p_client.add_argument("--data", metavar="JSON", default=None,
                          help="request body (implies POST)")
    p_client.add_argument("--method", default=None,
                          choices=["GET", "POST"])
    p_client.add_argument("--client-id", default=None,
                          help="X-Client identity for quota accounting")
    p_client.add_argument("--deadline", dest="deadline", type=float,
                          default=None, metavar="SECONDS",
                          help="X-Deadline-S for this request")
    p_client.add_argument("--work-dir", metavar="DIR", default=None,
                          help="for drill/smoke: scratch directory "
                               "(default: a fresh temp dir)")
    p_client.set_defaults(func=cmd_client)

    return parser


def _profiled_command(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> argparse.Namespace:
    """The command ``hotspot`` wraps, parsed with the profiler's options.

    The wrapped command runs as itself, in its own one session, which
    starts the profiler because the namespace carries the ``hotspot``
    options (the wrapper's ``--top`` and ``--hotspot-out``); so its
    manifest and its ``run`` join are the command's own.  The global
    flags given before ``hotspot`` carry over.
    """
    from repro.errors import ConfigError

    _check_count("top", args.hotspot_top)
    inner = list(args.argv)
    if inner and inner[0] == "--":
        inner = inner[1:]
    if not inner:
        raise ConfigError(
            "'hotspot' needs a supernpu command to profile",
            code="config.missing_command",
            hint="e.g. supernpu hotspot simulate supernpu mobilenet",
        )
    wrapped = parser.parse_args(inner, namespace=argparse.Namespace(
        debug=args.debug, hotspot={"top": args.hotspot_top, "out": args.hotspot_out}))
    if wrapped.command == "hotspot":
        raise ConfigError(
            "'hotspot' cannot profile itself: one profiler runs per process",
            code="hotspot.nested",
            hint="profile once: drop the inner 'hotspot'",
        )
    return wrapped


def main(argv: List[str] | None = None) -> int:
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "hotspot":
            args = _profiled_command(parser, args)
        with _command_session(args) as args.session:
            return args.func(args)
    except BrokenPipeError:
        # Output was piped into a consumer that closed early (e.g. head).
        return 0
    except ReproError as error:
        if args.debug:
            raise
        print(f"error: {error.message}", file=sys.stderr)
        if error.hint:
            print(f"hint: {error.hint}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
