"""Command-line interface.

Provides the workflows a user of the paper's infrastructure would run
day to day::

    repro list                             # registries: benchmarks, VMs...
    repro run _213_javac --collector SemiSpace --heap 32
    repro run -b _202_jess --trace out.json --metrics
    repro run --spec examples/scenarios/quickstart.toml
    repro sweep _213_javac --heaps 32 48 128
    repro campaign --benchmarks _202_jess _209_db \
        --collectors SemiSpace GenCopy --heaps 32 64 --workers 4
    repro campaign --spec examples/scenarios/heap_ladder.toml
    repro spec validate examples/scenarios/*.toml
    repro spec show my_scenario.toml       # canonical form + cells
    repro spec hash my_scenario.toml       # stable SHA-256 identity
    repro thermal --fan-off --repetitions 40
    repro validate --periods 40 200 1000
    repro overhead --periods 40 200 1000    # simulate once, measure N
    repro pauses _213_javac --heap 48
    repro workload _209_db
    repro export _202_jess --output results/jess
    repro trace out.json                   # summarize a recorded trace
    repro serve --port 8642                # HTTP experiment service
    repro submit my_scenario.toml --wait   # run a spec remotely
    repro jobs                             # list the server's jobs
    repro cache stats                      # cell cache + result store
    repro cache prune --max-bytes 500M     # LRU-evict to a budget
    repro cache lineage --stale            # entries by producing code
    repro cache prune --stale              # evict other-code entries
    repro replay <hash|spec.toml>          # re-run + byte-diff a result
    repro replay --all                     # sweep the whole store

Flag-based experiment selection is a thin adapter over the scenario
layer: flags build a single-cell :class:`~repro.spec.ScenarioSpec`, so
``repro run -b X`` and ``repro run --spec equivalent.toml`` execute the
identical cell (see docs/SCENARIOS.md).

The top-level ``--verbose``/``--quiet`` flags configure structured
JSON-lines logging (to stderr) once, for every subcommand::

    repro --verbose run _202_jess

(Equivalently ``python -m repro ...``.)
"""

import argparse
import sys

from repro import registry
from repro.core.experiment import Experiment
from repro.core.report import (
    render_perturbation,
    render_series,
    render_table,
)
from repro.errors import ConfigurationError
from repro.jvm.components import Component
from repro.obs import Observability
from repro.obs import logging as obs_logging
from repro.spec import ScenarioSpec
from repro.workloads import all_benchmarks


def _add_experiment_args(parser, positional_benchmark=True):
    """The one shared experiment-selection group.

    Every experiment-shaped subcommand gets the same flags; ``run``,
    ``sweep``, ``pauses``, and ``export`` also accept the benchmark
    positionally or via ``-b/--bench``.
    """
    group = parser.add_argument_group("experiment selection")
    if positional_benchmark:
        group.add_argument("benchmark", nargs="?", default=None)
        group.add_argument("-b", "--bench", default=None,
                           help="benchmark name (alternative to the "
                                "positional argument)")
    group.add_argument("--vm", default="jikes",
                       choices=tuple(registry.VMS.names()))
    group.add_argument("--platform", default="p6",
                       choices=tuple(registry.PLATFORMS.names()))
    group.add_argument("--collector", default=None,
                       help="one of: "
                            + "|".join(registry.COLLECTORS.names())
                            + " (default: the VM's default)")
    group.add_argument("--heap", type=int, default=64,
                       help="heap size in MB")
    group.add_argument("--seed", type=int, default=42)
    group.add_argument("--input-scale", type=float, default=1.0,
                       help="input size factor (0.1 approximates "
                            "SpecJVM98 -s10)")
    group.add_argument("--dvfs", type=float, default=None,
                       help="fixed DVFS frequency scale in (0.1, 1]")
    return group


def _add_spec_arg(parser):
    parser.add_argument("--spec", default=None, metavar="FILE",
                        help="TOML/JSON scenario spec (overrides the "
                             "experiment-selection flags)")


def _resolve_benchmark(args, command):
    benchmark = args.benchmark or getattr(args, "bench", None)
    if benchmark is None:
        print(f"repro {command}: name a benchmark (positionally or "
              "with -b), or pass --spec", file=sys.stderr)
    return benchmark


def _spec_from_args(args, benchmark):
    """The flag path's adapter: flags -> single-cell ScenarioSpec."""
    return ScenarioSpec.for_experiment(
        benchmark,
        vm=args.vm,
        platform=args.platform,
        collector=args.collector,
        heap_mb=args.heap,
        seed=args.seed,
        input_scale=args.input_scale,
        dvfs_freq_scale=args.dvfs,
    )


def _load_spec(path):
    """Load + validate a spec file; prints the error and returns None
    on failure so commands can exit 2 uniformly."""
    try:
        return ScenarioSpec.from_file(path).validate()
    except ConfigurationError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return None


def _single_cell_config(args, command):
    """Resolve run/pauses/validate-style args into one ExperimentConfig
    (spec file or flags), or None after printing an error."""
    if getattr(args, "spec", None):
        spec = _load_spec(args.spec)
        if spec is None:
            return None
        try:
            return spec.experiment_config()
        except ConfigurationError as exc:
            print(f"repro {command}: {exc}", file=sys.stderr)
            return None
    benchmark = _resolve_benchmark(args, command)
    if benchmark is None:
        return None
    return _spec_from_args(args, benchmark).experiment_config()


def cmd_list(args):
    rows = [
        [spec.suite, spec.name,
         f"{spec.alloc_bytes / 2**20:.0f}", spec.description]
        for spec in all_benchmarks()
    ]
    print(render_table(
        ["Suite", "Benchmark", "Alloc MB", "Description"], rows,
        title="Available benchmarks (the paper's Figure 5):",
    ))
    print()
    print(render_table(
        ["Platform", "Clock", "HPM period", "Port", "Description"],
        [
            [entry.name,
             f"{entry.metadata['clock_hz'] / 1e6:.0f} MHz",
             f"{entry.metadata['hpm_period_s'] * 1e3:.0f} ms",
             entry.metadata["port"],
             entry.describe()]
            for entry in registry.PLATFORMS
        ],
        title="Platforms:",
    ))
    print()
    print(render_table(
        ["VM", "Collectors", "Default", "Description"],
        [
            [entry.name,
             " ".join(entry.metadata.get("collectors", ())),
             entry.metadata.get("default_collector") or "-",
             entry.describe()]
            for entry in registry.VMS
        ],
        title="Virtual machines:",
    ))
    print()
    print(render_table(
        ["Collector", "VMs", "Description"],
        [
            [entry.name,
             " ".join(entry.metadata.get("vms", ())),
             entry.describe()]
            for entry in registry.COLLECTORS
        ],
        title="Garbage collectors:",
    ))
    print()
    print(render_table(
        ["Extension", "Kind", "Description"],
        [
            [entry.name, entry.metadata.get("kind", "-"),
             entry.describe()]
            for entry in registry.EXTENSIONS
        ],
        title="Extensions (paper Section VII):",
    ))
    return 0


def cmd_run(args):
    config = _single_cell_config(args, "run")
    if config is None:
        return 2
    obs = Observability.create(
        trace=bool(args.trace),
        metrics=bool(args.trace) or args.metrics,
    )
    result = Experiment(config, obs=obs).run()
    print(result.summary())
    print()
    rows = []
    for comp, profile in sorted(result.profiles().items()):
        rows.append([
            comp.short_name,
            profile.seconds,
            profile.energy_j,
            100.0 * profile.energy_fraction,
            profile.avg_power_w,
            profile.peak_power_w,
            profile.ipc,
            100.0 * profile.l2_miss_rate,
        ])
    print(render_table(
        ["component", "time s", "energy J", "energy %", "avg W",
         "peak W", "IPC", "L2 miss %"],
        rows,
    ))
    print()
    print(render_perturbation(result.perturbation))
    if args.trace:
        from repro.obs.chrome import write_chrome_trace

        path = write_chrome_trace(args.trace, obs.tracer, obs.metrics)
        print(f"wrote {path} ({len(obs.tracer.spans)} spans; open in "
              "Perfetto or chrome://tracing, or run `repro trace`)")
    if args.metrics:
        print()
        print(obs.metrics.render())
    return 0


def cmd_sweep(args):
    benchmark = _resolve_benchmark(args, "sweep")
    if benchmark is None:
        return 2
    from repro.analysis.edp import edp_sweep

    sweep = edp_sweep(
        [benchmark], args.collectors, args.heaps, vm=args.vm,
        platform=args.platform, input_scale=args.input_scale,
        seed=args.seed, dvfs_freq_scale=args.dvfs,
    )
    # Every requested heap gets a column; a cell that ran out of heap
    # has an infinite EDP and prints as "-".
    series = {
        collector: [(heap, sweep.edp(benchmark, collector, heap))
                    for heap in args.heaps]
        for collector in args.collectors
        if registry.collector_supported(args.vm, collector)
    }
    print(f"EDP (joule-seconds) for {benchmark}:")
    print(render_series(series, x_label="heap MB", y_fmt="{:.0f}"))
    return 0


def cmd_thermal(args):
    from repro.analysis.thermal import thermal_experiment

    result, trace = thermal_experiment(
        benchmark=args.benchmark,
        repetitions=args.repetitions,
        fan_enabled=not args.fan_off,
    )
    t99 = trace.time_to(99.0)
    print(
        f"{args.benchmark} x{args.repetitions}, fan "
        f"{'off' if args.fan_off else 'on'}: steady "
        f"{trace.steady_c:.1f} C, peak {trace.peak_c:.1f} C, "
        "99 C reached "
        f"{'never' if t99 is None else f'after {t99:.0f} s'}, "
        f"throttled: {trace.ever_throttled}"
    )
    return 0


def cmd_workload(args):
    from repro.workloads import get_benchmark
    from repro.workloads.characterize import (
        characterize,
        render_profile,
    )

    spec = get_benchmark(args.benchmark)
    profile = characterize(spec, seed=args.seed)
    print(render_profile(profile, spec))
    return 0


def cmd_pauses(args):
    from repro.analysis.pauses import mmu_curve, pause_stats
    from repro.core.simulation import simulate

    config = _single_cell_config(args, "pauses")
    if config is None:
        return 2
    run = simulate(
        config, obs=Observability.create(trace=False, metrics=False)
    ).run
    stats = pause_stats(run.timeline)
    print(f"{config.benchmark} ({run.collector_name}, "
          f"{config.heap_mb} MB): {stats.describe()}")
    rows = [
        [f"{1000 * w:.0f}", u]
        for w, u in mmu_curve(run.timeline)
    ]
    print(render_table(
        ["window ms", "MMU"], rows,
        title="minimum mutator utilization:",
    ))
    return 0


def cmd_export(args):
    from repro.export import power_trace_to_csv, result_to_json

    config = _single_cell_config(args, "export")
    if config is None:
        return 2
    result = Experiment(
        config, obs=Observability.create(trace=False, metrics=False)
    ).run()
    json_path = result_to_json(result, args.output + ".json")
    csv_path = power_trace_to_csv(result.power, args.output + ".csv")
    print(f"wrote {json_path} (summary) and {csv_path} "
          f"({result.power.n_samples} power samples)")
    return 0


def cmd_campaign(args):
    import json

    from repro.campaign import CampaignRunner
    from repro.campaign.cache import default_cache_dir

    if args.spec:
        if args.benchmarks:
            print("repro campaign: give either --spec or --benchmarks, "
                  "not both", file=sys.stderr)
            return 2
        spec = _load_spec(args.spec)
        if spec is None:
            return 2
    else:
        if not args.benchmarks:
            print("repro campaign: name benchmarks with --benchmarks "
                  "or pass --spec", file=sys.stderr)
            return 2
        collectors = tuple(
            None if c in ("default", "none") else c
            for c in args.collectors
        )
        spec = ScenarioSpec(
            benchmarks=tuple(args.benchmarks),
            vms=tuple(args.vms),
            platforms=tuple(args.platforms),
            collectors=collectors,
            heap_mbs=tuple(args.heaps),
            seeds=tuple(args.seeds),
            input_scales=(args.input_scale,),
            derive_seeds=args.derive_seeds,
            version=1,
        )
    print(f"scenario {spec.name or '(unnamed)'} "
          f"spec-hash {spec.spec_hash()[:16]} "
          f"({len(spec.cells())} cells)")
    cache_dir = None if args.no_cache else (
        args.cache_dir or default_cache_dir()
    )
    tracing = bool(args.trace_dir)
    obs = Observability.create(trace=tracing, metrics=tracing)

    def progress(index, total, cell):
        cfg = cell.config
        if cell.from_cache:
            status = "cached"
        elif cell.ok:
            status = f"ok in {cell.wall_s:.2f} s"
        else:
            status = f"FAILED [{cell.error_type}] {cell.error}"
        print(f"[{index + 1:>4d}/{total}] {cfg.benchmark} "
              f"{cfg.vm}/{cfg.platform} "
              f"{cfg.collector or 'default'} @ {cfg.heap_mb} MB "
              f"seed {cfg.seed}: {status}")

    runner = CampaignRunner(
        workers=args.workers,
        cache_dir=cache_dir,
        timeout_s=args.timeout,
        retries=args.retries,
        progress=progress,
        obs=obs,
        trace_dir=args.trace_dir,
        artifact_dir=args.artifact_dir,
    )
    result = runner.run(spec)
    print()
    print(result.summary.describe())
    if cache_dir is not None:
        print(f"cell cache: {cache_dir}")
    if args.artifact_dir:
        print(f"artifact store: {args.artifact_dir}")
    if args.trace_dir:
        from repro.obs.chrome import write_chrome_trace

        campaign_trace = write_chrome_trace(
            f"{args.trace_dir}/campaign.json", obs.tracer, obs.metrics
        )
        print(f"wrote {campaign_trace} (campaign wall-clock trace) and "
              f"per-cell traces under {args.trace_dir}/")
    rows = []
    for cell in result.ok_cells():
        if cell.oom:
            continue
        cfg = cell.config
        totals = cell.payload["totals"]
        rows.append([
            cfg.benchmark, cfg.vm, cfg.platform,
            cell.payload["config"]["collector"], cfg.heap_mb,
            totals["duration_s"], totals["cpu_energy_j"],
            totals["mem_energy_j"], totals["edp_js"],
        ])
    if rows:
        print(render_table(
            ["benchmark", "vm", "platform", "collector", "heap MB",
             "time s", "CPU J", "mem J", "EDP Js"],
            rows,
        ))
    if args.output:
        path = args.output
        report = result.as_dict()
        report["scenario"] = {
            "name": spec.name,
            "spec_hash": spec.spec_hash(),
            "spec": spec.to_dict(),
        }
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2,
                      sort_keys=True, default=str)
        print(f"wrote {path} (machine-readable campaign report)")
    return 1 if result.failed_cells() else 0


def cmd_spec(args):
    import json

    from repro.errors import SpecValidationError

    status = 0
    for path in args.files:
        try:
            spec = ScenarioSpec.from_file(path)
        except SpecValidationError as exc:
            # Collect-and-report: every problem, one line each.
            for problem in exc.problems:
                print(f"{path}: INVALID {problem}", file=sys.stderr)
            status = 1
            continue
        except ConfigurationError as exc:
            print(f"{path}: ERROR {exc}", file=sys.stderr)
            status = 1
            continue
        problems = spec.problems()
        if args.action == "validate":
            if problems:
                for problem in problems:
                    print(f"{path}: INVALID {problem}", file=sys.stderr)
                status = 1
            else:
                print(f"{path}: ok ({len(spec.cells())} cells, "
                      f"hash {spec.spec_hash()[:16]})")
        elif args.action == "hash":
            print(f"{spec.spec_hash()}  {path}")
        elif args.action == "show":
            print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
            if problems:
                for problem in problems:
                    print(f"{path}: INVALID {problem}", file=sys.stderr)
                status = 1
            else:
                print(f"# {len(spec.cells())} cells, "
                      f"hash {spec.spec_hash()}")
    return status


def cmd_validate(args):
    from repro.analysis.validation import attribution_error
    from repro.core.simulation import simulate

    config = _single_cell_config(args, "validate")
    if config is None:
        return 2
    sim = simulate(
        config, obs=Observability.create(trace=False, metrics=False)
    )
    rows = []
    for period_us in args.periods:
        report = attribution_error(
            sim.run, sim.platform, sample_period_s=period_us / 1e6
        )
        rows.append([
            f"{period_us:.0f}",
            100 * report.total_misattribution_fraction(),
            100 * report.relative_error(Component.GC),
        ])
    print(render_table(
        ["period us", "misattributed %", "GC error %"], rows,
        title="Attribution error vs DAQ sampling period:",
    ))
    return 0


def _load_or_simulate(config, store):
    """``(artifact, source, simulate wall seconds)`` for *config*:
    ``source`` is ``"store"`` (0 s) or ``"simulated"``."""
    import time

    started = time.perf_counter()
    artifact, hit = Experiment(config).load_or_simulate(store)
    if hit:
        return artifact, "store", 0.0
    return artifact, "simulated", time.perf_counter() - started


def cmd_overhead(args):
    import json
    import time as time_mod
    from dataclasses import replace

    from repro.analysis.validation import attribution_error
    from repro.campaign.artifacts import ArtifactStore
    from repro.core.simulation import MeasurementSession

    config = _single_cell_config(args, "overhead")
    if config is None:
        return 2

    store = None if args.no_artifacts else ArtifactStore(args.artifact_dir)
    artifact, source, sim_wall_s = _load_or_simulate(config, store)
    # One session for every period: one run reconstruction and one
    # perturbation report; each period is its own DAQ acquisition.
    session = MeasurementSession(artifact)
    run = session.run
    true_cpu_j = sum(run.timeline.component_cpu_energy_j().values())

    rows = []
    records = []
    measure_wall_total = 0.0
    for period_us in args.periods:
        period_s = period_us / 1e6
        point = replace(config, daq_period_s=period_s)
        started = time_mod.perf_counter()
        result = Experiment(point).measure(session)
        measure_s = time_mod.perf_counter() - started
        measure_wall_total += measure_s
        report = attribution_error(run, session.target,
                                   sample_period_s=period_s)
        energy_err = (
            abs(result.cpu_energy_j - true_cpu_j) / true_cpu_j
            if true_cpu_j else 0.0
        )
        # The Section IV-C perturbation report — what the port-write
        # instrumentation itself cost this measurement point — folded
        # into the frontier instead of needing a separate `repro run`.
        perturb = result.perturbation
        record = {
            "period_us": period_us,
            "daq_samples": result.power.n_samples,
            "cpu_energy_j": result.cpu_energy_j,
            "energy_error_pct": 100 * energy_err,
            "misattributed_pct":
                100 * report.total_misattribution_fraction(),
            "gc_error_pct": 100 * report.relative_error(Component.GC),
            "perturbation_energy_pct": 100 * perturb.energy_fraction,
            "perturbation_time_pct": 100 * perturb.time_fraction,
            "measure_wall_s": measure_s,
        }
        ci_cell = ""
        if args.replicates:
            from repro.analysis.uncertainty import BootstrapEngine

            engine = BootstrapEngine(point, replicates=args.replicates)
            dist = engine.run(artifact).totals["cpu_energy_j"]
            record["cpu_energy_ci"] = dist.as_dict()
            ci_cell = (f"±{dist.ci_half_width:.3f} "
                       f"[{dist.ci_low:.3f}, {dist.ci_high:.3f}]")
        records.append(record)
        row = [
            f"{period_us:.0f}", record["daq_samples"],
            f"{record['cpu_energy_j']:.3f}",
        ]
        if args.replicates:
            row.append(ci_cell)
        row += [
            record["energy_error_pct"],
            record["misattributed_pct"],
            record["gc_error_pct"],
            record["perturbation_energy_pct"],
            f"{measure_s:.4f}",
        ]
        rows.append(row)

    print(f"{config.benchmark} | {config.vm}/{config.platform}: "
          f"artifact {artifact.sim_key[:12]} ({source}, "
          f"{artifact.n_segments} segments)")
    headers = ["period us", "DAQ samples", "CPU J"]
    if args.replicates:
        headers.append(f"95% CI (n={args.replicates})")
    headers += ["energy err %", "misattributed %", "GC error %",
                "perturb %", "measure s"]
    print(render_table(
        headers,
        rows,
        title="Measurement accuracy vs overhead (one simulation, "
              "many measurements):",
    ))
    n = len(args.periods)
    fused_s = n * (sim_wall_s + measure_wall_total / n) \
        if source == "simulated" else None
    split_s = sim_wall_s + measure_wall_total
    line = (f"simulate {sim_wall_s:.3f} s ({source}) + "
            f"{n} measurements {measure_wall_total:.3f} s "
            f"= {split_s:.3f} s")
    if fused_s and split_s > 0:
        line += (f"; fused would re-simulate every point: "
                 f"~{fused_s:.3f} s ({fused_s / split_s:.1f}x)")
    print(line)
    if store is not None:
        print(f"artifact store: {store.root}")
    if args.output:
        payload = {
            "benchmark": config.benchmark,
            "vm": config.vm,
            "platform": config.platform,
            "sim_key": artifact.sim_key,
            "artifact_source": source,
            "simulate_wall_s": sim_wall_s,
            "points": records,
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.output} (accuracy-vs-overhead frontier)")
    return 0


def cmd_uncertainty(args):
    import json
    import time as time_mod

    from repro.analysis.uncertainty import BootstrapEngine, NoiseConfig
    from repro.campaign.artifacts import ArtifactStore
    from repro.errors import ConfigurationError as ConfigError

    config = _single_cell_config(args, "uncertainty")
    if config is None:
        return 2
    try:
        noise = NoiseConfig(
            adc_bits=args.adc_bits if args.adc_bits > 0 else None,
            daq_jitter_frac=args.daq_jitter,
            hpm_jitter_frac=args.hpm_jitter,
        )
        engine = BootstrapEngine(
            config, noise=noise, replicates=args.replicates,
            ci_level=args.ci,
        )
    except ConfigError as exc:
        print(f"repro uncertainty: {exc}", file=sys.stderr)
        return 2

    store = None if args.no_artifacts else ArtifactStore(args.artifact_dir)
    artifact, source, sim_wall_s = _load_or_simulate(config, store)
    n_simulations = int(source == "simulated")

    started = time_mod.perf_counter()
    report = engine.run(artifact)
    measure_wall_s = time_mod.perf_counter() - started

    print(f"{config.benchmark} | {config.vm}/{config.platform}: "
          f"artifact {artifact.sim_key[:12]} ({source}, "
          f"{artifact.n_segments} segments)")
    print(report.describe())
    print(f"{args.replicates} measurement replicates over "
          f"{n_simulations} simulation(s): simulate {sim_wall_s:.3f} s "
          f"+ bootstrap {measure_wall_s:.3f} s")
    if store is not None:
        print(f"artifact store: {store.root}")
    if args.output:
        # The report section is a pure function of (config, noise,
        # seed, replicates) — byte-identical across invocations; the
        # counters section records what *this* invocation did (first
        # run simulates, the next hits the store), so tooling diffs
        # the two sections separately.
        payload = {
            "schema": "repro-uncertainty-v1",
            "benchmark": config.benchmark,
            "vm": config.vm,
            "platform": config.platform,
            "sim_key": artifact.sim_key,
            "report": report.as_dict(),
            "counters": {
                "n_simulations": n_simulations,
                "artifact_source": source,
                "simulate_wall_s": sim_wall_s,
                "bootstrap_wall_s": measure_wall_s,
            },
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.output} (uncertainty report)")
    return 0


def cmd_trace(args):
    from repro.errors import MeasurementError
    from repro.obs.chrome import load_trace
    from repro.obs.summary import render_trace_summary, summarize_trace

    try:
        events = load_trace(args.file)
    except (OSError, MeasurementError) as exc:
        print(f"repro trace: {exc}", file=sys.stderr)
        return 2
    summary = summarize_trace(events, top=args.top)
    print(render_trace_summary(summary))
    return 0


def _parse_size(text):
    """``500M``/``2G``/``1048576`` -> bytes (K/M/G/T suffixes, opt. B)."""
    units = {"k": 2**10, "m": 2**20, "g": 2**30, "t": 2**40}
    cleaned = text.strip().lower().rstrip("b")
    scale = 1
    if cleaned and cleaned[-1] in units:
        scale = units[cleaned[-1]]
        cleaned = cleaned[:-1]
    try:
        value = float(cleaned)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a size: {text!r} (use e.g. 1048576, 500M, 2G)"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError("size cannot be negative")
    return int(value * scale)


def _fmt_bytes(n):
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024 or unit == "TiB":
            return (f"{n:.0f} {unit}" if unit == "B"
                    else f"{n:.1f} {unit}")
        n /= 1024


def cmd_serve(args):
    if args.action == "top":
        from repro.serve.top import run_top

        return run_top(
            server_url=args.server, interval_s=args.interval,
            iterations=1 if args.once else None,
        )

    from repro.serve.server import serve_forever

    def ready(server):
        host, port = server.address
        print(f"repro serve: listening on http://{host}:{port} "
              f"(queue {args.queue_size}, {args.job_workers} "
              f"{args.worker_mode} worker(s) x {args.cell_workers} "
              f"cell worker(s))",
              flush=True)

    return serve_forever(
        host=args.host,
        port=args.port,
        drain_timeout=args.drain_timeout,
        ready=ready,
        queue_size=args.queue_size,
        job_workers=args.job_workers,
        worker_mode=args.worker_mode,
        cell_workers=args.cell_workers,
        cache_dir=args.cache_dir,
        use_cell_cache=not args.no_cache,
        result_dir=args.result_dir,
        timeout_s=args.timeout,
        retries=args.retries,
        store_shards=args.store_shards,
        lease_ttl_s=args.lease_ttl,
        job_trace=args.trace_jobs,
    )


def _describe_job(job):
    line = (f"{job['id']}  {job['state']:<8} "
            f"attempts {job['attempts']}  cells {job['n_cells']}")
    if job.get("name"):
        line += f"  ({job['name']})"
    if job["state"] == "done":
        line += (f"  wall {job['wall_s']:.2f} s  "
                 f"executed {job['n_executed']}  "
                 f"cached {job['n_cached']}")
    elif job["state"] == "failed":
        line += f"  error: {job.get('error')}"
    return line


def cmd_submit(args):
    from repro.serve.client import (
        ServiceBusy,
        ServiceClient,
        ServiceError,
    )

    client = ServiceClient(args.server, timeout_s=30.0)
    try:
        job = client.submit_file(args.spec, retry=args.wait,
                                 max_wait_s=args.timeout)
        print(f"job {job['id']}: {job['outcome']} ({job['state']})")
        if args.wait and job["state"] not in ("done", "failed"):
            job = client.wait(job["id"], timeout_s=args.timeout)
            print(_describe_job(job))
        if job["state"] == "failed":
            return 1
        if args.output and job["state"] == "done":
            data = client.result_bytes(job["id"])
            with open(args.output, "wb") as handle:
                handle.write(data)
            print(f"wrote {args.output} ({_fmt_bytes(len(data))})")
        return 0
    except ServiceBusy as exc:
        print(f"repro submit: {exc} (server suggests retrying in "
              f"{exc.retry_after_s:.0f} s)", file=sys.stderr)
        return 3
    except (ServiceError, ConfigurationError, OSError) as exc:
        print(f"repro submit: {exc}", file=sys.stderr)
        return 2


def cmd_jobs(args):
    from repro.serve.client import ServiceClient, ServiceError

    client = ServiceClient(args.server, timeout_s=30.0)
    try:
        if args.trace is not None:
            if not args.id:
                print("repro jobs: --trace needs a job id",
                      file=sys.stderr)
                return 2
            return _fetch_job_trace(client, args.id, args.trace)
        if args.id:
            job = (client.wait(args.id, timeout_s=args.timeout)
                   if args.wait else client.job(args.id))
            print(_describe_job(job))
            return 1 if job["state"] == "failed" else 0
        jobs = client.jobs()
        if not jobs:
            print("(no jobs)")
            return 0
        for job in jobs:
            print(_describe_job(job))
        return 0
    except ServiceError as exc:
        print(f"repro jobs: {exc}", file=sys.stderr)
        return 2


def _fetch_job_trace(client, job_id, out_path):
    """``repro jobs ID --trace``: fetch, save, and summarize the
    merged per-job trace."""
    import json as json_mod

    from repro.obs.summary import render_trace_summary, summarize_trace

    events = client.job_trace(job_id)
    path = out_path or f"{job_id[:12]}.trace.json"
    with open(path, "w") as handle:
        json_mod.dump(events, handle, separators=(",", ":"))
    print(f"wrote {path} ({len(events)} events)")
    print(render_trace_summary(summarize_trace(events)))
    return 0


def cmd_cache(args):
    import time as time_mod

    from repro.campaign.artifacts import ArtifactStore
    from repro.campaign.cache import ResultCache
    from repro.serve.store import ResultStore

    stores = [
        ("cell cache", ResultCache(args.cache_dir)),
        ("result store", ResultStore(args.result_dir)),
        ("artifact store", ArtifactStore(args.artifact_dir)),
    ]
    if args.action == "stats":
        rows = []
        for label, store in stores:
            stats = store.stats()
            rows.append([
                label, stats["root"], stats["entries"],
                _fmt_bytes(stats["total_bytes"]),
            ])
        print(render_table(["store", "root", "entries", "bytes"], rows))
        return 0
    if args.action == "lineage":
        rows = []
        for label, store in stores:
            groups = store.lineage()
            if args.stale:
                groups = [g for g in groups if g["stale"]]
            for group in groups:
                written = group["newest_unix"]
                rows.append([
                    label,
                    (group["code_digest"] or "(none)")[:12],
                    group["repro_version"] or "-",
                    group["cache_version"]
                    if group["cache_version"] is not None else "-",
                    group["entries"],
                    _fmt_bytes(group["total_bytes"]),
                    "stale" if group["stale"] else "current",
                    time_mod.strftime("%Y-%m-%d %H:%M",
                                      time_mod.localtime(written))
                    if written else "-",
                ])
        if not rows:
            print("(no stale entries)" if args.stale
                  else "(no entries)")
            return 0
        print(render_table(
            ["store", "code digest", "version", "cache v", "entries",
             "bytes", "status", "newest"],
            rows,
            title="Entries by producing code"
                  + (" (stale only)" if args.stale else "") + ":",
        ))
        return 0
    # prune: --stale evicts entries written by different code (or with
    # no envelope at all); --max-bytes LRU-evicts to a size budget.
    if args.stale:
        for label, store in stores:
            removed, freed = store.prune_stale()
            print(f"{label}: evicted {removed} stale entries "
                  f"({_fmt_bytes(freed)})")
        return 0
    if args.max_bytes is None:
        print("repro cache prune: pass --max-bytes or --stale",
              file=sys.stderr)
        return 2
    for label, store in stores:
        removed, freed = store.prune(args.max_bytes)
        print(f"{label}: evicted {removed} entries "
              f"({_fmt_bytes(freed)}); now "
              f"{_fmt_bytes(store.total_bytes())} "
              f"<= {_fmt_bytes(args.max_bytes)}")
    return 0


def cmd_replay(args):
    from repro.provenance import (
        DRIFTED,
        IDENTICAL,
        UNREPLAYABLE,
        replay_store_entry,
    )
    from repro.serve.store import ResultStore

    store = ResultStore(args.result_dir, shards=args.store_shards)
    reports = []

    def run_one(key):
        report = replay_store_entry(store, key, workers=args.workers)
        reports.append(report)
        print(report.describe())
        for line in report.diffs[:args.diff_limit]:
            print(f"    {line}")
        hidden = len(report.diffs) - args.diff_limit
        if hidden > 0:
            print(f"    ... ({hidden} more; raise --diff-limit)")

    if args.all:
        keys = store.keys()
        if not keys:
            print(f"repro replay: no stored results under "
                  f"{store.root}", file=sys.stderr)
            return 2
        for key in keys:
            run_one(key)
    elif args.target is None:
        print("repro replay: name a result hash or a spec file, or "
              "pass --all", file=sys.stderr)
        return 2
    else:
        key = _resolve_replay_target(args.target, store)
        if key is None:
            return 2
        run_one(key)

    counts = {IDENTICAL: 0, DRIFTED: 0, UNREPLAYABLE: 0}
    for report in reports:
        counts[report.status] += 1
    print(f"replayed {len(reports)}: {counts[IDENTICAL]} identical, "
          f"{counts[DRIFTED]} drifted, "
          f"{counts[UNREPLAYABLE]} unreplayable")
    if counts[DRIFTED]:
        return 1
    if counts[UNREPLAYABLE]:
        return 2
    return 0


def _resolve_replay_target(target, store):
    """A replay target is a result hash (full or unique prefix) or a
    spec file whose hash names the stored artifact; returns the full
    key, or None after printing an error."""
    lowered = target.lower()
    if all(c in "0123456789abcdef" for c in lowered) and len(lowered) >= 8:
        if len(lowered) == 64:
            return lowered
        matches = [k for k in store.keys()
                   if k.startswith(lowered)]
        if len(matches) == 1:
            return matches[0]
        what = "ambiguous" if matches else "unknown"
        print(f"repro replay: {what} result hash prefix {target!r}",
              file=sys.stderr)
        return None
    spec = _load_spec(target)
    if spec is None:
        return None
    key = spec.spec_hash()
    print(f"{target}: spec-hash {key[:16]}")
    return key


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="JVM energy/power characterization "
                    "(IISWC 2006 reproduction)",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="structured JSON-lines logging at debug level (stderr)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress structured logging entirely",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list",
        help="list registered benchmarks, platforms, VMs, collectors",
    )

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Chrome trace-event JSON of the "
                            "run (open in Perfetto)")
    p_run.add_argument("--metrics", action="store_true",
                       help="print the pipeline metrics registry")
    _add_experiment_args(p_run)
    _add_spec_arg(p_run)

    p_sweep = sub.add_parser("sweep", help="EDP heap sweep")
    _add_experiment_args(p_sweep)
    p_sweep.add_argument(
        "--heaps", type=int, nargs="+",
        default=[32, 48, 64, 80, 96, 112, 128],
    )
    p_sweep.add_argument(
        "--collectors", nargs="+",
        default=["SemiSpace", "MarkSweep", "GenCopy", "GenMS"],
    )

    p_campaign = sub.add_parser(
        "campaign",
        help="run an experiment matrix in parallel with caching",
    )
    p_campaign.add_argument("--benchmarks", nargs="+", default=None)
    p_campaign.add_argument("--vms", nargs="+", default=["jikes"],
                            choices=tuple(registry.VMS.names()))
    p_campaign.add_argument("--platforms", nargs="+", default=["p6"],
                            choices=tuple(registry.PLATFORMS.names()))
    p_campaign.add_argument(
        "--collectors", nargs="+", default=["default"],
        help="collector names; 'default' uses each VM's default "
             "(unsupported VM/collector pairs are skipped)",
    )
    p_campaign.add_argument("--heaps", type=int, nargs="+",
                            default=[64])
    p_campaign.add_argument("--seeds", type=int, nargs="+",
                            default=[42])
    p_campaign.add_argument("--input-scale", type=float, default=1.0)
    p_campaign.add_argument(
        "--derive-seeds", action="store_true",
        help="derive a unique, stable seed per cell from each base seed",
    )
    _add_spec_arg(p_campaign)
    p_campaign.add_argument("--workers", type=int, default=1,
                            help="worker processes (1 = in-process)")
    p_campaign.add_argument(
        "--cache-dir", default=None,
        help="on-disk cell cache (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro/campaign)",
    )
    p_campaign.add_argument("--no-cache", action="store_true",
                            help="disable the on-disk cell cache")
    p_campaign.add_argument("--timeout", type=float, default=None,
                            help="per-cell wall-clock budget in seconds")
    p_campaign.add_argument("--retries", type=int, default=1,
                            help="retries per failing cell")
    p_campaign.add_argument("--output", default=None,
                            help="write a JSON campaign report here")
    p_campaign.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="write Chrome traces here: campaign.json (wall-clock "
             "cells) plus one sim-clock trace per executed cell",
    )
    p_campaign.add_argument(
        "--artifact-dir", default=None, metavar="DIR",
        help="content-addressed simulation artifact store; cells "
             "sharing a simulation identity reuse one recorded "
             "execution across runs",
    )

    p_spec = sub.add_parser(
        "spec", help="validate, show, or hash scenario spec files"
    )
    p_spec.add_argument("action", choices=("validate", "show", "hash"))
    p_spec.add_argument("files", nargs="+",
                        help="TOML/JSON scenario spec files")

    p_thermal = sub.add_parser("thermal",
                               help="Figure 1 thermal experiment")
    p_thermal.add_argument("--benchmark", default="_222_mpegaudio")
    p_thermal.add_argument("--repetitions", type=int, default=30)
    p_thermal.add_argument("--fan-off", action="store_true")

    p_val = sub.add_parser(
        "validate", help="attribution error vs sampling period"
    )
    p_val.add_argument("--benchmark", default="_202_jess")
    _add_experiment_args(p_val, positional_benchmark=False)
    _add_spec_arg(p_val)
    p_val.add_argument("--periods", type=float, nargs="+",
                       default=[40.0, 200.0, 1000.0, 10000.0])

    p_overhead = sub.add_parser(
        "overhead",
        help="accuracy-vs-overhead frontier from one simulation "
             "(simulate once, measure at many DAQ periods)",
    )
    p_overhead.add_argument("--benchmark", default="_202_jess")
    _add_experiment_args(p_overhead, positional_benchmark=False)
    _add_spec_arg(p_overhead)
    p_overhead.add_argument("--periods", type=float, nargs="+",
                            default=[40.0, 200.0, 1000.0, 10000.0],
                            help="DAQ sampling periods in microseconds")
    p_overhead.add_argument(
        "--artifact-dir", default=None,
        help="simulation artifact store (default: "
             "$REPRO_ARTIFACT_DIR or ~/.cache/repro/artifacts)",
    )
    p_overhead.add_argument("--no-artifacts", action="store_true",
                            help="skip the artifact store (always "
                                 "simulate, never persist)")
    p_overhead.add_argument("--output", default=None, metavar="PATH",
                            help="write the frontier as JSON here")
    p_overhead.add_argument(
        "--replicates", type=int, default=0, metavar="N",
        help="bootstrap N noisy re-measurements per period and add a "
             "95%% CI error bar to the CPU-energy column (0 = off)",
    )

    p_uncertainty = sub.add_parser(
        "uncertainty",
        help="bootstrap measurement uncertainty: N noisy "
             "re-measurements of one recorded execution, reported as "
             "per-component energy distributions with CIs",
    )
    p_uncertainty.add_argument("--benchmark", default="_202_jess")
    _add_experiment_args(p_uncertainty, positional_benchmark=False)
    _add_spec_arg(p_uncertainty)
    p_uncertainty.add_argument(
        "--replicates", type=int, default=32, metavar="N",
        help="bootstrap replicate count (default 32)",
    )
    p_uncertainty.add_argument(
        "--ci", type=float, default=0.95, metavar="LEVEL",
        help="confidence level for the percentile intervals "
             "(default 0.95)",
    )
    p_uncertainty.add_argument(
        "--adc-bits", type=int, default=12, metavar="BITS",
        help="sense-channel ADC resolution (0 disables quantization)",
    )
    p_uncertainty.add_argument(
        "--daq-jitter", type=float, default=0.05, metavar="FRAC",
        help="DAQ sample-clock jitter, one sigma, as a fraction of "
             "the period (default 0.05)",
    )
    p_uncertainty.add_argument(
        "--hpm-jitter", type=float, default=0.10, metavar="FRAC",
        help="HPM timer-interrupt latency, one sigma, as a fraction "
             "of the period (default 0.10)",
    )
    p_uncertainty.add_argument(
        "--artifact-dir", default=None,
        help="simulation artifact store (default: "
             "$REPRO_ARTIFACT_DIR or ~/.cache/repro/artifacts)",
    )
    p_uncertainty.add_argument(
        "--no-artifacts", action="store_true",
        help="skip the artifact store (always simulate, never persist)",
    )
    p_uncertainty.add_argument("--output", default=None, metavar="PATH",
                               help="write the report as JSON here")

    p_pauses = sub.add_parser(
        "pauses", help="GC pause statistics and MMU curve"
    )
    _add_experiment_args(p_pauses)
    _add_spec_arg(p_pauses)

    p_export = sub.add_parser(
        "export", help="run one experiment and export JSON + CSV"
    )
    _add_experiment_args(p_export)
    _add_spec_arg(p_export)
    p_export.add_argument("--output", default="experiment",
                          help="output path prefix")

    p_workload = sub.add_parser(
        "workload", help="characterize a benchmark's memory behavior"
    )
    p_workload.add_argument("benchmark")
    p_workload.add_argument("--seed", type=int, default=42)

    p_trace = sub.add_parser(
        "trace", help="summarize a recorded Chrome trace"
    )
    p_trace.add_argument("file", help="trace JSON written by "
                                      "`repro run --trace`")
    p_trace.add_argument("--top", type=int, default=10,
                         help="spans to show per clock, by self-time")

    from repro.serve.server import DEFAULT_PORT

    p_serve = sub.add_parser(
        "serve", help="run the HTTP experiment service "
                      "(or `serve top` to watch one live)"
    )
    p_serve.add_argument("action", nargs="?", default=None,
                         choices=("top",),
                         help="'top': live metrics view of a running "
                              "service instead of serving")
    p_serve.add_argument("--server", default=None,
                         help="service URL for `serve top` (default: "
                              "$REPRO_SERVER or "
                              f"http://127.0.0.1:{DEFAULT_PORT})")
    p_serve.add_argument("--interval", type=float, default=2.0,
                         help="`serve top` refresh period in seconds")
    p_serve.add_argument("--once", action="store_true",
                         help="`serve top`: print one snapshot and "
                              "exit (scripts, smoke tests)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help=f"TCP port (default {DEFAULT_PORT}; "
                              "0 picks an ephemeral port)")
    p_serve.add_argument("--queue-size", type=int, default=64,
                         help="bounded submission queue; a full queue "
                              "answers 429 + Retry-After")
    p_serve.add_argument("--job-workers", "--workers", type=int,
                         default=2, dest="job_workers",
                         help="concurrent jobs (worker slots)")
    p_serve.add_argument("--worker-mode", default="thread",
                         choices=("thread", "process"),
                         help="where jobs execute: in-process threads "
                              "(share one GIL) or a process pool that "
                              "scales CPU-bound cells with cores")
    p_serve.add_argument("--cell-workers", type=int, default=1,
                         help="worker processes per job's campaign "
                              "(1 = in-thread)")
    p_serve.add_argument("--store-shards", type=int, default=1,
                         help="consistent-hash shards for the result "
                              "store namespace (all instances sharing "
                              "a store must agree)")
    p_serve.add_argument("--lease-ttl", type=float, default=30.0,
                         help="seconds before an unrefreshed "
                              "single-flight lease counts as stale "
                              "and is taken over")
    p_serve.add_argument("--cache-dir", default=None,
                         help="campaign cell cache (default: "
                              "$REPRO_CACHE_DIR or "
                              "~/.cache/repro/campaign)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="disable the campaign cell cache")
    p_serve.add_argument("--result-dir", default=None,
                         help="content-addressed result store "
                              "(default: $REPRO_RESULT_DIR or "
                              "~/.cache/repro/results)")
    p_serve.add_argument("--timeout", type=float, default=None,
                         help="per-cell wall-clock budget in seconds")
    p_serve.add_argument("--retries", type=int, default=1,
                         help="retries per failing cell")
    p_serve.add_argument("--drain-timeout", type=float, default=30.0,
                         help="seconds to finish queued/in-flight "
                              "jobs on SIGTERM/SIGINT")
    p_serve.add_argument("--trace-jobs", action="store_true",
                         help="record a distributed per-job trace "
                              "(service + worker spans, merged at "
                              "GET /v1/jobs/{id}/trace)")

    p_submit = sub.add_parser(
        "submit", help="submit a scenario spec to a repro serve"
    )
    p_submit.add_argument("spec", help="TOML/JSON scenario spec file")
    p_submit.add_argument("--server", default=None,
                          help="service URL (default: $REPRO_SERVER "
                               f"or http://127.0.0.1:{DEFAULT_PORT})")
    p_submit.add_argument("--wait", action="store_true",
                          help="poll until the job finishes (also "
                               "retries 429s per Retry-After)")
    p_submit.add_argument("--timeout", type=float, default=300.0,
                          help="overall --wait budget in seconds")
    p_submit.add_argument("--output", default=None, metavar="PATH",
                          help="write the fetched result JSON here "
                               "(implies the job must complete)")

    p_jobs = sub.add_parser(
        "jobs", help="list a server's jobs, or show/await one"
    )
    p_jobs.add_argument("id", nargs="?", default=None,
                        help="job id (spec hash); omit to list all")
    p_jobs.add_argument("--server", default=None,
                        help="service URL (default: $REPRO_SERVER "
                             f"or http://127.0.0.1:{DEFAULT_PORT})")
    p_jobs.add_argument("--wait", action="store_true",
                        help="poll the named job to completion")
    p_jobs.add_argument("--timeout", type=float, default=300.0,
                        help="overall --wait budget in seconds")
    p_jobs.add_argument("--trace", nargs="?", const="", default=None,
                        metavar="PATH",
                        help="fetch the job's merged distributed "
                             "trace, write it (default "
                             "<id12>.trace.json), and summarize it")

    p_cache = sub.add_parser(
        "cache", help="inspect, prune, or trace the on-disk caches"
    )
    p_cache.add_argument("action",
                         choices=("stats", "prune", "lineage"))
    p_cache.add_argument("--max-bytes", type=_parse_size, default=None,
                         help="prune target per store (e.g. 500M, 2G)")
    p_cache.add_argument(
        "--stale", action="store_true",
        help="lineage: show only groups written by different code; "
             "prune: evict those entries (missing envelopes included)",
    )
    p_cache.add_argument("--cache-dir", default=None,
                         help="campaign cell cache root override")
    p_cache.add_argument("--result-dir", default=None,
                         help="result store root override")
    p_cache.add_argument("--artifact-dir", default=None,
                         help="simulation artifact store root override")

    p_replay = sub.add_parser(
        "replay",
        help="re-execute a stored result and byte-diff the replay",
    )
    p_replay.add_argument(
        "target", nargs="?", default=None,
        help="result hash (full or unique prefix) or a scenario spec "
             "file whose hash names the stored artifact",
    )
    p_replay.add_argument("--all", action="store_true",
                          help="replay every result in the store")
    p_replay.add_argument("--result-dir", default=None,
                          help="result store root (default: "
                               "$REPRO_RESULT_DIR or "
                               "~/.cache/repro/results)")
    p_replay.add_argument("--store-shards", type=int, default=1,
                          help="shard count the store was written with")
    p_replay.add_argument("--workers", type=int, default=1,
                          help="worker processes for the replay run")
    p_replay.add_argument("--diff-limit", type=int, default=16,
                          help="differing fields to print per drifted "
                               "result")

    return parser


COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "sweep": cmd_sweep,
    "campaign": cmd_campaign,
    "spec": cmd_spec,
    "thermal": cmd_thermal,
    "validate": cmd_validate,
    "overhead": cmd_overhead,
    "uncertainty": cmd_uncertainty,
    "pauses": cmd_pauses,
    "export": cmd_export,
    "workload": cmd_workload,
    "trace": cmd_trace,
    "serve": cmd_serve,
    "submit": cmd_submit,
    "jobs": cmd_jobs,
    "cache": cmd_cache,
    "replay": cmd_replay,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    obs_logging.configure(verbose=args.verbose, quiet=args.quiet)
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early; exit quietly
        # with the shell's 128+SIGPIPE convention.  Redirect stdout to
        # devnull first so the interpreter's final flush cannot raise.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
