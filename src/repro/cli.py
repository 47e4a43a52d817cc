"""Command-line interface: ``python -m repro <command>``.

Commands map onto the paper's evaluation axes:

- ``table1``                 print the Table 1 configuration
- ``sprint <benchmark>``     plan + evaluate one workload across schemes
- ``sweep``                  the full PARSEC evaluation (Figs. 7-10 axes), or --
  with ``--levels/--rates/--patterns`` -- a parallel, cached grid sweep over
  injection rate x pattern x sprint level via the :mod:`repro.exec` engine
- ``network``                injection-rate sweep on a sprint region (Fig. 11)
- ``thermal [benchmark]``    heat maps and PCM phases (Figs. 1, 12)
- ``duration``               per-benchmark sprint-duration gains (Sec. 4.4)
- ``report <trace.jsonl>``   span tree, top time sinks and metrics of a
  trace produced with ``sweep --trace`` (``--metrics sweep.prom`` folds
  in a Prometheus sidecar, with estimated histogram quantiles)
- ``compare A B``            statistical diff of two ledger runs
- ``regress --baseline REF`` gate the newest run against a baseline;
  exits 4 on regression (the CI regression observatory)
- ``cache stats``            counters and on-disk footprint of a result cache
- ``backends``               the live simulation-backend capability matrix
- ``worker --queue DIR``     join a ``sweep --fabric DIR`` run as an external
  lease-based worker (spawnable mid-sweep, survives coordinator churn)
- ``fabric audit DIR``       replay a fabric queue's event log and verify the
  no-lost/no-double-counted invariants; ``--json`` emits the machine
  verdict.  Exit codes: 0 invariants hold, 1 violations, 2 no queue
- ``watch QUEUE_DIR``        live dashboard over a running (or finished)
  fabric sweep: ANSI terminal repaint, ``--once``/``--json`` for scripts,
  ``--html PATH`` atomic single-file dashboard, ``--serve [HOST]:PORT``
  Prometheus scrape endpoint.  Exit codes: 0 (running, or complete and
  clean), 3 complete with failures, 2 no queue
- ``serve``                  the experiment-as-a-service HTTP front door
  (:mod:`repro.service`): accepts wire-format spec submissions on
  ``POST /v1/evaluate`` / ``/v1/sweeps``, coalesces identical concurrent
  requests onto one simulation, serves results from the shared cache and
  run ledger, enforces per-client rate limits and simulated-seconds
  budgets, and exposes ``service_*`` metrics on ``/metrics``
- ``submit SPEC.json``       the reference client: POST a spec (or batch)
  to a running ``repro serve`` (``--server URL``) and print the results;
  ``--local`` evaluates in-process through the identical service engine
  for bit-for-bit parity testing
- ``fetch KEY --server URL`` retrieve one result by cache key (exit 3
  while it is still computing); ``--run`` fetches a run-ledger record by
  id prefix instead

``sweep`` handles SIGINT/SIGTERM by draining: in-flight points finish and
are checkpointed, a resume hint is printed, and the exit code is 5.
"""

from __future__ import annotations

import argparse
from typing import Sequence

from repro.cmp.workloads import PARSEC_PROFILES, all_profiles, get_profile
from repro.util.tables import format_table, render_heatmap

# Each command imports what it runs: `repro worker` and grid sweeps never
# load the system facade, the thermal model or the deadlock checker.


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.config import table1_rows

    print(format_table(["parameter", "value", "parameter", "value"], table1_rows(),
                       title="Table 1: system and interconnect configuration"))
    return 0


def _cmd_sprint(args: argparse.Namespace) -> int:
    from repro.core.system import NoCSprintingSystem

    system = NoCSprintingSystem()
    profile = get_profile(args.benchmark)
    rows = []
    for scheme in ("non_sprinting", "full_sprinting", "noc_sprinting"):
        row = system.evaluate(profile, scheme,
                              simulate_network=not args.no_network,
                              thermal=not args.no_thermal)
        rows.append([
            scheme,
            row.level,
            row.speedup,
            row.core_power_w,
            row.network.avg_latency if row.network else float("nan"),
            row.network.total_power_w * 1e3 if row.network else float("nan"),
            row.peak_temperature_k if row.peak_temperature_k else float("nan"),
        ])
    print(format_table(
        ["scheme", "level", "speedup", "core W", "net lat (cyc)", "net mW", "peak K"],
        rows,
        title=f"{profile.name}: sprinting-scheme comparison",
        float_format="{:.2f}",
    ))
    gain = system.sprint_duration_gain(profile)
    print(f"sprint duration gain vs full-sprinting: {100 * (gain - 1):+.1f} %")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # any grid-mode flag routes to the grid sweep; otherwise flags like
    # --resume or --fault would be silently ignored by the legacy summary
    if (args.levels or args.rates or args.patterns or args.fault
            or args.resume or args.cache_dir or args.max_retries
            or args.point_timeout is not None or args.trace
            or args.metrics or args.backend != "reference"
            or args.ledger_dir or args.ledger_label or args.fabric):
        return _cmd_sweep_grid(args)
    from repro.core.system import NoCSprintingSystem

    system = NoCSprintingSystem()
    rows = []
    for profile in all_profiles():
        full = system.evaluate(profile, "full_sprinting")
        noc = system.evaluate(profile, "noc_sprinting")
        rows.append([
            profile.name,
            noc.level,
            full.speedup,
            noc.speedup,
            full.core_power_w,
            noc.core_power_w,
            system.sprint_duration_gain(profile),
        ])
    print(format_table(
        ["benchmark", "level", "S(full)", "S(noc)", "coreW full", "coreW noc", "dur gain"],
        rows,
        title="PARSEC 2.1 sweep",
        float_format="{:.2f}",
    ))
    n = len(rows)
    print(f"means: S(full)={sum(r[2] for r in rows) / n:.2f} "
          f"S(noc)={sum(r[3] for r in rows) / n:.2f} "
          f"duration gain=+{100 * (sum(r[6] for r in rows) / n - 1):.1f}%")
    return 0


def _parse_fault(text: str):
    """Parse a ``--fault`` value into a :class:`~repro.noc.spec.FaultEvent`.

    Syntax: ``NODE@CYCLE[:DURATION]`` for a router fault or
    ``A-B@CYCLE[:DURATION]`` for a link fault; omitting ``:DURATION``
    makes the fault permanent.
    """
    from repro.noc.spec import FaultEvent

    head, _, rest = text.partition("@")
    if not head or not rest:
        raise ValueError(f"fault must look like NODE@CYCLE[:DURATION]: {text!r}")
    cycle_s, _, duration_s = rest.partition(":")
    cycle = int(cycle_s)
    duration = int(duration_s) if duration_s else None
    if "-" in head:
        a, _, b = head.partition("-")
        return FaultEvent(cycle=cycle, kind="link", link=(int(a), int(b)),
                          duration=duration)
    return FaultEvent(cycle=cycle, kind="router", node=int(head),
                      duration=duration)


def _grid_specs(levels, rates, patterns, seed, warmup, measure, drain,
                faults=(), backend="reference"):
    """Build (and eagerly validate) the spec grid for a sweep command."""
    from repro.config import NoCConfig
    from repro.core.topological import SprintTopology
    from repro.noc.spec import FaultSchedule, SimulationSpec, TrafficSpec

    cfg = NoCConfig()
    schedule = FaultSchedule(events=tuple(faults))
    specs = []
    for level in levels:
        topo = SprintTopology.for_level(cfg.mesh_width, cfg.mesh_height, level)
        routing = "cdor" if level < cfg.node_count else "xy"
        for pattern in patterns:
            for rate in rates:
                spec = SimulationSpec(
                    topology=topo,
                    traffic=TrafficSpec(tuple(topo.active_nodes), rate,
                                        cfg.packet_length_flits, pattern,
                                        seed=seed),
                    config=cfg, routing=routing,
                    warmup_cycles=warmup, measure_cycles=measure,
                    drain_cycles=drain, faults=schedule,
                    backend=backend,
                )
                spec.traffic.build()  # fail fast on pattern/endpoint mismatch
                specs.append(spec)
    return specs


def _resume_hint(args: argparse.Namespace) -> str:
    """The exact command that resumes this sweep from its checkpoint.

    It repeats every flag that defines the specs, the workers or the
    fabric queue and differs from its default, so the resumed run
    computes the same cache keys and adopts the same queue.
    """
    import shlex

    if not args.cache_dir:
        return ("completed points are checkpointed in memory only; re-run "
                "with --cache-dir to make interrupted sweeps resumable")
    defaults = build_parser().parse_args(["sweep"])
    tokens = ["python", "-m", "repro", "sweep"]
    for name in ("levels", "rates", "patterns", "seed", "warmup", "measure",
                 "drain", "backend", "workers", "fabric", "lease_ttl",
                 "quarantine_after"):
        value = getattr(args, name)
        if value != getattr(defaults, name):
            flag = "--" + name.replace("_", "-")
            tokens += ([flag, *map(str, value)] if isinstance(value, list)
                       else [flag, str(value)])
    for fault in args.fault or ():
        tokens += ["--fault", fault]
    tokens += ["--cache-dir", args.cache_dir, "--resume"]
    return "resume with: " + shlex.join(tokens)


def _cmd_sweep_grid(args: argparse.Namespace) -> int:
    """Parallel, cached grid sweep (rate x pattern x level) via repro.exec."""
    from repro.exec import ResultCache, SweepRunner
    from repro.exec.runner import ChaosPlan
    from repro.power import network_power

    levels = args.levels or [4, 8]
    rates = args.rates or [0.05, 0.15, 0.25, 0.35, 0.45]
    patterns = args.patterns or ["uniform"]
    if args.resume and not args.cache_dir:
        print("--resume needs --cache-dir (the checkpoint lives in the cache)")
        return 2
    try:
        ChaosPlan.from_env()  # a malformed chaos recipe runs nothing
        faults = [_parse_fault(text) for text in (args.fault or [])]
        specs = _grid_specs(levels, rates, patterns, args.seed,
                            args.warmup, args.measure, args.drain,
                            faults=faults, backend=args.backend)
    except ValueError as err:
        print(f"invalid sweep grid: {err}")
        return 2
    telemetry = None
    if args.trace or args.metrics:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(sample_interval=args.sample_interval)
    # validate the backend against each point's needs up front, so an
    # incompatible combination fails before any worker launches -- and
    # reports *every* bad point, not just the first, since a partial grid
    # is usually misconfigured in more than one place
    from repro.noc.backends import (
        BackendCapabilityError,
        check_capabilities,
        get_backend,
        resolve_backend,
    )

    problems = []
    for spec in specs:
        try:
            if args.backend == "auto":
                resolve_backend(spec, telemetry=telemetry)
            else:
                check_capabilities(get_backend(args.backend), spec, telemetry)
        except (BackendCapabilityError, ValueError) as err:
            problems.append(
                f"level={spec.topology.level} pattern={spec.traffic.pattern} "
                f"rate={spec.traffic.injection_rate:g}: {err}"
            )
    if problems:
        for line in problems:
            print(f"invalid sweep grid: {line}")
        print(f"invalid sweep grid: {len(problems)} of {len(specs)} points "
              f"incompatible with backend {args.backend!r}")
        return 2
    from repro.telemetry import Ledger

    fabric_config = None
    if args.fabric:
        from repro.exec import FabricConfig

        knobs = {"lease_ttl_s": args.lease_ttl,
                 "quarantine_after": args.quarantine_after}
        try:
            fabric_config = FabricConfig(
                queue_dir=args.fabric, workers=args.workers,
                **{name: value for name, value in knobs.items()
                   if value is not None})
        except ValueError as err:
            print(f"invalid sweep grid: {err}")
            return 2
    # the live progress line (rate + ETA off the watch estimator); only
    # when stderr is an interactive terminal, so scripted runs and CI
    # greps see byte-identical output
    import sys as _sys

    progress_line = None
    if _sys.stderr.isatty():
        from repro.telemetry.live import ProgressLine

        progress_line = ProgressLine(total=len(specs))
    try:
        runner = SweepRunner(workers=args.workers,
                             cache=ResultCache(directory=args.cache_dir),
                             progress=progress_line,
                             max_retries=args.max_retries,
                             point_timeout=args.point_timeout,
                             telemetry=telemetry,
                             ledger=Ledger(directory=args.ledger_dir),
                             ledger_label=args.ledger_label,
                             fabric=fabric_config)
    except ValueError as err:
        print(f"invalid sweep grid: {err}")
        return 2

    # SIGINT/SIGTERM drain gracefully: the first signal stops dispatching
    # and lets in-flight points finish + checkpoint; a second aborts hard
    import signal as _signal

    signal_state = {"count": 0}

    def _drain_handler(signum, frame):
        signal_state["count"] += 1
        if signal_state["count"] == 1:
            print("\ninterrupt: draining in-flight points "
                  "(interrupt again to abort immediately)...", flush=True)
            runner.request_stop()
        else:
            raise KeyboardInterrupt

    previous_handlers = {}
    try:
        for signum in (_signal.SIGINT, _signal.SIGTERM):
            previous_handlers[signum] = _signal.signal(signum, _drain_handler)
    except ValueError:
        previous_handlers = {}  # not the main thread (in-process tests)

    try:
        from repro.exec import QueueError

        try:
            report = runner.run(specs)
            for _ in range(args.repeat - 1):
                if report.interrupted:
                    break
                report = runner.run(specs)
        except QueueError as err:
            print(f"sweep fabric: {err}")
            return 2
        except KeyboardInterrupt:
            print("sweep aborted before the drain completed; points already "
                  "finished are checkpointed")
            print(_resume_hint(args))
            return 5
    finally:
        for signum, handler in previous_handlers.items():
            _signal.signal(signum, handler)
        if progress_line is not None:
            progress_line.finish()
    if telemetry is not None:
        telemetry.save(trace_path=args.trace, metrics_path=args.metrics)
        if args.trace:
            print(f"trace written: {args.trace} (inspect with "
                  f"`repro report {args.trace}`)")
        if args.metrics:
            print(f"metrics written: {args.metrics}")
    degraded = any(point.result.degraded for point in report.points)
    rows = []
    for point in report.points:
        spec = point.spec
        result = point.result
        power = network_power(result, spec.topology, spec.config)
        row = [
            spec.topology.level, spec.traffic.pattern, spec.traffic.injection_rate,
            result.avg_latency, result.p99_latency,
            result.accepted_flits_per_cycle, power.total * 1e3,
            "yes" if result.saturated else "",
            "hit" if point.cached else f"{point.wall_time_s:.2f}s",
        ]
        if degraded:
            row[8:8] = [result.packets_dropped, result.packets_retransmitted,
                        result.min_region_level]
        rows.append(row)
    headers = ["level", "pattern", "inj rate", "avg lat", "p99 lat", "accepted",
               "power mW", "saturated", "sim"]
    if degraded:
        headers[8:8] = ["dropped", "retx", "min lvl"]
    print(format_table(
        headers, rows,
        title="grid sweep (repro.exec engine)",
        float_format="{:.2f}",
    ))
    print(report.summary())
    if report.run_record is not None:
        print(f"run recorded: {report.run_record.run_id} "
              f"(ledger: {runner.ledger.path}; diff with `repro compare`)")
    audit_ok = True
    if args.fabric and report.fabric is not None and not report.interrupted:
        from repro.exec import QueueError, audit_queue

        try:
            audit = audit_queue(args.fabric, expect_complete=report.ok)
        except QueueError as err:
            print(f"fabric audit: {err}")
            audit_ok = False
        else:
            print(audit.summary())
            audit_ok = audit.ok
    if report.failures:
        for failure in report.failures:
            print(f"sweep failure: {failure.describe()}")
            for line in failure.history_lines():
                print(f"    {line}")
    if report.interrupted:
        print(_resume_hint(args))
        return 5
    if report.failures:
        return 3
    return 0 if audit_ok else 3


def _cmd_network(args: argparse.Namespace) -> int:
    from repro.exec import SweepRunner
    from repro.power import network_power

    try:
        specs = _grid_specs([args.level], args.rates, [args.pattern],
                            args.seed, 400, 1500, 5000,
                            backend=args.backend)
    except ValueError as err:
        print(f"invalid network sweep: {err}")
        return 2
    try:
        runner = SweepRunner(workers=args.workers)
    except ValueError as err:
        print(f"invalid network sweep: {err}")
        return 2
    report = runner.run(specs)
    rows = []
    for spec, result in zip(specs, report.results):
        power = network_power(result, spec.topology, spec.config)
        rows.append([
            spec.traffic.injection_rate, result.avg_latency, result.p99_latency,
            result.accepted_flits_per_cycle, power.total * 1e3,
            "yes" if result.saturated else "",
        ])
    routing = specs[0].routing
    print(format_table(
        ["inj rate", "avg lat", "p99 lat", "accepted", "power mW", "saturated"],
        rows,
        title=f"{args.level}-node sprint region, {args.pattern} traffic ({routing})",
        float_format="{:.2f}",
    ))
    return 0


def _cmd_thermal(args: argparse.Namespace) -> int:
    from repro.core.floorplanning import thermal_aware_floorplan
    from repro.core.system import NoCSprintingSystem
    from repro.core.topological import SprintTopology
    from repro.power.chip_power import ChipPowerModel
    from repro.thermal.floorplan import sprint_tile_powers
    from repro.thermal.grid import ThermalGrid
    from repro.thermal.pcm import sprint_phases

    system = NoCSprintingSystem()
    profile = get_profile(args.benchmark)
    level = system.scheme_level(profile, "noc_sprinting")
    grid = ThermalGrid(4, 4, 4)
    chip = ChipPowerModel(16)
    scenarios = [
        ("full-sprinting", sprint_tile_powers(SprintTopology.for_level(4, 4, 16), chip)),
        (f"NoC-sprinting (level {level})",
         sprint_tile_powers(SprintTopology.for_level(4, 4, level), chip)),
        ("NoC-sprinting + floorplan",
         sprint_tile_powers(SprintTopology.for_level(4, 4, level), chip,
                            thermal_aware_floorplan(4, 4))),
    ]
    for name, powers in scenarios:
        print(f"--- {name}: {sum(powers):.1f} W, peak {grid.peak_temperature(powers):.2f} K ---")
        print(render_heatmap(grid.tile_temperatures(powers)))
        print()
        phases = sprint_phases(sum(powers))
        if phases.total_s == float("inf"):
            print("    below sustainable TDP: thermally unconstrained\n")
        else:
            print(f"    sprint phases: {phases.heat_to_melt_s * 1e3:.0f} / "
                  f"{phases.melting_s * 1e3:.0f} / {phases.melt_to_max_s * 1e3:.0f} ms "
                  f"(total {phases.total_s:.2f} s)\n")
    return 0


def _cmd_duration(args: argparse.Namespace) -> int:
    from repro.core.system import NoCSprintingSystem

    system = NoCSprintingSystem()
    rows = []
    for profile in all_profiles():
        gain = system.sprint_duration_gain(profile)
        rows.append([profile.name,
                     system.scheme_level(profile, "noc_sprinting"),
                     gain])
    mean = sum(r[2] for r in rows) / len(rows)
    print(format_table(["benchmark", "level", "duration gain"], rows,
                       title="Sprint-duration gains (Section 4.4)"))
    print(f"mean: +{100 * (mean - 1):.1f} % (paper +55.4 %)")
    return 0


def _backend_names() -> list[str]:
    from repro.noc.backends import list_backends

    # "auto" is a selection policy, not a registered engine: the fastest
    # backend whose capabilities cover each run (see resolve_backend)
    return ["auto", *list_backends()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NoC-Sprinting (DAC 2014) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table 1 configuration")

    sprint = sub.add_parser("sprint", help="evaluate one workload across schemes")
    sprint.add_argument("benchmark", choices=sorted(PARSEC_PROFILES))
    sprint.add_argument("--no-network", action="store_true",
                        help="skip the cycle simulation")
    sprint.add_argument("--no-thermal", action="store_true",
                        help="skip the thermal grid solve")

    sweep = sub.add_parser(
        "sweep",
        help="PARSEC evaluation summary; with --levels/--rates/--patterns, "
             "a parallel cached grid sweep",
    )
    sweep.add_argument("--levels", type=int, nargs="+",
                       help="sprint levels to sweep (grid mode)")
    sweep.add_argument("--rates", type=float, nargs="+",
                       help="injection rates in flits/cycle/node (grid mode)")
    sweep.add_argument("--patterns", nargs="+",
                       choices=["uniform", "neighbor", "bit_complement",
                                "tornado", "transpose", "shuffle", "hotspot"],
                       help="traffic patterns (grid mode)")
    sweep.add_argument("--workers", type=int, default=1,
                       help="simulation worker processes (results identical "
                            "to --workers 1, which runs in-process: C-kernel "
                            "points on one thread per CPU)")
    sweep.add_argument("--cache-dir", default=None,
                       help="persist simulation results on disk for reuse "
                            "across invocations")
    sweep.add_argument("--repeat", type=int, default=1,
                       help="run the sweep N times (repeats are cache hits)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--warmup", type=int, default=300)
    sweep.add_argument("--measure", type=int, default=1000)
    sweep.add_argument("--drain", type=int, default=4000)
    sweep.add_argument("--max-retries", type=int, default=0,
                       help="re-attempts per failing point, made at once "
                            "(--fabric counts --quarantine-after instead)")
    sweep.add_argument("--point-timeout", type=float, default=None,
                       help="seconds a local worker may hold one point "
                            "before it is killed and the point retried "
                            "(parallel sweeps, --fabric included)")
    sweep.add_argument("--resume", action="store_true",
                       help="continue an interrupted sweep from the "
                            "checkpoint in --cache-dir")
    sweep.add_argument("--fault", action="append", metavar="F",
                       help="inject a NoC fault into every point: "
                            "NODE@CYCLE[:DURATION] (router) or "
                            "A-B@CYCLE[:DURATION] (link); repeatable")
    sweep.add_argument("--trace", default=None, metavar="PATH",
                       help="write a JSONL span trace of the sweep "
                            "(view with `repro report PATH`)")
    sweep.add_argument("--metrics", default=None, metavar="PATH",
                       help="write the sweep metrics as Prometheus text")
    sweep.add_argument("--sample-interval", type=int, default=200,
                       metavar="CYCLES",
                       help="in-simulation sampling period for --trace "
                            "(per-router flits, occupancy; 0 disables)")
    sweep.add_argument("--backend", default="reference",
                       choices=_backend_names(),
                       help="simulation engine for every point (grid mode; "
                            "'vectorized' is the fast path, 'auto' picks "
                            "the fastest engine covering each point)")
    sweep.add_argument("--ledger-dir", default=None, metavar="DIR",
                       help="run-ledger directory (grid mode; default "
                            ".repro/ledger or $REPRO_LEDGER_DIR; "
                            "REPRO_LEDGER=0 disables recording)")
    sweep.add_argument("--ledger-label", default=None, metavar="NAME",
                       help="label the recorded run (e.g. 'nightly') so "
                            "`repro regress --baseline NAME` can find it")
    sweep.add_argument("--fabric", default=None, metavar="QUEUE_DIR",
                       help="run through the lease-based work-queue fabric: "
                            "--workers local worker processes (0 = external "
                            "only) plus any `repro worker --queue QUEUE_DIR` "
                            "joined from elsewhere; survives worker churn")
    # None: FabricConfig's default
    sweep.add_argument("--lease-ttl", type=float, default=None,
                       metavar="SECONDS",
                       help="fabric lease lifetime; a worker that stops "
                            "heartbeating for this long forfeits its point "
                            "(default 10)")
    sweep.add_argument("--quarantine-after", type=int, default=None,
                       metavar="N",
                       help="quarantine a point after N failed fabric "
                            "attempts on it: errors and expired leases, "
                            "on any worker (default 3)")

    worker = sub.add_parser(
        "worker",
        help="join a `sweep --fabric` run as an external lease-based worker "
             "(start any number, any time; SIGINT/SIGTERM drain gracefully)",
    )
    worker.add_argument("--queue", required=True, metavar="DIR",
                        help="the queue directory passed to `sweep --fabric`")
    worker.add_argument("--id", default=None, metavar="NAME",
                        help="worker name in events and logs (default: "
                             "w<pid>)")
    worker.add_argument("--poll", type=float, default=0.05, metavar="SECONDS",
                        help="idle scan period while every point is leased")
    worker.add_argument("--wait", type=float, default=10.0, metavar="SECONDS",
                        help="how long to wait for the queue to be seeded "
                             "before giving up (exit 2)")

    fabric = sub.add_parser(
        "fabric",
        help="inspect a fabric queue (`fabric audit DIR` replays the event "
             "log and verifies the no-lost/no-double-counted invariants; "
             "exits 0 when they hold, 1 on violations, 2 when DIR is not "
             "a queue)",
    )
    fabric.add_argument("action", choices=["audit"])
    fabric.add_argument("queue", metavar="QUEUE_DIR")
    fabric.add_argument("--json", action="store_true",
                        help="emit the audit verdict as one JSON document "
                             "(same exit codes)")

    watch = sub.add_parser(
        "watch",
        help="live dashboard over a fabric queue: progress, per-worker and "
             "per-shard rates, lease health, ETA; exits 0 while running or "
             "when complete and clean, 3 when complete with failures, 2 "
             "when QUEUE_DIR never becomes a queue",
    )
    watch.add_argument("queue", metavar="QUEUE_DIR",
                       help="the directory passed to `sweep --fabric`")
    watch.add_argument("--once", action="store_true",
                       help="render one snapshot and exit (for scripts/CI)")
    watch.add_argument("--json", action="store_true",
                       help="emit snapshots as JSON documents (one per "
                            "refresh; one total with --once)")
    watch.add_argument("--interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="refresh period of the live dashboard "
                            "(default 1.0)")
    watch.add_argument("--html", default=None, metavar="PATH",
                       help="write a self-refreshing HTML dashboard "
                            "atomically on every refresh (default: "
                            "QUEUE_DIR/dashboard.html when following, "
                            "off with --once)")
    watch.add_argument("--serve", default=None, metavar="[HOST]:PORT",
                       help="also serve the view as a Prometheus /metrics "
                            "endpoint while watching")
    watch.add_argument("--wait", type=float, default=10.0, metavar="SECONDS",
                       help="how long to wait for the queue to appear "
                            "before giving up (exit 2)")

    serve = sub.add_parser(
        "serve",
        help="run the experiment-as-a-service HTTP API: wire-format spec "
             "submission, request coalescing, per-client rate limits and "
             "simulated-seconds budgets, /metrics exposition",
    )
    serve.add_argument("--listen", default="127.0.0.1:8451",
                       metavar="[HOST]:PORT",
                       help="bind address (default 127.0.0.1:8451; port 0 "
                            "picks an ephemeral port and prints it)")
    serve.add_argument("--workers", type=int, default=1,
                       help="simulation worker processes per batch")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persist results on disk (shared with `repro "
                            "sweep --cache-dir` -- submissions of already "
                            "swept specs are cache hits)")
    serve.add_argument("--ledger-dir", default=None, metavar="DIR",
                       help="run-ledger directory (default .repro/ledger or "
                            "$REPRO_LEDGER_DIR)")
    serve.add_argument("--rate", type=float, default=50.0, metavar="PER_S",
                       help="per-client token-bucket refill rate, specs/s "
                            "(default 50)")
    serve.add_argument("--burst", type=float, default=200.0, metavar="N",
                       help="per-client token-bucket capacity (default 200)")
    serve.add_argument("--budget", type=float, default=None,
                       metavar="SECONDS",
                       help="per-client simulated-seconds budget; once a "
                            "client's completed simulations exceed it, "
                            "submissions are refused 402 (default: "
                            "unlimited)")

    submit = sub.add_parser(
        "submit",
        help="submit a wire-format spec file (one document or a batch) to "
             "a running `repro serve` -- or, with --local, evaluate it "
             "in-process through the identical service engine",
    )
    submit.add_argument("spec", metavar="SPEC.json",
                        help="a spec_to_wire() document, a JSON list of "
                             "them, or {\"specs\": [...]}")
    submit.add_argument("--server", default=None, metavar="URL",
                        help="base URL of a running `repro serve`")
    submit.add_argument("--local", action="store_true",
                        help="short-circuit in-process (no server) for "
                             "parity testing")
    submit.add_argument("--client", default="cli", metavar="NAME",
                        help="client identity sent as X-Repro-Client")
    submit.add_argument("--wait", type=float, default=300.0,
                        metavar="SECONDS",
                        help="how long to wait for results before exiting "
                             "3 (still running)")
    submit.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache directory (--local mode)")
    submit.add_argument("--workers", type=int, default=1,
                        help="worker processes (--local mode)")

    fetch = sub.add_parser(
        "fetch",
        help="retrieve one result by cache key from a running `repro "
             "serve` (exit 0 done, 3 still computing, 1 unknown)",
    )
    fetch.add_argument("key", metavar="KEY",
                       help="a spec cache key (or run id with --run)")
    fetch.add_argument("--server", required=True, metavar="URL",
                       help="base URL of a running `repro serve`")
    fetch.add_argument("--run", action="store_true",
                       help="fetch a run-ledger record by id/prefix "
                            "instead of a result")

    network = sub.add_parser("network", help="injection sweep on a sprint region")
    network.add_argument("--level", type=int, default=4)
    network.add_argument("--pattern", default="uniform",
                         choices=["uniform", "neighbor", "bit_complement",
                                  "tornado", "transpose", "hotspot"])
    network.add_argument("--rates", type=float, nargs="+",
                         default=[0.05, 0.15, 0.25, 0.35, 0.5])
    network.add_argument("--seed", type=int, default=0)
    network.add_argument("--workers", type=int, default=1)
    network.add_argument("--backend", default="reference",
                         choices=_backend_names(),
                         help="simulation engine for every point ('auto' "
                              "picks the fastest capable engine)")

    thermal = sub.add_parser("thermal", help="heat maps and PCM phases")
    thermal.add_argument("benchmark", nargs="?", default="dedup",
                         choices=sorted(PARSEC_PROFILES))

    sub.add_parser("duration", help="sprint-duration gains per benchmark")

    report = sub.add_parser(
        "report", help="summarize a telemetry trace (span tree, time sinks, "
                       "metrics)"
    )
    report.add_argument("trace", help="JSONL trace from `repro sweep --trace`")
    report.add_argument("--top", type=int, default=10,
                        help="number of time sinks to list")
    report.add_argument("--metrics", default=None, metavar="PATH",
                        help="Prometheus sidecar from `repro sweep --metrics`; "
                             "replaces the trace's embedded snapshot and adds "
                             "estimated histogram p50/p95/p99")

    def _add_ledger_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ledger-dir", default=None, metavar="DIR",
                       help="ledger directory (default .repro/ledger, or "
                            "$REPRO_LEDGER_DIR)")

    compare = sub.add_parser(
        "compare", help="statistical diff of two ledger runs (per-point "
                        "headline deltas, direction-aware thresholds)"
    )
    compare.add_argument("run_a", help="baseline: run id / id prefix / label "
                                       "/ 'latest'")
    compare.add_argument("run_b", help="candidate: run id / id prefix / label "
                                       "/ 'latest'")
    _add_ledger_args(compare)
    compare.add_argument("--rel-threshold", type=float, default=None,
                         metavar="FRAC",
                         help="override every metric's relative threshold")
    compare.add_argument("--json", action="store_true",
                         help="emit the comparison as one JSON document")
    compare.add_argument("--html", default=None, metavar="PATH",
                         help="also write a self-contained HTML drill-down")

    regress = sub.add_parser(
        "regress", help="gate the newest run against a baseline: exit 4 on "
                        "regression, 0 when clean"
    )
    regress.add_argument("--baseline", required=True, metavar="REF",
                         help="baseline run id / id prefix / label / 'latest'")
    regress.add_argument("--candidate", default="latest", metavar="REF",
                         help="candidate run (default: latest)")
    _add_ledger_args(regress)
    regress.add_argument("--rel-threshold", type=float, default=None,
                         metavar="FRAC",
                         help="override every metric's relative threshold")
    regress.add_argument("--json", action="store_true",
                         help="emit the comparison as one JSON document")
    regress.add_argument("--html", default=None, metavar="PATH",
                         help="also write a self-contained HTML drill-down")

    cache = sub.add_parser(
        "cache", help="inspect a result cache (`cache stats`)"
    )
    cache.add_argument("action", choices=["stats"],
                       help="'stats': hit/miss/byte counters and on-disk "
                            "footprint")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="on-disk cache directory (as passed to "
                            "`sweep --cache-dir`)")

    sub.add_parser(
        "backends",
        help="list registered simulation backends, their capabilities and "
             "native-kernel availability",
    )

    figure = sub.add_parser(
        "figure", help="regenerate a paper figure via its benchmark harness"
    )
    figure.add_argument(
        "figure_id",
        help="e.g. fig07, fig11, table1, ablation_routing, extension_dvfs, llc",
    )
    return parser


def _cmd_report(args: argparse.Namespace) -> int:
    """Render the span tree / time sinks / metrics of a saved trace."""
    import os

    from repro.telemetry.report import render_report

    if not os.path.exists(args.trace):
        print(f"no such trace file: {args.trace}")
        return 2
    if args.metrics and not os.path.exists(args.metrics):
        print(f"no such metrics file: {args.metrics}")
        return 2
    try:
        print(render_report(args.trace, sink_limit=args.top,
                            metrics_path=args.metrics))
    except ValueError as err:
        print(f"unreadable trace: {err}")
        return 2
    return 0


def _resolve_run(ledger, ref: str):
    """Resolve a run reference or print why it could not be found."""
    record = ledger.baseline(ref)
    if record is None:
        print(f"no ledger run matches {ref!r} under {ledger.path} "
              f"(run `repro sweep --levels ...` to record one)")
    return record


def _selftest_skew(record):
    """Inflate every latency metric by 10% (``REPRO_REGRESS_SELFTEST=1``).

    Lets CI prove the gate trips without a real regression: +10% meets the
    default ``avg_latency`` policy (rel 0.10) exactly.
    """
    import dataclasses

    def skew(metrics: dict) -> dict:
        return {name: value * 1.10 if "latency" in name else value
                for name, value in metrics.items()}

    return dataclasses.replace(
        record,
        headline=skew(record.headline),
        points={key: skew(metrics) for key, metrics in record.points.items()},
    )


def _render_comparison(comparison, args) -> None:
    from repro.telemetry.compare import render_html, render_json, render_terminal

    if args.html:
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(render_html(comparison))
    print(render_json(comparison) if args.json else render_terminal(comparison))
    if args.html:
        print(f"html drill-down written: {args.html}")


def _cmd_compare(args: argparse.Namespace) -> int:
    """Diff two ledger runs; exit 0 either way (``regress`` is the gate)."""
    from repro.telemetry import Ledger, compare_runs

    ledger = Ledger(directory=args.ledger_dir)
    baseline = _resolve_run(ledger, args.run_a)
    candidate = _resolve_run(ledger, args.run_b) if baseline is not None else None
    if baseline is None or candidate is None:
        return 2
    comparison = compare_runs(baseline, candidate,
                              rel_threshold=args.rel_threshold)
    _render_comparison(comparison, args)
    return 0


def _cmd_regress(args: argparse.Namespace) -> int:
    """Compare candidate vs baseline and exit 4 when anything regressed."""
    import os

    from repro.telemetry import Ledger, compare_runs

    ledger = Ledger(directory=args.ledger_dir)
    baseline = _resolve_run(ledger, args.baseline)
    candidate = _resolve_run(ledger, args.candidate) if baseline is not None else None
    if baseline is None or candidate is None:
        return 2
    if os.environ.get("REPRO_REGRESS_SELFTEST", "").strip() == "1":
        candidate = _selftest_skew(candidate)
    comparison = compare_runs(baseline, candidate,
                              rel_threshold=args.rel_threshold)
    _render_comparison(comparison, args)
    return 4 if comparison.regressed else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """``cache stats``: counters plus the on-disk footprint of a cache dir."""
    import os

    from repro.exec import ResultCache

    cache = ResultCache(directory=args.cache_dir)
    stats = cache.stats()
    rows = [[name, getattr(stats, name)]
            for name in ("hits", "misses", "stores", "memory_hits",
                         "disk_hits", "corrupt", "bytes_read", "bytes_written")]
    rows.append(["lookups", stats.lookups])
    rows.append(["hit_rate", f"{stats.hit_rate:.3f}"])
    if args.cache_dir:
        entries, size = 0, 0
        if os.path.isdir(args.cache_dir):
            with os.scandir(args.cache_dir) as it:
                for entry in it:
                    if entry.is_file() and entry.name.endswith(".pkl"):
                        entries += 1
                        size += entry.stat().st_size
        rows.append(["disk_entries", entries])
        rows.append(["disk_bytes", size])
    title = (f"result cache: {args.cache_dir}" if args.cache_dir
             else "result cache: (memory only, this process)")
    print(format_table(["counter", "value"], rows, title=title))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one fabric worker until the queue drains (or we are told to)."""
    from repro.exec import worker_main

    return worker_main(args.queue, worker_id=args.id,
                       poll_s=args.poll, wait_s=args.wait)


def _cmd_fabric(args: argparse.Namespace) -> int:
    """``fabric audit``: verify a queue's invariants from its event log."""
    import json

    from repro.exec import QueueError, audit_queue

    try:
        audit = audit_queue(args.queue)
    except QueueError as err:
        if args.json:
            print(json.dumps({"ok": False, "error": str(err)},
                             sort_keys=True))
        else:
            print(f"fabric audit: {err}")
        return 2
    if args.json:
        print(json.dumps(audit.to_dict(), sort_keys=True))
    else:
        print(audit.summary())
    return 0 if audit.ok else 1


def _cmd_watch(args: argparse.Namespace) -> int:
    """``watch``: live dashboard over a fabric queue."""
    import json
    import os
    import sys
    import time

    from repro.exec import QueueError
    from repro.telemetry.live import (
        LiveMetricsExporter,
        MetricsServer,
        QueueWatcher,
        parse_serve_address,
        render_html,
        render_terminal,
        write_html_atomic,
    )

    interval = max(0.05, float(args.interval))
    watcher = QueueWatcher(args.queue)

    # Wait (bounded) for the coordinator to seed the queue, so
    # `repro watch` can be started before/alongside the sweep.
    deadline = time.monotonic() + max(0.0, float(args.wait))
    view = None
    while True:
        try:
            view = watcher.refresh()
            break
        except QueueError as err:
            if time.monotonic() >= deadline:
                print(f"watch: {err}", file=sys.stderr)
                return 2
            time.sleep(min(0.2, interval))

    server = None
    exporter = None
    if args.serve is not None:
        host, port = parse_serve_address(args.serve)
        exporter = LiveMetricsExporter()
        server = MetricsServer(exporter.render, host=host, port=port).start()
        print(f"watch: serving Prometheus metrics on "
              f"http://{server.address}/metrics", file=sys.stderr)

    html_path = args.html
    if html_path is None and not args.once:
        html_path = os.path.join(args.queue, "dashboard.html")

    interactive = (not args.once and not args.json
                   and sys.stdout.isatty())
    try:
        while True:
            if exporter is not None:
                exporter.update(view)
            if html_path:
                write_html_atomic(
                    html_path,
                    render_html(view, refresh_s=max(1.0, interval)),
                )
            if args.json:
                print(json.dumps(view.to_dict(), sort_keys=True), flush=True)
            elif interactive:
                sys.stdout.write("\x1b[H\x1b[J" + render_terminal(view))
                sys.stdout.flush()
            else:
                print(render_terminal(view, color=False), flush=True)
            if args.once or view.complete:
                break
            time.sleep(interval)
            try:
                view = watcher.refresh()
            except QueueError as err:  # queue deleted mid-watch
                print(f"watch: {err}", file=sys.stderr)
                return 2
    except KeyboardInterrupt:
        pass
    finally:
        if server is not None:
            server.stop()
        if interactive:
            sys.stdout.write("\n")
    return 3 if (view.complete and view.failed) else 0


def _cmd_backends(args: argparse.Namespace) -> int:
    """Print the live capability matrix of the registered backends."""
    from repro.noc.backends import get_backend, list_backends
    from repro.noc.backends import native

    rows = []
    for name in list_backends():
        backend = get_backend(name)
        caps = ", ".join(sorted(getattr(backend, "capabilities", frozenset())))
        kernel = "-"
        if name == "vectorized":
            kernel = ("available" if native.available()
                      else "unavailable (runs on reference)")
        rows.append([name, getattr(backend, "speed_rank", 0), caps, kernel])
    print(format_table(
        ["backend", "speed rank", "capabilities", "native kernel"],
        rows,
        title="registered simulation backends",
    ))
    print("backend='auto' (spec, run_simulation, sweep --backend) picks the "
          "highest-ranked engine whose capabilities cover the run; see "
          "repro.noc.backends.required_capabilities / supports")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    """Run a figure's benchmark file through pytest and show its tables."""
    import glob
    import os

    import pytest

    bench_dir = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")
    bench_dir = os.path.normpath(bench_dir)
    if not os.path.isdir(bench_dir):
        print("benchmarks/ directory not found; run from a source checkout")
        return 2
    matches = sorted(glob.glob(os.path.join(bench_dir, f"bench_*{args.figure_id}*.py")))
    if not matches:
        available = sorted(
            os.path.basename(p)[len("bench_"):-len(".py")]
            for p in glob.glob(os.path.join(bench_dir, "bench_*.py"))
        )
        print(f"no bench matches {args.figure_id!r}; available: {', '.join(available)}")
        return 2
    return pytest.main(matches + ["--benchmark-only", "-s", "-q",
                                  "--benchmark-disable-gc", "--benchmark-quiet"])


def _service_request(url: str, data: bytes | None = None,
                     client: str | None = None,
                     timeout: float = 300.0) -> tuple[int, dict]:
    """One JSON round trip to a `repro serve` endpoint (stdlib urllib).

    HTTP error statuses are returned, not raised, so callers can print
    the structured error payload the service sends with them.
    """
    import json as _json
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json"}
    if client:
        headers["X-Repro-Client"] = client
    request = urllib.request.Request(url, data=data, headers=headers)
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.getcode(), _json.load(response)
    except urllib.error.HTTPError as err:
        try:
            body = err.read().decode("utf-8", "replace")
        finally:
            err.close()
        try:
            return err.code, _json.loads(body)
        except ValueError:
            return err.code, {"error": {"type": "http", "message": body,
                                        "missing": [], "alternatives": []}}


def _load_wire_documents(path: str) -> list:
    """SPEC.json -> a list of wire documents (singletons stay a batch of 1)."""
    import json as _json

    with open(path, encoding="utf-8") as handle:
        payload = _json.load(handle)
    if isinstance(payload, dict) and isinstance(payload.get("specs"), list):
        return payload["specs"]
    if isinstance(payload, list):
        return payload
    return [payload]


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.exec.cache import ResultCache
    from repro.service import ClientAccounts, ExperimentServer, ExperimentService
    from repro.telemetry.ledger import Ledger
    from repro.telemetry.live import parse_serve_address

    host, port = parse_serve_address(args.listen)
    service = ExperimentService(
        cache=ResultCache(directory=args.cache_dir),
        workers=args.workers,
        accounts=ClientAccounts(rate_per_s=args.rate, burst=args.burst,
                                budget_simulated_s=args.budget),
        ledger=Ledger(directory=args.ledger_dir),
    )
    server = ExperimentServer(service, host=host, port=port).start()
    print(f"repro service listening on http://{server.address}", flush=True)
    print("endpoints: POST /v1/evaluate, POST /v1/sweeps, "
          "GET /v1/results/KEY, GET /v1/runs/ID, GET /metrics", flush=True)
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        print("draining...", flush=True)
        server.stop()
    return 0


def _submit_local(args: argparse.Namespace, documents: list) -> int:
    import json as _json

    from repro.exec.cache import ResultCache
    from repro.service import ExperimentService

    service = ExperimentService(cache=ResultCache(directory=args.cache_dir),
                                workers=args.workers)
    try:
        ticket = service.submit(documents, client=args.client)
        results = {}
        failed = {}
        for key in dict.fromkeys(ticket.keys):
            value = service.wait(key, timeout_s=args.wait)
            if value is not None:
                results[key] = value.to_wire()
            else:
                failed[key] = service.error(key) or service.status(key)
        doc = ticket.to_dict()
        doc.update({"results": results, "complete": not failed})
        if failed:
            doc["errors"] = failed
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return 1 if failed else 0
    finally:
        service.close()


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json
    import time as _time

    documents = _load_wire_documents(args.spec)
    if args.local:
        return _submit_local(args, documents)
    if not args.server:
        print("repro submit needs --server URL (or --local)")
        return 2
    base = args.server.rstrip("/")
    if len(documents) == 1:
        body = _json.dumps({"spec": documents[0], "wait_s": args.wait})
        status, doc = _service_request(base + "/v1/evaluate",
                                       data=body.encode("utf-8"),
                                       client=args.client,
                                       timeout=args.wait + 30.0)
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return 0 if status == 200 else 3 if status == 202 else 1
    body = _json.dumps({"specs": documents})
    status, doc = _service_request(base + "/v1/sweeps",
                                   data=body.encode("utf-8"),
                                   client=args.client)
    if status != 202:
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return 1
    sweep_id = doc["sweep_id"]
    deadline = _time.monotonic() + args.wait
    while True:
        status, doc = _service_request(f"{base}/v1/sweeps/{sweep_id}",
                                       client=args.client)
        if status != 200:
            print(_json.dumps(doc, indent=2, sort_keys=True))
            return 1
        if doc.get("complete"):
            print(_json.dumps(doc, indent=2, sort_keys=True))
            return 1 if doc.get("failed") else 0
        if _time.monotonic() >= deadline:
            print(_json.dumps(doc, indent=2, sort_keys=True))
            return 3
        _time.sleep(0.2)


def _cmd_fetch(args: argparse.Namespace) -> int:
    import json as _json

    base = args.server.rstrip("/")
    path = f"/v1/runs/{args.key}" if args.run else f"/v1/results/{args.key}"
    status, doc = _service_request(base + path)
    print(_json.dumps(doc, indent=2, sort_keys=True))
    if status == 200:
        return 0
    if status == 202:
        return 3
    return 1


_HANDLERS = {
    "table1": _cmd_table1,
    "sprint": _cmd_sprint,
    "sweep": _cmd_sweep,
    "network": _cmd_network,
    "thermal": _cmd_thermal,
    "duration": _cmd_duration,
    "report": _cmd_report,
    "compare": _cmd_compare,
    "regress": _cmd_regress,
    "cache": _cmd_cache,
    "backends": _cmd_backends,
    "worker": _cmd_worker,
    "fabric": _cmd_fabric,
    "watch": _cmd_watch,
    "figure": _cmd_figure,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "fetch": _cmd_fetch,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
