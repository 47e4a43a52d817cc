"""The benchmark's workloads: inputs, timed phases, traced passes, checks.

``fig9-serial``
    The paper's Figure 9 grid (12 PARSEC profiles x {noc_sprinting,
    full_sprinting}) repeated over traffic seeds on the serial runner.
    Unsaturated ~10 ms points whose cost is mostly Python traffic
    generation: shows traffic and driver changes.  Its traced run also puts
    the same points through the 2-worker pool and the fabric.
``saturation-serial``
    Rate sweeps across saturation (4x4 and 8x8 meshes, uniform, tornado
    and hotspot) on the serial runner.  The kernel's largest share, horizon
    re-runs, and no pool: the control a dispatch change must not move.
``serve-mixed``
    A closed-loop HTTP client against the ``repro serve`` stack,
    in-process, 60 % new small specs and 40 % repeats.  The only workload
    where wire decode, cache claims, fsync'd writes and ledger appends
    dominate the kernel.

A *request* is what a user waits on: one ``SweepRunner.run`` call on the
sweep workloads (the fig-9 grid at one traffic seed; one rate sweep of the
saturation grid), one ``POST /v1/evaluate`` on the service.  Every traffic
seed and request is derived from the workload seed alone.  Timed requests
run one at a time, each followed by a :class:`HostSpeed` reading.
"""

from __future__ import annotations

import dataclasses
import hashlib
import http.client
import json
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.exec import ResultCache, SweepRunner
from repro.exec.fabric import FabricConfig
from repro.noc.backends import native
from repro.noc.sim import simulate
from repro.noc.spec import SimulationSpec, TrafficSpec
from repro.service.budget import ClientAccounts
from repro.service.core import ExperimentService
from repro.service.http import CLIENT_HEADER, ExperimentServer
from repro.telemetry import Telemetry

from benchmarks.bench_fig09_network_latency import paired_specs
from layers import LayerTrace, durations, self_times

SETUP_REPEATS = 3
REFERENCE_SAMPLE = 3  # points re-simulated on the reference engine per run
TRACE_MARGIN = 0.05   # layer self times + other must sum to the wall within this
TRACE_ROUNDS = 2      # untraced/traced pass pairs in a traced sweep run

CALIBRATION_LOOPS = 3        # calibration loops per reading; the median is kept
CALIBRATION_DRAWS = 150      # small-array draws per calibration loop
CALIBRATION_REFERENCE_S = 0.75e-3  # one calibration loop, quiet 2-core VM

FIG9_SEEDS_PER_REQUEST = 1  # 24 points per request
FIG9_WARMUP_REQUESTS = 2
FIG9_TRACE_REQUESTS = 8   # 192 points per traced or untraced pass
PATH_WORKERS = 2  # pool and fabric workers in the traced path comparison

SAT_MESHES = (
    (4, (8, 12, 16), (0.2, 0.3, 0.4, 0.5, 0.6)),
    (8, (32, 64), (0.1, 0.2, 0.3, 0.4)),
)
SAT_PATTERNS = ("uniform", "tornado", "hotspot")
SAT_WINDOWS = dict(warmup_cycles=300, measure_cycles=1000, drain_cycles=5000)
SAT_WARMUP_REQUESTS = 3
TELEMETRY_INTERVAL = 200  # what `repro sweep --trace` samples at

CLIENT_NAME = "perfbench"
SERVE_CONFIG = NoCConfig()
SERVE_WINDOWS = dict(warmup_cycles=200, measure_cycles=600, drain_cycles=2000)
SERVE_PATTERNS = ("uniform", "hotspot")
SERVE_RATES = (0.05, 0.1, 0.15, 0.2)
# not 0.5: cache hits and new specs are two separate latency modes, and
# a median that sat between them would flip with the draw
SERVE_REPEAT_SHARE = 0.4
SERVE_WARMUP_REQUESTS = 40
SERVE_TRACE_REQUESTS = 300
SEED_RANGE = 1_000_000       # traffic seeds one phase may draw
REQUEST_TIMEOUT_S = 30.0
SERVICE_COUNTERS = ("service_simulations_total", "service_cache_served_total",
                    "service_coalesced_total")


def traffic_seeds(seed: int, salt: str):
    """An endless deterministic stream of traffic seeds."""
    rng = random.Random(f"{salt}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


def quantile(values, q: float) -> float:
    """Inclusive quantile (q in (0, 1)) of a non-empty sample."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def document_digest(document) -> str:
    """A served result document, reduced to a comparable digest."""
    blob = json.dumps(document, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def same_result(a, b) -> bool:
    """Every result field and activity counter identical."""
    return dataclasses.asdict(a) == dataclasses.asdict(b)


class HostSpeed:
    """How fast the shared host runs right now, against a quiet reference.

    The VM's cores are shared with other tenants: the same code runs up to
    1.6x slower for seconds to minutes at a time, so ten runs of one
    sweep spread by 0.2-0.3 in wall-clock throughput.  A fixed loop of the
    kind of work the simulator does (small NumPy draws and reductions
    driven from Python, none of it program code) is timed after each unit
    of work, and :meth:`scale` turns that unit's wall time into time at
    the reference speed.  On a quiet host the scale is about 1.
    """

    def __init__(self):
        self._rng = np.random.default_rng(0)
        self._last: float | None = None

    def loop_s(self) -> float:
        """Median seconds of one calibration loop, now."""
        times = []
        for _ in range(CALIBRATION_LOOPS):
            start = time.perf_counter()
            total = 0
            for _ in range(CALIBRATION_DRAWS):
                draws = self._rng.random(64)
                total += int((draws < 0.3).sum()) + np.flatnonzero(draws > 0.9).size
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self) -> float:
        """Reference over current speed, for the work since the last call.

        Averages this reading with the previous one, which bracket that
        work; the first call only takes a reading (and returns its scale).
        """
        now = self.loop_s()
        before = now if self._last is None else self._last
        self._last = now
        return CALIBRATION_REFERENCE_S / ((before + now) / 2)


@dataclass
class Phase:
    """What one timed (or traced) phase did.

    Only summaries and a fixed-size point sample are kept, so the process
    (and every pool child forked from it) stays the same size however many
    requests a run completes.
    """

    seed: int = 0
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)  # per completed request, s
    scales: list = field(default_factory=list)  # HostSpeed scale per request
    attempted: int = 0   # points (sweeps) or requests (service)
    failed: int = 0
    points: int = 0      # points simulated
    requests: int = 0    # completed requests
    problems: list = field(default_factory=list)
    run_wall_s: float = 0.0   # summed SweepReport wall times
    run_sim_s: float = 0.0    # summed per-point simulate times
    point_times: list = field(default_factory=list)  # per simulated point, s
    sample: list = field(default_factory=list)  # reservoir of SweepPoints
    offered: int = 0
    records: list = field(default_factory=list)  # service responses
    counters: dict = field(default_factory=dict)  # service counter deltas

    def __post_init__(self):
        self._rng = random.Random(f"reference:{self.seed}")

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def offer(self, point) -> None:
        """Reservoir-sample points for the reference-engine check."""
        self.offered += 1
        if len(self.sample) < REFERENCE_SAMPLE:
            self.sample.append(point)
            return
        slot = self._rng.randrange(self.offered)
        if slot < REFERENCE_SAMPLE:
            self.sample[slot] = point


def scaled_times(phase: Phase) -> list[float]:
    """Each completed request's seconds at the reference host speed."""
    return [t * s for t, s in zip(phase.latencies, phase.scales)]


def scaled_metrics(phase: Phase) -> dict:
    """End-to-end rates and latencies, each request at the reference speed.

    Requests run one at a time, so the rates are over the summed request
    times; the host-speed readings between requests are not counted.
    """
    scaled = scaled_times(phase)
    busy = sum(scaled)
    return {
        "points_per_s": phase.points / busy,
        "requests_per_s": phase.requests / busy,
        "request_p50_ms": quantile(scaled, 0.50) * 1e3,
        "request_p95_ms": quantile(scaled, 0.95) * 1e3,
    }


# ----------------------------------------------------------------------
# sweep workloads
# ----------------------------------------------------------------------
class SweepWorkload:
    """A workload of serial ``SweepRunner.run`` requests, each on a fresh
    cache."""

    def __init__(self, seed: int):
        self.seed = seed

    def pass_requests(self, traffic_seed: int) -> list[list[SimulationSpec]]:
        raise NotImplementedError

    def check_request(self, specs, report, phase: Phase) -> None:
        """Workload-specific result checks (default: none)."""

    def reference_candidate(self, spec: SimulationSpec) -> bool:
        return True

    def warmup(self, seeds) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Nothing outlives a sweep request."""

    def setup(self) -> float:
        """Build the inputs and warm up; returns the seconds it took."""
        start = time.perf_counter()
        self.warmup(traffic_seeds(self.seed, f"{type(self).__name__}-warmup"))
        return time.perf_counter() - start

    def request(self, specs, phase: Phase, **runner_kwargs) -> None:
        runner = SweepRunner(cache=ResultCache(), **runner_kwargs)
        start = time.perf_counter()
        report = runner.run(specs)
        phase.latencies.append(time.perf_counter() - start)
        phase.requests += 1
        phase.attempted += len(specs)
        phase.points += report.simulated
        phase.run_wall_s += report.wall_time_s
        phase.run_sim_s += report.sim_time_s
        for failure in report.failures:
            phase.fail(failure.describe())
        self.check_request(specs, report, phase)
        for point in report.points:
            if not point.cached:
                phase.point_times.append(point.wall_time_s)
                if self.reference_candidate(point.spec):
                    phase.offer(point)

    def timed(self, seconds: float, host: HostSpeed) -> Phase:
        """Whole passes of requests until ``seconds`` have elapsed, each
        request followed by a host-speed reading."""
        phase = Phase(seed=self.seed)
        seeds = traffic_seeds(self.seed, type(self).__name__)
        host.scale()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for specs in self.pass_requests(next(seeds)):
                self.request(specs, phase)
                phase.scales.append(host.scale())
        phase.wall_s = time.perf_counter() - start
        return phase

    end_to_end = staticmethod(scaled_metrics)

    def run_pass(self, requests, host: HostSpeed, trace=None,
                 phase: Phase | None = None, **runner_kwargs) -> Phase:
        """One in-process serial pass over fixed requests.  Each request is
        a root span and is followed by a host-speed reading outside it."""
        phase = phase if phase is not None else Phase(seed=self.seed)
        for specs in requests:
            root = trace.root("sweep") if trace is not None else None
            self.request(specs, phase, **runner_kwargs)
            if root is not None:
                trace.end_root(root)
            phase.scales.append(host.scale())
        return phase

    def alternate(self, requests, host: HostSpeed) -> tuple:
        """Untraced and traced passes over the same requests, alternated
        so a slow stretch of the host lands on both sides."""
        untraced, traced = Phase(seed=self.seed), Phase(seed=self.seed)
        trace = LayerTrace()
        host.scale()
        for _ in range(TRACE_ROUNDS):
            self.run_pass(requests, host, phase=untraced)
            with trace:
                self.run_pass(requests, host, trace=trace, phase=traced)
        return untraced, traced, trace

    def check(self, phase: Phase) -> None:
        """Re-simulate the sampled points on the reference engine."""
        for point in phase.sample:
            reference = simulate(point.spec, backend="reference")
            if not same_result(reference, point.result):
                phase.fail(f"point {point.key[:12]} differs from the reference engine")

    @staticmethod
    def runner_metrics(phase: Phase) -> dict:
        """Runner-level numbers from an untraced phase's SweepReports."""
        times = phase.point_times
        return {
            "runner.overhead_ms_per_point":
                (phase.run_wall_s - phase.run_sim_s) * 1e3 / len(times),
            "runner.busy_ratio": phase.run_sim_s / phase.run_wall_s,
            "runner.point_p50_ms": quantile(times, 0.50) * 1e3,
            "runner.point_p95_ms": quantile(times, 0.95) * 1e3,
        }


def fig9_shape_problems(labels, results) -> list[str]:
    """Fig. 9's claims: NoC-sprinting wins below level 16, by 15-40 %."""
    latency = {
        (profile.name, scheme): result.avg_latency
        for (profile, _, scheme), result in zip(labels, results)
    }
    problems, reductions = [], []
    for profile, level, scheme in labels:
        if scheme != "noc_sprinting":
            continue
        noc = latency[(profile.name, "noc_sprinting")]
        full = latency[(profile.name, "full_sprinting")]
        if level < 16 and not noc < full:
            problems.append(f"fig-9 {profile.name}: NoC-sprinting {noc:.2f} "
                            f">= full-sprinting {full:.2f}")
        reductions.append(100.0 * (1.0 - noc / full))
    mean = sum(reductions) / len(reductions)
    if not 15.0 < mean < 40.0:
        problems.append(f"fig-9 mean latency reduction {mean:.1f} % outside 15-40 %")
    return problems


class Fig9Serial(SweepWorkload):
    def __init__(self, seed: int):
        super().__init__(seed)
        self.labels, self.base = [], []

    def pass_requests(self, traffic_seed):
        return [[spec.with_seed(traffic_seed + offset)
                 for offset in range(FIG9_SEEDS_PER_REQUEST)
                 for spec in self.base]]

    def load_grid(self) -> None:
        labels, specs = paired_specs()
        self.labels = labels
        self.base = [spec.with_backend("auto") for spec in specs]

    def warmup(self, seeds) -> None:
        self.load_grid()
        warm = Phase()
        for _ in range(FIG9_WARMUP_REQUESTS):
            for specs in self.pass_requests(next(seeds)):
                self.request(specs, warm)

    def check_request(self, specs, report, phase):
        if report.failures:
            return  # already counted; the shape needs every point
        grid = len(self.base)
        for start in range(0, len(specs), grid):
            results = report.results[start:start + grid]
            for problem in fig9_shape_problems(self.labels, results):
                phase.fail(problem)

    def paths(self, workdir: str, phase: Phase) -> dict:
        """The same fig-9 points through serial, pool and fabric."""
        seeds = traffic_seeds(self.seed, "fig9-paths")
        specs = self.pass_requests(next(seeds))[0]
        walls, results = {}, {}
        fabric = FabricConfig(queue_dir=os.path.join(workdir, "fabric"),
                              workers=PATH_WORKERS)
        for path, kwargs in (("serial", {"workers": 1}),
                             ("pool", {"workers": PATH_WORKERS}),
                             ("fabric", {"workers": PATH_WORKERS, "fabric": fabric})):
            runner = SweepRunner(cache=ResultCache(), **kwargs)
            start = time.perf_counter()
            report = runner.run(specs)
            walls[f"runner.{path}_s"] = time.perf_counter() - start
            results[path] = report
            phase.attempted += len(specs)
            for failure in report.failures:
                phase.fail(f"{path}: {failure.describe()}")
        for path in ("pool", "fabric"):
            if not all(same_result(a, b) for a, b in
                       zip(results["serial"].results, results[path].results)):
                phase.fail(f"{path} results differ from the serial runner")
        pool = results["pool"]
        walls["runner.pool_busy_ratio"] = pool.sim_time_s / (
            pool.wall_time_s * PATH_WORKERS)
        return walls

    def traced(self, workdir: str) -> tuple:
        seeds = traffic_seeds(self.seed, "fig9-trace")
        requests = [self.pass_requests(next(seeds))[0]
                    for _ in range(FIG9_TRACE_REQUESTS)]
        untraced, traced, trace = self.alternate(requests, HostSpeed())
        extra = self.runner_metrics(untraced)
        extra.update(self.paths(workdir, untraced))
        return untraced, traced, trace, extra


class SaturationSerial(SweepWorkload):
    def pass_requests(self, traffic_seed):
        return saturation_grid(traffic_seed)

    def warmup(self, seeds) -> None:
        warm = Phase()
        for specs in self.pass_requests(next(seeds))[:SAT_WARMUP_REQUESTS]:
            self.request(specs, warm)

    def reference_candidate(self, spec):
        # the reference engine needs seconds for a saturated 8x8 point
        return spec.topology.width == 4

    def traced(self, workdir: str) -> tuple:
        seeds = traffic_seeds(self.seed, "saturation-trace")
        requests = self.pass_requests(next(seeds))
        host = HostSpeed()
        untraced, traced, trace = self.alternate(requests, host)
        extra = self.runner_metrics(untraced)
        # one more pass with sampled telemetry, as `repro sweep --trace`
        # runs it, against the traced pass above
        telemetry_trace = LayerTrace()
        with telemetry_trace:
            sampled = self.run_pass(
                requests, host, trace=telemetry_trace,
                telemetry=Telemetry(sample_interval=TELEMETRY_INTERVAL),
            )
        untraced.attempted += sampled.attempted
        untraced.failed += sampled.failed
        untraced.problems.extend(sampled.problems)
        extra["telemetry.overhead_ratio"] = sum(scaled_times(sampled)) / (
            sum(scaled_times(traced)) / TRACE_ROUNDS)
        extra["telemetry.replay_ms"] = (
            self_times(telemetry_trace.roots)[0]["telemetry.replay"] * 1e3
            / sampled.points
        )
        return untraced, traced, trace, extra


def saturation_grid(traffic_seed: int) -> list[list[SimulationSpec]]:
    """One rate sweep per (mesh, level, pattern): 15 requests, 69 points."""
    sweeps = []
    for width, levels, rates in SAT_MESHES:
        config = NoCConfig(mesh_width=width, mesh_height=width)
        for level in levels:
            topology = SprintTopology.for_level(width, width, level)
            endpoints = tuple(topology.active_nodes)
            for pattern in SAT_PATTERNS:
                sweeps.append([
                    SimulationSpec(
                        topology=topology,
                        traffic=TrafficSpec(endpoints, rate,
                                            config.packet_length_flits,
                                            pattern, seed=traffic_seed),
                        config=config, routing="cdor", backend="auto",
                        **SAT_WINDOWS,
                    )
                    for rate in rates
                ])
    return sweeps


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class ClientStream:
    """The closed-loop client's seeded request sequence for one phase.

    Most requests are new small specs (4x4, levels 2-8, light load) with
    traffic seeds from a range no other phase draws from; the rest repeat
    one of the phase's earlier specs, which have all completed (the loop
    is closed), so every repeat is a cache hit.
    """

    def __init__(self, seed: int, phase: int):
        self.rng = random.Random(f"serve:{seed}:{phase}")
        self.next_seed = (seed * 100 + phase) * SEED_RANGE
        self.specs: list[SimulationSpec] = []
        self.bodies: list[bytes] = []
        self._topologies: dict[int, SprintTopology] = {}

    def next(self) -> tuple[SimulationSpec, bytes]:
        if self.specs and self.rng.random() < SERVE_REPEAT_SHARE:
            index = self.rng.randrange(len(self.specs))
            return self.specs[index], self.bodies[index]
        level = self.rng.randint(2, 8)
        topology = self._topologies.get(level)
        if topology is None:
            topology = self._topologies[level] = SprintTopology.for_level(4, 4, level)
        spec = SimulationSpec(
            topology=topology,
            traffic=TrafficSpec(
                tuple(topology.active_nodes), self.rng.choice(SERVE_RATES),
                SERVE_CONFIG.packet_length_flits,
                self.rng.choice(SERVE_PATTERNS), seed=self.next_seed,
            ),
            config=SERVE_CONFIG, routing="cdor", backend="auto",
            **SERVE_WINDOWS,
        )
        self.next_seed += 1
        body = json.dumps(spec.to_wire()).encode("utf-8")
        self.specs.append(spec)
        self.bodies.append(body)
        return spec, body


def start_server(directory: str) -> ExperimentServer:
    """The `repro serve` stack with a disk cache, rate limits out of reach."""
    service = ExperimentService(
        cache=ResultCache(directory=directory), workers=1,
        accounts=ClientAccounts(rate_per_s=1e6, burst=1e6),
    )
    return ExperimentServer(service, port=0).start()


def run_client(server, stream: ClientStream, records: list,
               deadline: float | None = None, count: int | None = None,
               trace=None, host: HostSpeed | None = None) -> None:
    """The closed-loop client: a connection per request, as `repro submit`.

    Runs until ``deadline`` or for ``count`` requests.  With ``host``, each
    response is followed by a host-speed reading, taken while the server
    has nothing to do.  (A keep-alive client stalls ~40 ms a request on
    this server: headers and body leave in two writes, and Nagle waits on
    the delayed ACK.)
    """
    address, port = server.address.rsplit(":", 1)
    headers = {"Content-Type": "application/json", CLIENT_HEADER: CLIENT_NAME}
    sent = 0
    while (count is None and time.perf_counter() < deadline) or (
            count is not None and sent < count):
        spec, body = stream.next()
        root = trace.root("request", client=CLIENT_NAME) if trace is not None else None
        start = time.perf_counter()
        conn = http.client.HTTPConnection(address, int(port), timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("POST", "/v1/evaluate", body=body, headers=headers)
            response = conn.getresponse()
            status, data = response.status, response.read()
        except (OSError, http.client.HTTPException) as err:
            status, data = None, repr(err).encode("utf-8")
        finally:
            conn.close()
        done = time.perf_counter()
        if root is not None:
            trace.end_root(root, client=CLIENT_NAME)
        if status == 200:
            # keep a digest, not the body: memory must not grow with the run
            doc = json.loads(data)
            data = (doc["key"], doc["cached"], document_digest(doc["result"]))
        scale = host.scale() if host is not None else 1.0
        records.append((spec, status, done - start, scale, data))
        sent += 1


class ServeMixed:
    """The closed-loop HTTP client against an in-process `repro serve`."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.server: ExperimentServer | None = None
        self._servers = 0

    def _fresh_server(self) -> ExperimentServer:
        self._servers += 1
        return start_server(os.path.join(self.workdir, f"cache-{self._servers}"))

    def phase(self, server, phase_id: int, seconds: float | None = None,
              count: int | None = None, trace=None,
              host: HostSpeed | None = None) -> Phase:
        service = server.service
        before = {name: service.counter_value(name) or 0 for name in SERVICE_COUNTERS}
        records: list = []
        start = time.perf_counter()
        deadline = start + seconds if seconds is not None else None
        if host is not None:
            host.scale()
        run_client(server, ClientStream(self.seed, phase_id), records,
                   deadline=deadline, count=count, trace=trace, host=host)
        phase = Phase(seed=self.seed, wall_s=time.perf_counter() - start)
        phase.counters = {
            name: (service.counter_value(name) or 0) - before[name]
            for name in SERVICE_COUNTERS
        }
        phase.points = int(phase.counters["service_simulations_total"])
        for spec, status, elapsed, scale, data in records:
            phase.attempted += 1
            if status == 200:
                phase.requests += 1
                phase.latencies.append(elapsed)
                phase.scales.append(scale)
            phase.records.append((spec, status, data))
        return phase

    def setup(self) -> float:
        if self.server is not None:
            self.server.stop()  # teardown: waits out the serve loop's poll
        start = time.perf_counter()
        self.server = self._fresh_server()
        self.phase(self.server, 0, count=SERVE_WARMUP_REQUESTS)
        return time.perf_counter() - start

    def timed(self, seconds: float, host: HostSpeed) -> Phase:
        return self.phase(self.server, 1, seconds=seconds, host=host)

    end_to_end = staticmethod(scaled_metrics)

    def check(self, phase: Phase) -> None:
        """Repeats return identical documents; a sample matches in-process."""
        served: dict[str, tuple] = {}
        for spec, status, outcome in phase.records:
            if status != 200:
                phase.fail(f"HTTP {status}: {outcome[:200]!r}")
                continue
            key, _, digest = outcome
            first = served.setdefault(key, (spec, digest))
            if first[1] != digest:
                phase.fail(f"key {key[:12]} served two different results")
        rng = random.Random(f"reference:{self.seed}")
        for key in rng.sample(sorted(served), min(REFERENCE_SAMPLE, len(served))):
            spec, digest = served[key]
            local = simulate(spec)
            if spec.cache_key() != key or document_digest(local.to_wire()) != digest:
                phase.fail(f"key {key[:12]} differs from in-process simulate()")
            elif not same_result(simulate(spec, backend="reference"), local):
                phase.fail(f"key {key[:12]} differs from the reference engine")

    def traced(self, workdir: str) -> tuple:
        host = HostSpeed()
        untraced = self.phase(self.server, 2, count=SERVE_TRACE_REQUESTS,
                              host=host)
        server = self._fresh_server()
        trace = LayerTrace()
        try:
            self.phase(server, 0, count=SERVE_WARMUP_REQUESTS)
            with trace:
                traced = self.phase(server, 2, count=SERVE_TRACE_REQUESTS,
                                    trace=trace, host=host)
        finally:
            server.stop()
        ops = max(1, traced.attempted)
        extra = {
            "service.simulations": traced.points / ops,
            "service.cache_served":
                traced.counters["service_cache_served_total"] / ops,
            "service.coalesced": traced.counters["service_coalesced_total"] / ops,
        }
        sims = durations(trace.roots, "simulate")
        runs = durations(trace.roots, "runner")
        if sims:
            extra.update({
                "runner.overhead_ms_per_point":
                    (sum(runs) - sum(sims)) * 1e3 / len(sims),
                "runner.busy_ratio": sum(sims) / sum(traced.latencies),
                "runner.point_p50_ms": quantile(sims, 0.50) * 1e3,
                "runner.point_p95_ms": quantile(sims, 0.95) * 1e3,
            })
        return untraced, traced, trace, extra

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


def kernel_load_s() -> float:
    """Build or load the C kernel; the seconds it took."""
    start = time.perf_counter()
    if not native.available():
        raise RuntimeError("the C kernel is unavailable (no C compiler?)")
    return time.perf_counter() - start
