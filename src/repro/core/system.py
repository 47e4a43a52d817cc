"""End-to-end NoC-sprinting system evaluation.

:class:`NoCSprintingSystem` is the facade the examples and the benchmark
harness drive: given a workload profile and a sprinting scheme it produces
the execution time, core power, network latency/power (from the cycle
simulator), thermal peak and sprint duration -- i.e. one row of each of the
paper's evaluation figures.

The single entry point is :meth:`NoCSprintingSystem.evaluate`, which
returns a structured :class:`EvaluationReport` with every requested axis
as a field.  Network simulations are described by
:class:`~repro.noc.spec.SimulationSpec` values.  A single evaluation
uses the system's result cache directly and simulates only on a miss,
so a repeated evaluation never re-simulates; batches of specs passed to
:meth:`NoCSprintingSystem.sweep` go through the sweep engine
(:mod:`repro.exec`).

Schemes:

- ``"non_sprinting"``  -- always one core under TDP (the naive baseline)
- ``"full_sprinting"`` -- all 16 cores, fully-powered network (Raghavan et al.)
- ``"naive_fine_grained"`` -- optimal core count but no power gating at all
- ``"noc_sprinting"``  -- the paper: optimal level, convex topology, CDOR,
  static network gating, optional thermal-aware floorplan
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

from repro.cmp.perf_model import BenchmarkProfile, profile_workload
from repro.cmp.traffic_model import traffic_spec_for_workload
from repro.cmp.workloads import SINGLE_CORE_BURST_S, get_profile
from repro.config import SystemConfig, default_config
from repro.core.floorplanning import Floorplan, thermal_aware_floorplan
from repro.core.topological import SprintTopology
from repro.exec import ResultCache, SweepReport, SweepRunner
from repro.noc.sim import SimulationResult, simulate
from repro.noc.spec import SimulationSpec, stable_key
from repro.telemetry.ledger import Ledger, result_headline
from repro.power.activity import NetworkPowerReport, network_power
from repro.power.chip_power import ChipPowerModel, ChipPowerReport
from repro.thermal.floorplan import sprint_tile_powers
from repro.thermal.grid import ThermalGrid
from repro.thermal.pcm import DEFAULT_PCM, PCMParams
from repro.thermal.sprint_duration import useful_sprint_duration
from repro.util.rng import stream

SCHEMES = ("non_sprinting", "full_sprinting", "naive_fine_grained", "noc_sprinting")


@dataclass
class NetworkEvaluation:
    """Network-level outcome for one (workload, scheme) pair."""

    sim: SimulationResult
    power: NetworkPowerReport

    @property
    def avg_latency(self) -> float:
        return self.sim.avg_latency

    @property
    def total_power_w(self) -> float:
        return self.power.total


@dataclass
class EvaluationReport:
    """One full row of the paper's evaluation for a workload + scheme.

    Always populated: the performance and power axes.  ``network``,
    ``peak_temperature_k`` and ``sprint_duration_s`` are filled in only
    when the corresponding axis was requested from :meth:`evaluate`.
    """

    benchmark: str
    scheme: str
    level: int
    relative_time: float
    speedup: float
    core_power_w: float
    chip_power: ChipPowerReport
    network: NetworkEvaluation | None = None
    peak_temperature_k: float | None = None
    sprint_duration_s: float | None = None

    def to_wire(self) -> dict:
        """Version-tagged JSON-ready document for the service API.

        Same versioning policy as :func:`repro.noc.spec.spec_to_wire`:
        the shape is the v1 contract, so removing or renaming a field is
        a wire break.  Power breakdowns flatten to scalar watts; the
        network axis embeds :meth:`SimulationResult.to_wire`'s scalar
        body plus the power totals.
        """
        network = None
        if self.network is not None:
            network = {
                "sim": self.network.sim.to_wire()["result"],
                "power": {
                    "total_w": self.network.power.total,
                    "dynamic_w": self.network.power.dynamic,
                    "leakage_w": self.network.power.leakage,
                    "powered_router_count": self.network.power.powered_router_count,
                    "powered_link_count": self.network.power.powered_link_count,
                },
            }
        return {
            "v": 1,
            "kind": "evaluation_report",
            "report": {
                "benchmark": self.benchmark,
                "scheme": self.scheme,
                "level": self.level,
                "relative_time": self.relative_time,
                "speedup": self.speedup,
                "core_power_w": self.core_power_w,
                "chip_power": {
                    "cores": self.chip_power.cores,
                    "l2": self.chip_power.l2,
                    "memory_controllers": self.chip_power.memory_controllers,
                    "noc": self.chip_power.noc,
                    "others": self.chip_power.others,
                    "total": self.chip_power.total,
                },
                "network": network,
                "peak_temperature_k": self.peak_temperature_k,
                "sprint_duration_s": self.sprint_duration_s,
            },
        }


class NoCSprintingSystem:
    """The reproduced system: all four sprinting schemes over one CMP.

    ``cache`` (a :class:`~repro.exec.ResultCache`) stores every network
    simulation result keyed on its spec's content hash; pass a shared
    cache to reuse results across system instances or give it a directory
    for cross-process persistence.  ``workers`` sets the process fan-out
    for :meth:`sweep` batches (single evaluations always run in-process).
    ``backend`` names the registered simulation engine every induced
    :class:`~repro.noc.spec.SimulationSpec` carries (see
    :mod:`repro.noc.backends`); non-default backends key the cache
    separately.  ``backend="auto"`` defers to the registry, which picks
    the fastest engine covering each spec's requirements.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        pcm: PCMParams = DEFAULT_PCM,
        use_floorplan: bool = False,
        seed: int = 0,
        cache: ResultCache | None = None,
        workers: int = 1,
        backend: str = "reference",
        ledger: Ledger | None = None,
    ):
        self.config = config or default_config()
        self.pcm = pcm
        self.seed = seed
        self.cache = cache if cache is not None else ResultCache()
        self.workers = workers
        self.backend = backend
        # run history: evaluate() and sweep() append RunRecords here
        # (None: the env-configured default; Ledger.disabled() opts out)
        self.ledger = ledger if ledger is not None else Ledger()
        self.chip_model = ChipPowerModel(self.config.core_count)
        self.floorplan: Floorplan | None = (
            thermal_aware_floorplan(
                self.config.noc.mesh_width,
                self.config.noc.mesh_height,
                self.config.master_node,
            )
            if use_floorplan
            else None
        )
        self._full_topology = SprintTopology.for_level(
            self.config.noc.mesh_width,
            self.config.noc.mesh_height,
            self.config.core_count,
            self.config.master_node,
        )

    @cached_property
    def thermal_grid(self) -> ThermalGrid:
        """The die's RC grid, built on first use (network-only runs never
        solve it)."""
        return ThermalGrid(self.config.noc.mesh_width, self.config.noc.mesh_height)

    # ------------------------------------------------------------------
    def _resolve(self, workload: str | BenchmarkProfile) -> BenchmarkProfile:
        if isinstance(workload, str):
            return get_profile(workload)
        return workload

    def scheme_level(self, profile: BenchmarkProfile, scheme: str) -> int:
        """Active core count under a scheme."""
        if scheme == "non_sprinting":
            return 1
        if scheme == "full_sprinting":
            return self.config.core_count
        if scheme in ("naive_fine_grained", "noc_sprinting"):
            return profile_workload(profile, self.config.core_count).level
        raise ValueError(f"unknown scheme {scheme!r}; options: {SCHEMES}")

    def topology_for(self, profile: BenchmarkProfile, scheme: str) -> SprintTopology:
        """The powered network under a scheme.

        Only NoC-sprinting powers a sub-region; every other scheme keeps
        the whole mesh on (a dark router would block forwarding).
        """
        if scheme == "noc_sprinting":
            level = self.scheme_level(profile, scheme)
            return SprintTopology.for_level(
                self.config.noc.mesh_width,
                self.config.noc.mesh_height,
                level,
                self.config.master_node,
            )
        return self._full_topology

    # ------------------------------------------------------------------
    # the unified entry point
    # ------------------------------------------------------------------
    def evaluate(
        self,
        workload: str | BenchmarkProfile,
        scheme: str,
        simulate_network: bool = False,
        thermal: bool = False,
        *,
        seed: int | None = None,
        warmup_cycles: int = 500,
        measure_cycles: int = 2000,
        floorplanned: bool | None = None,
    ) -> EvaluationReport:
        """Evaluate one (workload, scheme) pair across every requested axis.

        The performance and power axes are always computed; pass
        ``simulate_network=True`` for the cycle-simulated network axis
        (served from the result cache when the identical spec has already
        run) and ``thermal=True`` for the steady-state hotspot.
        ``floorplanned`` defaults to whether the system was built with a
        thermal-aware floorplan.
        """
        start = time.perf_counter()
        cpu_start = time.process_time()
        profile = self._resolve(workload)
        level = self.scheme_level(profile, scheme)
        key = None
        network = None
        if simulate_network:
            key, network = self._network_evaluation(
                profile, scheme, seed, warmup_cycles, measure_cycles
            )
        if floorplanned is None:
            floorplanned = self.floorplan is not None
        peak = (
            self._peak_temperature(profile, scheme, floorplanned) if thermal else None
        )
        duration = (
            self.sprint_duration_gain(profile) if scheme == "noc_sprinting" else None
        )
        relative_time = profile.relative_time(level)
        report = EvaluationReport(
            benchmark=profile.name,
            scheme=scheme,
            level=level,
            relative_time=relative_time,
            speedup=1.0 / relative_time,
            core_power_w=self._core_power(level, scheme),
            chip_power=self._chip_power(level, scheme),
            network=network,
            peak_temperature_k=peak,
            sprint_duration_s=duration,
        )
        self._record_evaluation(
            report, key,
            wall_s=time.perf_counter() - start,
            cpu_s=time.process_time() - cpu_start,
        )
        return report

    def _record_evaluation(self, report: EvaluationReport, key: str | None,
                           wall_s: float, cpu_s: float) -> None:
        """Append one ``evaluate`` RunRecord to the ledger (best-effort)."""
        if not self.ledger.enabled:
            return
        headline = {
            "speedup": report.speedup,
            "core_power_w": report.core_power_w,
            "chip_power_w": report.chip_power.total,
        }
        if report.network is not None:
            headline["avg_latency"] = report.network.avg_latency
            headline["network_power_w"] = report.network.total_power_w
        if report.peak_temperature_k is not None:
            headline["peak_temperature_k"] = report.peak_temperature_k
        if report.sprint_duration_s is not None:
            headline["sprint_duration_s"] = report.sprint_duration_s
        points: dict[str, dict] = {}
        keys: tuple[str, ...] = ()
        if key is not None:
            keys = (key,)
            points[key] = result_headline(report.network.sim)
        self.ledger.record(
            "evaluate",
            label=f"{report.benchmark}/{report.scheme}",
            backend=self.backend,
            spec_keys=keys,
            wall_s=wall_s,
            cpu_s=cpu_s,
            points=points,
            headline=headline,
            fingerprint=stable_key(
                (report.benchmark, report.scheme, self.backend)
            ),
        )

    # ------------------------------------------------------------------
    # power (Figures 8 and 10)
    # ------------------------------------------------------------------
    def _core_power(self, level: int, scheme: str) -> float:
        policy = "idle" if scheme == "naive_fine_grained" else "gated"
        return self.chip_model.core_power(level, policy)

    def _chip_power(self, level: int, scheme: str) -> ChipPowerReport:
        if scheme == "non_sprinting":
            return self.chip_model.nominal_breakdown()
        mapping = {
            "full_sprinting": "full",
            "naive_fine_grained": "naive",
            "noc_sprinting": "noc_sprinting",
        }
        return self.chip_model.sprint_chip_power(level, mapping[scheme])

    # ------------------------------------------------------------------
    # network (Figures 9, 10, 11)
    # ------------------------------------------------------------------
    def simulation_spec(
        self,
        workload: str | BenchmarkProfile,
        scheme: str,
        seed: int | None = None,
        warmup_cycles: int = 500,
        measure_cycles: int = 2000,
        drain_cycles: int = 30000,
    ) -> SimulationSpec:
        """The :class:`SimulationSpec` a (workload, scheme) pair induces.

        Under NoC-sprinting the endpoints are the convex region and routing
        is CDOR; under every other scheme the workload's active cores all
        sit on the fully-powered mesh with XY routing.  The spec is a pure
        value: hand batches of them to :meth:`sweep` or a
        :class:`~repro.exec.SweepRunner` for parallel, cached execution.
        """
        profile = self._resolve(workload)
        topology = self.topology_for(profile, scheme)
        routing = "cdor" if scheme == "noc_sprinting" else "xy"
        use_seed = self.seed if seed is None else seed
        endpoints = None
        if scheme == "non_sprinting":
            endpoints = [self.config.master_node]
        elif scheme == "naive_fine_grained":
            # the naive scheme picks the right core count but is oblivious
            # to placement: the active cores land anywhere on the full mesh
            level = self.scheme_level(profile, scheme)
            endpoints = stream(use_seed, "naive-mapping").sample(
                range(self.config.core_count), level
            )
        traffic = traffic_spec_for_workload(
            profile,
            topology,
            self.config.noc,
            seed=use_seed,
            endpoints=endpoints,
        )
        return SimulationSpec(
            topology=topology,
            traffic=traffic,
            config=self.config.noc,
            routing=routing,
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
            drain_cycles=drain_cycles,
            backend=self.backend,
        )

    def sweep(self, specs) -> SweepReport:
        """Run a batch of specs through the cached sweep engine."""
        return SweepRunner(
            workers=self.workers, cache=self.cache, ledger=self.ledger
        ).run(specs)

    def network_evaluation_for(
        self, spec: SimulationSpec, sim: SimulationResult, scheme: str
    ) -> NetworkEvaluation:
        """Attach the power model to a simulated spec."""
        floorplan = self.floorplan if scheme == "noc_sprinting" else None
        power = network_power(sim, spec.topology, spec.config, floorplan=floorplan)
        return NetworkEvaluation(sim=sim, power=power)

    def _network_evaluation(
        self,
        profile: BenchmarkProfile,
        scheme: str,
        seed: int | None,
        warmup_cycles: int,
        measure_cycles: int,
    ) -> tuple[str, NetworkEvaluation]:
        spec = self.simulation_spec(
            profile,
            scheme,
            seed=seed,
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
        )
        key = spec.cache_key()
        sim = self.cache.get(key)
        if sim is None:
            sim = simulate(spec)
            self.cache.put(key, sim)
        return key, self.network_evaluation_for(spec, sim, scheme)

    # ------------------------------------------------------------------
    # thermal (Figure 12 / Section 4.4)
    # ------------------------------------------------------------------
    def _peak_temperature(
        self, profile: BenchmarkProfile, scheme: str, floorplanned: bool
    ) -> float:
        level = self.scheme_level(profile, scheme)
        if scheme == "noc_sprinting":
            topology = SprintTopology.for_level(
                self.config.noc.mesh_width,
                self.config.noc.mesh_height,
                level,
                self.config.master_node,
            )
            floorplan = (
                self.floorplan
                or thermal_aware_floorplan(
                    self.config.noc.mesh_width,
                    self.config.noc.mesh_height,
                    self.config.master_node,
                )
            ) if floorplanned else None
            tiles = sprint_tile_powers(topology, self.chip_model, floorplan)
        else:
            tiles = sprint_tile_powers(self._full_topology, self.chip_model)
        return self.thermal_grid.peak_temperature(tiles)

    def sprint_duration_gain(self, workload: str | BenchmarkProfile) -> float:
        """Useful sprint duration, NoC-sprinting over full-sprinting.

        A level-1 optimum means the chip never leaves nominal operation, so
        there is no sprint to extend (gain 1.0).  Gains are clamped at 1.0:
        finishing the burst early is a win, not a shorter sprint.
        """
        profile = self._resolve(workload)
        level = self.scheme_level(profile, "noc_sprinting")
        if level in (1, self.config.core_count):
            return 1.0
        noc_power = self.chip_model.sprint_chip_power(level, "noc_sprinting").total
        full_power = self.chip_model.sprint_chip_power(level, "full").total
        noc_burst = SINGLE_CORE_BURST_S * profile.relative_time(level)
        full_burst = SINGLE_CORE_BURST_S * profile.relative_time(self.config.core_count)
        noc = useful_sprint_duration(noc_power, noc_burst, self.pcm)
        full = useful_sprint_duration(full_power, full_burst, self.pcm)
        return max(1.0, noc.useful_duration_s / full.useful_duration_s)
