"""The fine-grained sprint controller.

Ties the paper's pieces into the run-time mechanism of Section 3.1: when a
computation burst arrives, the controller picks the workload's optimal
sprint level (from off-line profiling), activates the convex Algorithm-1
region of cores/routers, and tracks the thermal budget of the phase-change
heat sink; when the budget is exhausted -- or the burst completes -- the
chip falls back to single-core nominal operation and the PCM re-solidifies
during cooldown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.cmp.perf_model import BenchmarkProfile, profile_workload
from repro.config import SystemConfig, default_config
from repro.core.floorplanning import Floorplan
from repro.core.topological import SprintTopology
from repro.noc.power_gating import StaticGatingPlan, static_plan_for_topology
from repro.power.chip_power import ChipPowerModel
from repro.telemetry import Telemetry
from repro.thermal.pcm import DEFAULT_PCM, PCMParams


class SprintMode(Enum):
    """Chip operating mode."""

    NOMINAL = "nominal"  # single master core under TDP
    SPRINTING = "sprinting"  # a sprint region is active
    COOLDOWN = "cooldown"  # PCM re-solidifying, sprinting unavailable


@dataclass(frozen=True)
class RetreatPolicy:
    """Staged degradation of an active sprint.

    Instead of the all-or-nothing abort when the PCM budget empties, the
    controller steps the sprint level down as the budget drains: each time
    the thermal headroom falls through a threshold the level halves, and
    when the budget is fully exhausted the sprint retreats to the largest
    *thermally sustainable* level (power under the sustainable TDP) and
    holds it indefinitely, rather than dropping straight to nominal.
    """

    thresholds: tuple[float, ...] = (0.5, 0.25, 0.1)

    def __post_init__(self) -> None:
        if any(not 0.0 < t < 1.0 for t in self.thresholds):
            raise ValueError("retreat thresholds must be headroom fractions in (0, 1)")
        if tuple(sorted(self.thresholds, reverse=True)) != tuple(self.thresholds):
            raise ValueError("retreat thresholds must be strictly descending")


@dataclass(frozen=True)
class SprintPlan:
    """Everything needed to execute one fine-grained sprint."""

    level: int
    topology: SprintTopology
    gating: StaticGatingPlan
    sprint_power_w: float
    expected_speedup: float

    @property
    def active_cores(self) -> tuple[int, ...]:
        return self.topology.active_nodes


@dataclass
class SprintController:
    """Plans and executes fine-grained sprints on one CMP.

    The controller is deliberately simple: parallelism prediction is out of
    the paper's scope (it assumes profiles are "learnt in advance or
    monitored during run-time"), so planning consumes a
    :class:`BenchmarkProfile` directly.
    """

    config: SystemConfig = field(default_factory=default_config)
    pcm: PCMParams = DEFAULT_PCM
    metric: str = "euclidean"
    floorplan: Floorplan | None = None
    retreat: RetreatPolicy | None = None
    faulty: frozenset[int] = frozenset()
    telemetry: Telemetry | None = None

    def __post_init__(self) -> None:
        self.chip_model = ChipPowerModel(self.config.core_count)
        self.mode = SprintMode.NOMINAL
        self.plan_active: SprintPlan | None = None
        total_budget = self.pcm.latent_energy_j + (
            self.pcm.sensible_capacitance_j_per_k
            * (self.pcm.max_temperature_k - self.pcm.start_temperature_k)
        )
        self._budget_total_j = total_budget
        self._budget_j = total_budget
        self._profile_active: BenchmarkProfile | None = None
        self._stage_index = 0
        self._sprint_time_s = 0.0
        self.retreat_log: list[tuple[float, int, int]] = []

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, profile: BenchmarkProfile) -> SprintPlan:
        """Choose the sprint level and build the topology for a workload."""
        decision = profile_workload(profile, self.config.core_count)
        return self._plan_for_level(
            decision.level, profile, speedup=decision.speedup_vs_nominal
        )

    def _plan_for_level(
        self,
        level: int,
        profile: BenchmarkProfile | None,
        speedup: float | None = None,
    ) -> SprintPlan:
        """Build the plan for a level, growing around known hard faults.

        With faults the actual level can come out below the requested one
        (the region degrades gracefully towards the master).
        """
        width = self.config.noc.mesh_width
        height = self.config.noc.mesh_height
        if self.faulty:
            from repro.core.faults import degraded_topology

            topology = degraded_topology(
                width, height, level, self.faulty, self.config.master_node, self.metric
            )
        else:
            topology = SprintTopology.for_level(
                width, height, level, self.config.master_node, self.metric
            )
        actual = topology.level
        power = self.chip_model.sprint_chip_power(actual, "noc_sprinting")
        if speedup is None or actual != level:
            if profile is None:
                speedup = 1.0
            else:
                # a degraded level (e.g. 7 around a fault) falls between the
                # profiled scaling points; be conservative and credit the
                # speedup of the largest profiled level that fits
                profiled = max(
                    (lv for lv in profile.scaling if lv <= actual), default=1
                )
                speedup = profile.speedup(profiled)
        return SprintPlan(
            level=actual,
            topology=topology,
            gating=static_plan_for_topology(topology),
            sprint_power_w=power.total,
            expected_speedup=speedup,
        )

    def sustainable_level(self) -> int | None:
        """The largest sprint level whose power fits under the sustainable
        TDP (None when even nominal operation exceeds it)."""
        best = None
        for level in range(1, self.config.core_count + 1):
            power = self.chip_model.sprint_chip_power(level, "noc_sprinting").total
            if power <= self.pcm.sustainable_power_w:
                best = level
        return best

    # ------------------------------------------------------------------
    # thermal-budget state machine
    # ------------------------------------------------------------------
    @property
    def thermal_headroom(self) -> float:
        """Remaining fraction of the PCM thermal budget (0..1)."""
        return self._budget_j / self._budget_total_j

    def _emit(self, name: str, **attrs) -> None:
        """One controller transition: trace event + gauge refresh."""
        tel = self.telemetry
        if tel is None:
            return
        tel.tracer.event(name, **attrs)
        tel.metrics.gauge(
            "sprint_level", "Active sprint level (1 = nominal operation)."
        ).set(self.plan_active.level if self.plan_active is not None else 1)
        tel.metrics.gauge(
            "sprint_thermal_headroom",
            "Remaining fraction of the PCM thermal budget (0..1).",
        ).set(round(self.thermal_headroom, 6))

    def begin_sprint(self, profile: BenchmarkProfile) -> SprintPlan:
        """Enter sprint mode for a workload burst."""
        if self.mode is SprintMode.SPRINTING:
            raise RuntimeError("already sprinting; end the current sprint first")
        if self.mode is SprintMode.COOLDOWN and self.thermal_headroom < 0.99:
            raise RuntimeError(
                f"PCM not re-solidified (headroom {self.thermal_headroom:.0%})"
            )
        plan = self.plan(profile)
        self._profile_active = profile
        self._stage_index = 0
        self._sprint_time_s = 0.0
        self.retreat_log = []
        if plan.level == 1:
            # the optimum is nominal operation: nothing to sprint
            self.mode = SprintMode.NOMINAL
            self.plan_active = None
            self._emit("sprint_begin", level=1, nominal=True)
            return plan
        self.mode = SprintMode.SPRINTING
        self.plan_active = plan
        self._emit(
            "sprint_begin",
            level=plan.level,
            power_w=round(plan.sprint_power_w, 3),
            expected_speedup=round(plan.expected_speedup, 4),
        )
        return plan

    def advance(self, seconds: float) -> float:
        """Progress time; returns how long the sprint actually sustained.

        While sprinting, the excess power above the sustainable TDP drains
        the PCM budget; when it empties the chip is forced back to nominal
        (the ``t_one`` point of Figure 1).  During cooldown the budget
        refills at the rate cooling exceeds nominal dissipation.
        """
        if seconds < 0:
            raise ValueError("time must move forward")
        if self.mode is SprintMode.SPRINTING:
            assert self.plan_active is not None
            if self.retreat is not None:
                return self._advance_with_retreat(seconds)
            excess = self.plan_active.sprint_power_w - self.pcm.sustainable_power_w
            if excess <= 0:
                self._sprint_time_s += seconds
                return seconds  # thermally unconstrained sprint
            sustained = min(seconds, self._budget_j / excess)
            self._budget_j -= sustained * excess
            self._sprint_time_s += sustained
            if self._budget_j <= 1e-12:
                self._budget_j = 0.0
                self.mode = SprintMode.COOLDOWN
                self.plan_active = None
                self._emit(
                    "sprint_exhausted",
                    sprint_time_s=round(self._sprint_time_s, 6),
                )
            return sustained
        if self.mode is SprintMode.COOLDOWN:
            refill_rate = 0.25 * self.pcm.sustainable_power_w
            self._budget_j = min(
                self._budget_total_j, self._budget_j + seconds * refill_rate
            )
            if self._budget_j >= self._budget_total_j:
                self.mode = SprintMode.NOMINAL
            return 0.0
        return 0.0

    def _retreat_to(self, level: int) -> None:
        """Re-plan the active sprint at a lower level, keeping the mode."""
        plan = self.plan_active
        assert plan is not None
        if level >= plan.level:
            return
        self.retreat_log.append((self._sprint_time_s, plan.level, level))
        self.plan_active = self._plan_for_level(level, self._profile_active)
        tel = self.telemetry
        if tel is not None:
            tel.metrics.counter(
                "sprint_retreats_total",
                "Staged sprint-level retreats taken by the controller.",
            ).inc()
        self._emit(
            "sprint_retreat",
            t=round(self._sprint_time_s, 6),
            from_level=plan.level,
            to_level=self.plan_active.level,
        )

    def _advance_with_retreat(self, seconds: float) -> float:
        """Staged-retreat integration of sprint time.

        Each crossing of a headroom threshold halves the sprint level;
        when the budget empties the sprint falls to the largest sustainable
        level (if one below the current level exists) instead of aborting.
        Returns the total time spent sprinting (at any level).
        """
        thresholds = self.retreat.thresholds
        remaining = seconds
        sustained = 0.0
        while remaining > 1e-15 and self.mode is SprintMode.SPRINTING:
            plan = self.plan_active
            excess = plan.sprint_power_w - self.pcm.sustainable_power_w
            if excess <= 0:
                # this level holds indefinitely
                self._sprint_time_s += remaining
                sustained += remaining
                remaining = 0.0
                break
            if self._stage_index < len(thresholds):
                floor_j = thresholds[self._stage_index] * self._budget_total_j
            else:
                floor_j = 0.0
            step = min(remaining, max(0.0, self._budget_j - floor_j) / excess)
            self._budget_j -= step * excess
            self._sprint_time_s += step
            sustained += step
            remaining -= step
            if remaining <= 1e-15:
                break
            # ran into the next boundary before the time ran out
            if self._stage_index < len(thresholds):
                self._stage_index += 1
                self._retreat_to(max(1, plan.level // 2))
            else:
                self._budget_j = 0.0
                fallback = self.sustainable_level()
                if fallback is not None and fallback < plan.level:
                    self._retreat_to(fallback)
                else:
                    self.mode = SprintMode.COOLDOWN
                    self.plan_active = None
                    self._emit(
                        "sprint_exhausted",
                        sprint_time_s=round(self._sprint_time_s, 6),
                    )
        return sustained

    def drain_budget(self, power_w: float, seconds: float) -> float:
        """Drain the PCM budget as if sprinting at ``power_w`` for up to
        ``seconds``; returns the time actually sustained.

        A lower-level hook for schedulers that manage their own plans;
        unlike :meth:`advance` it does not require an active sprint.  The
        controller drops to COOLDOWN if the budget empties.
        """
        if seconds < 0:
            raise ValueError("time must move forward")
        excess = power_w - self.pcm.sustainable_power_w
        if excess <= 0:
            return seconds  # thermally unconstrained
        sustained = min(seconds, self._budget_j / excess)
        self._budget_j = max(0.0, self._budget_j - sustained * excess)
        if self._budget_j <= 1e-12:
            self._budget_j = 0.0
            self.mode = SprintMode.COOLDOWN
            self.plan_active = None
            self._emit("sprint_exhausted", drained_by="drain_budget")
        return sustained

    def end_sprint(self) -> None:
        """The burst completed; return to nominal and start re-solidifying."""
        if self.mode is SprintMode.SPRINTING:
            self.plan_active = None
            self.mode = (
                SprintMode.COOLDOWN
                if self._budget_j < self._budget_total_j
                else SprintMode.NOMINAL
            )
            self._emit(
                "sprint_end",
                sprint_time_s=round(self._sprint_time_s, 6),
                mode=self.mode.value,
            )

    def max_sprint_duration(self, plan: SprintPlan) -> float:
        """Thermally-allowed duration of a sprint from a full budget."""
        excess = plan.sprint_power_w - self.pcm.sustainable_power_w
        if excess <= 0:
            return math.inf
        return self._budget_total_j / excess
