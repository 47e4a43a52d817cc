"""Run-time router power gating.

NoC-sprinting gates the network *statically*: the sprint topology decides
which routers exist, CDOR never routes into the dark region, and the gated
routers stay off for the whole sprint -- no wakeups, no break-even risk.

This module models the *conventional* alternative the paper argues against
(timeout-based per-router gating that ignores core status, cf. [4,5,14,18])
so the ablation bench can quantify the difference:

- :class:`TimeoutGatingPolicy` gates any router idle longer than a timeout
  and wakes it (paying ``WAKEUP_LATENCY`` cycles) when a flit needs it.
- :func:`break_even_cycles` computes the minimum profitable idle period
  from the power model's leakage and wakeup energies.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def break_even_cycles(
    leakage_power_w: float,
    wakeup_energy_j: float,
    frequency_hz: float,
) -> float:
    """Idle cycles a router must stay gated to amortize one wakeup.

    Gating saves ``leakage_power / frequency`` joules per cycle and a
    gate-off/wake-on pair costs ``wakeup_energy``; the break-even idle
    period is their ratio.
    """
    if leakage_power_w <= 0:
        raise ValueError("leakage power must be positive")
    saved_per_cycle = leakage_power_w / frequency_hz
    return wakeup_energy_j / saved_per_cycle


@dataclass
class GatingStats:
    """Bookkeeping for a gating policy run."""

    gate_events: int = 0
    wake_events: int = 0
    gated_router_cycles: int = 0


@dataclass
class TimeoutGatingPolicy:
    """Gate a router after ``idle_timeout`` cycles without traffic.

    The policy never gates routers that hold flits.  Wakeups are demand
    driven: the simulator calls ``request_wake`` when a flit's next hop is
    gated, and the router comes back ``WAKEUP_LATENCY`` cycles later (the
    flit waits upstream meanwhile -- the latency penalty the paper's
    static scheme avoids).
    """

    idle_timeout: int = 64
    protected_nodes: frozenset[int] = field(default_factory=frozenset)

    def step(self, network) -> None:
        cycle = network.cycle
        for node, router in network.routers.items():
            if node in self.protected_nodes:
                continue
            if router.gated:
                self.stats.gated_router_cycles += 1
                if router.wake_at is not None and router.wake_at == cycle:
                    self.stats.wake_events += 1
                continue
            if (
                router.buffered_flits == 0
                and not network.ni_busy(node)
                and cycle - router.last_active_cycle >= self.idle_timeout
            ):
                if router.gate():
                    self.stats.gate_events += 1

    def __post_init__(self) -> None:
        self.stats = GatingStats()


@dataclass(frozen=True)
class StaticGatingPlan:
    """The NoC-sprinting gating decision for one sprint level.

    Purely declarative: which routers are powered, which are gated, and the
    fraction of network leakage eliminated.  The cycle simulator realises
    the plan by instantiating only the powered routers.
    """

    powered: tuple[int, ...]
    gated: tuple[int, ...]

    @property
    def leakage_fraction_saved(self) -> float:
        total = len(self.powered) + len(self.gated)
        return len(self.gated) / total if total else 0.0


def static_plan_for_topology(topology) -> StaticGatingPlan:
    """Derive the static gating plan from a sprint topology."""
    from repro.core.topological import dark_nodes

    return StaticGatingPlan(
        powered=tuple(topology.active_nodes),
        gated=tuple(dark_nodes(topology)),
    )
