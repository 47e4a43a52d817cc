"""Tests for router power gating: static plans, break-even analysis, and
the dynamic timeout policy baseline."""

import pytest

from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.noc.network import Network
from repro.noc.power_gating import (
    StaticGatingPlan,
    TimeoutGatingPolicy,
    break_even_cycles,
    static_plan_for_topology,
)
from repro.noc.routing import build_routing_table
from repro.noc.sim import run_simulation
from repro.noc.spec import SimulationSpec, TimeoutGating, TrafficSpec

CFG = NoCConfig()


class TestBreakEven:
    def test_formula(self):
        # 10 mW leakage at 2 GHz saves 5 pJ/cycle; 100 pJ wakeup -> 20 cycles
        assert break_even_cycles(10e-3, 100e-12, 2e9) == pytest.approx(20.0)

    def test_positive_leakage_required(self):
        with pytest.raises(ValueError):
            break_even_cycles(0.0, 1e-12, 2e9)

    def test_consistent_with_router_model(self):
        from repro.power.router_power import RouterPowerModel

        model = RouterPowerModel(CFG)
        cycles = break_even_cycles(
            model.leakage_power(), model.wakeup_energy(), model.frequency_hz
        )
        # wakeup energy is ~30 cycles of leakage plus a clock cycle
        assert 25 < cycles < 60


class TestStaticPlan:
    def test_partition(self):
        topo = SprintTopology.for_level(4, 4, 4)
        plan = static_plan_for_topology(topo)
        assert set(plan.powered) == {0, 1, 4, 5}
        assert len(plan.gated) == 12
        assert plan.leakage_fraction_saved == pytest.approx(0.75)

    def test_full_level_saves_nothing(self):
        plan = static_plan_for_topology(SprintTopology.for_level(4, 4, 16))
        assert plan.leakage_fraction_saved == 0.0

    def test_empty_plan(self):
        assert StaticGatingPlan(powered=(), gated=()).leakage_fraction_saved == 0.0


class TestTimeoutGatingPolicy:
    def test_idle_routers_get_gated(self):
        topo = SprintTopology.for_level(4, 4, 16)
        network = Network(topo, build_routing_table(topo, "xy"), CFG)
        policy = TimeoutGatingPolicy(idle_timeout=16)
        for _ in range(100):
            policy.step(network)
            network.step()
        assert network.powered_routers() == 0
        assert policy.stats.gate_events == 16

    def test_protected_nodes_stay_on(self):
        topo = SprintTopology.for_level(4, 4, 16)
        network = Network(topo, build_routing_table(topo, "xy"), CFG)
        policy = TimeoutGatingPolicy(idle_timeout=16, protected_nodes=frozenset({0}))
        for _ in range(100):
            policy.step(network)
            network.step()
        assert not network.routers[0].gated
        assert network.powered_routers() == 1

    def test_traffic_still_delivered_with_gating(self):
        """Packets wake gated routers and still arrive (with latency cost)."""
        topo = SprintTopology.for_level(4, 4, 16)
        res = run_simulation(SimulationSpec(
            topo, TrafficSpec(tuple(range(16)), 0.05, 5, seed=3), CFG,
            routing="xy", warmup_cycles=400, measure_cycles=1500,
            gating=TimeoutGating(idle_timeout=32),
        ))
        assert not res.saturated
        assert res.packets_ejected == res.packets_measured

    def test_gating_adds_latency_at_light_load(self):
        """The paper's point: timeout gating pays wakeup latency precisely
        when traffic is sparse."""
        topo = SprintTopology.for_level(4, 4, 16)

        def run(gating):
            return run_simulation(SimulationSpec(
                topo, TrafficSpec(tuple(range(16)), 0.01, 5, seed=3), CFG,
                routing="xy", warmup_cycles=400, measure_cycles=3000,
                gating=gating,
            ))

        gated = run(TimeoutGating(idle_timeout=16))
        plain = run(None)
        assert gated.avg_latency > plain.avg_latency

    def test_router_with_buffered_flits_refuses_gating(self):
        topo = SprintTopology.for_level(4, 4, 16)
        network = Network(topo, build_routing_table(topo, "xy"), CFG)
        from repro.noc.flit import Packet

        network.inject(Packet(pid=0, source=0, destination=15, length=5, created_at=0))
        network.step()
        assert network.routers[0].buffered_flits > 0
        assert not network.routers[0].gate()
