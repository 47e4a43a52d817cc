"""Ablation: CDOR in-region routing vs plain XY over the full mesh.

Two costs of ignoring the sprint region: (a) XY forwards active-to-active
packets through dark routers, forcing wakeups the static gating scheme
would otherwise never pay; (b) keeping forwarding routers powered burns
leakage.  CDOR eliminates both with <2 % switch area."""

from repro.config import NoCConfig
from repro.core.gating_policy import xy_wakeups_through_dark
from repro.core.topological import SprintTopology
from repro.noc.sim import run_simulation
from repro.noc.spec import SimulationSpec, TimeoutGating, TrafficSpec
from repro.util.tables import format_table

from benchmarks.common import once, report

CFG = NoCConfig()


def offending_pairs():
    rows = []
    for level in range(2, 16):
        topo = SprintTopology.for_level(4, 4, level)
        pairs = level * (level - 1)
        offending = xy_wakeups_through_dark(topo)
        rows.append((level, pairs, offending, 100 * offending / pairs))
    return rows


def wakeup_latency_cost(level=8, rate=0.05):
    """Run the same active-core traffic two ways: CDOR on the static region
    vs XY on the full mesh with timeout gating (the conventional scheme).
    Both run on ``backend="auto"``, which puts the gated run on the C
    kernel too."""
    region = SprintTopology.for_level(4, 4, level)
    traffic = TrafficSpec(tuple(region.active_nodes), rate,
                          CFG.packet_length_flits, seed=3)
    cdor = run_simulation(SimulationSpec(
        region, traffic, CFG, routing="cdor", warmup_cycles=300,
        measure_cycles=1500, backend="auto"))

    full = SprintTopology.for_level(4, 4, 16)
    xy = run_simulation(SimulationSpec(
        full, traffic, CFG, routing="xy", warmup_cycles=300,
        measure_cycles=1500, backend="auto",
        gating=TimeoutGating(idle_timeout=32)))
    return cdor, xy


def test_ablation_xy_wakeups(benchmark):
    rows = benchmark(offending_pairs)
    body = format_table(
        ["level", "active pairs", "XY pairs through dark", "share %"],
        [list(r) for r in rows],
        float_format="{:.1f}",
    )
    report("Ablation: XY-through-dark wakeup pressure vs CDOR (zero)", body)
    assert any(offending > 0 for _, _, offending, _ in rows)
    # CDOR has zero by construction (verified in tests); XY worst case is material
    assert max(share for *_, share in rows) > 10.0


def test_ablation_wakeup_latency(benchmark):
    cdor, xy = once(benchmark, wakeup_latency_cost)
    body = (
        f"CDOR on static region: {cdor.avg_latency:.1f} cycles, 0 wakeups\n"
        f"XY + timeout gating:   {xy.avg_latency:.1f} cycles, "
        f"{xy.gating.wake_events} wakeups, {xy.gating.gate_events} gate-offs"
    )
    report("Ablation: routing scheme under sparse sprint traffic", body)
    assert cdor.avg_latency < xy.avg_latency
    assert xy.gating.wake_events > 0
