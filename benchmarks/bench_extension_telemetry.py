"""Extension: telemetry overhead budget.

Telemetry is off when the bundle is ``None`` (instrumented code skips
every instrument), so an untraced run is the baseline here; perfbench's
end-to-end bounds gate its speed.  This bench measures one simulation
two ways -- the ``telemetry=None`` baseline and a
:class:`~repro.telemetry.Telemetry` bundle with periodic sampling --
with interleaved min-of-N timing (the interleave cancels drift, the min
discards scheduler noise), asserts the traced overhead stays under 50%,
and writes the numbers to ``BENCH_telemetry.json`` for CI to archive."""

import json
import time

from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.noc.sim import simulate
from repro.noc.spec import SimulationSpec, TrafficSpec
from repro.telemetry import Telemetry
from repro.util.tables import format_table

from benchmarks.common import once, report

ROUNDS = 7
SAMPLE_INTERVAL = 200
OVERHEAD_BUDGET_PCT = 50.0
OUTPUT = "BENCH_telemetry.json"


def bench_spec() -> SimulationSpec:
    cfg = NoCConfig()
    topo = SprintTopology.for_level(4, 4, 8)
    return SimulationSpec(
        topology=topo,
        traffic=TrafficSpec(tuple(topo.active_nodes), 0.15,
                            cfg.packet_length_flits, "uniform", seed=3),
        config=cfg, routing="cdor",
        warmup_cycles=300, measure_cycles=1500, drain_cycles=4000,
    )


def measure():
    spec = bench_spec()
    variants = {
        "baseline": lambda: None,
        "enabled": lambda: Telemetry(sample_interval=SAMPLE_INTERVAL),
    }
    for make in variants.values():  # warm every code path before timing
        simulate(spec, telemetry=make())
    best = {name: float("inf") for name in variants}
    for _ in range(ROUNDS):
        for name, make in variants.items():
            telemetry = make()  # fresh bundle: no event-list accumulation
            start = time.perf_counter()
            simulate(spec, telemetry=telemetry)
            best[name] = min(best[name], time.perf_counter() - start)
    overhead = 100.0 * (best["enabled"] - best["baseline"]) / best["baseline"]
    payload = {
        "baseline_s": best["baseline"],
        "enabled_s": best["enabled"],
        "enabled_overhead_pct": overhead,
        "rounds": ROUNDS,
        "sample_interval_cycles": SAMPLE_INTERVAL,
        "budget_pct": OVERHEAD_BUDGET_PCT,
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    return payload


def test_extension_telemetry_overhead(benchmark):
    payload = once(benchmark, measure)
    body = format_table(
        ["variant", "best of 7 (ms)", "overhead %"],
        [
            ["baseline (telemetry=None)", payload["baseline_s"] * 1e3, 0.0],
            [f"enabled (sample every {SAMPLE_INTERVAL} cyc)",
             payload["enabled_s"] * 1e3, payload["enabled_overhead_pct"]],
        ],
        float_format="{:.2f}",
    )
    report("Extension: telemetry overhead budget", body)
    print(f"    machine-readable copy: {OUTPUT}")

    # enabled telemetry must stay usable -- an order-of-magnitude
    # slowdown would make --trace pointless on real sweeps
    assert payload["enabled_overhead_pct"] < OVERHEAD_BUDGET_PCT
