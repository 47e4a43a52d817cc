"""Extension: simulation-backend speedup and equivalence gate.

The vectorized backend exists for one reason -- to make large sweeps
cheap -- and is only allowed to exist under one condition: it must return
the *same bits* as the reference simulator on every run it accepts.  This
bench runs the full Figure 9 spec grid (every PARSEC workload under both
sprinting schemes) through each backend, then a *faulted* variant of the
same grid through ``backend="auto"`` (which resolves to the fast path now
that it carries the full capability set), times every pass wall-clock,
checks every result field pairwise, and writes the numbers to
``BENCH_backend.json`` for CI to archive.  It needs the C kernel: without
a compiler the vectorized backend runs on the reference engine and there
is no speedup to gate, so the bench fails with that message up front.

Gates (CI fails on any):

- wall-clock speedup of the vectorized pass over the reference pass must
  be at least ``MIN_NATIVE_SPEEDUP`` (10x);
- the faulted grid through ``backend="auto"`` must clear the same bar --
  fault parity that is not fast would leave the resilience sweeps on the
  slow engine;
- the largest per-field divergence across all points must not exceed
  ``MAX_DELTA`` (1e-9 -- effectively bit-identical; integer fields,
  fault/reconfiguration counters included, must match exactly).
"""

import dataclasses
import json
import time

from repro.noc.sim import simulate
from repro.noc.spec import FaultEvent, FaultSchedule
from repro.util.tables import format_table

from benchmarks.common import once, report
from benchmarks.bench_fig09_network_latency import paired_specs

MIN_NATIVE_SPEEDUP = 10.0
MAX_DELTA = 1e-9
OUTPUT = "BENCH_backend.json"

_FLOAT_FIELDS = ("avg_latency", "avg_hops", "p50_latency", "p95_latency",
                 "p99_latency", "offered_flits_per_cycle",
                 "accepted_flits_per_cycle")
_INT_FIELDS = ("max_latency", "packets_measured", "packets_ejected",
               "cycles_run", "measure_cycles", "endpoint_count", "saturated",
               "packets_dropped", "packets_retransmitted", "packets_rerouted",
               "reconfigurations", "min_region_level")


def _timed_pass(specs, backend):
    """Run every spec on one backend; one wall-clock for the whole grid."""
    start = time.perf_counter()
    results = [simulate(spec, backend=backend) for spec in specs]
    return time.perf_counter() - start, results


def _max_divergence(ref, fast):
    """Largest |delta| over the float fields; ints must match exactly."""
    worst = 0.0
    for a, b in zip(ref, fast):
        for name in _INT_FIELDS:
            if getattr(a, name) != getattr(b, name):
                return float("inf")
        for name in _FLOAT_FIELDS:
            worst = max(worst, abs(getattr(a, name) - getattr(b, name)))
        da = dataclasses.asdict(a.activity)
        if da != dataclasses.asdict(b.activity):
            return float("inf")
    return worst


def _faulted_specs():
    """The fig-9 grid with a mid-measure transient router fault per point.

    The victim is the highest-numbered active non-master node, so every
    spec reconfigures to a degraded convex region and back -- the workload
    the resilience benchmarks put on the fast path.  Regions below four
    routers are skipped (too little region left to degrade meaningfully)
    and duplicate (profile, scheme) topologies are deduplicated.
    """
    _, specs = paired_specs()
    out, seen = [], set()
    for spec in specs:
        nodes = sorted(spec.topology.active_nodes)
        if len(nodes) < 4:
            continue
        victim = next(n for n in reversed(nodes) if n != spec.topology.master)
        faulted = dataclasses.replace(spec, faults=FaultSchedule(
            (FaultEvent(cycle=700, node=victim, duration=400),)))
        key = faulted.cache_key()
        if key not in seen:
            seen.add(key)
            out.append(faulted)
    return out


def measure():
    from repro.noc.backends import native

    if not native.available():
        raise RuntimeError(
            "the C kernel is unavailable (no C compiler on PATH, or "
            "REPRO_NOC_NATIVE=0): the vectorized backend would run on the "
            "reference engine, so there is no speedup to gate")
    labels, specs = paired_specs()
    faulted = _faulted_specs()
    # warm both code paths (native kernel compilation, routing tables)
    simulate(specs[0], backend="reference")
    simulate(specs[0], backend="vectorized")
    simulate(faulted[0], backend="auto")
    ref_s, ref = _timed_pass(specs, "reference")
    fast_s, fast = _timed_pass(specs, "vectorized")
    faulted_ref_s, faulted_ref = _timed_pass(faulted, "reference")
    faulted_auto_s, faulted_auto = _timed_pass(faulted, "auto")
    payload = {
        "spec_count": len(specs),
        "reference_s": ref_s,
        "vectorized_s": fast_s,
        "speedup": ref_s / fast_s,
        "max_field_delta": _max_divergence(ref, fast),
        "faulted_spec_count": len(faulted),
        "faulted_reference_s": faulted_ref_s,
        "faulted_auto_s": faulted_auto_s,
        "faulted_speedup": faulted_ref_s / faulted_auto_s,
        "faulted_max_field_delta": _max_divergence(faulted_ref, faulted_auto),
        "faulted_reconfigurations": sum(r.reconfigurations for r in faulted_auto),
        "min_speedup_gate": MIN_NATIVE_SPEEDUP,
        "max_delta_gate": MAX_DELTA,
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    return payload


def test_extension_backend_speedup_and_equivalence(benchmark):
    payload = once(benchmark, measure)
    body = format_table(
        ["pass", "wall (s)", "specs"],
        [
            ["reference", payload["reference_s"], payload["spec_count"]],
            ["vectorized", payload["vectorized_s"], payload["spec_count"]],
            ["reference (faulted)", payload["faulted_reference_s"],
             payload["faulted_spec_count"]],
            ["auto (faulted)", payload["faulted_auto_s"],
             payload["faulted_spec_count"]],
        ],
        float_format="{:.3f}",
    )
    body += (f"\nspeedup: {payload['speedup']:.2f}x (C kernel);"
             f" max field delta: {payload['max_field_delta']:.2e}"
             f"\nfaulted grid via backend='auto': "
             f"{payload['faulted_speedup']:.2f}x across "
             f"{payload['faulted_reconfigurations']} reconfigurations;"
             f" max field delta: {payload['faulted_max_field_delta']:.2e}")
    report("Extension: simulation-backend speedup gate", body)
    print(f"    machine-readable copy: {OUTPUT}")

    # the contract docs/execution.md quotes: a fast path that is not fast
    # is dead weight, and one that drifts from the reference is a bug
    assert payload["speedup"] >= payload["min_speedup_gate"]
    assert payload["max_field_delta"] <= MAX_DELTA
    # the capability-parity contract: the faulted grid rides the fast
    # path end to end, at the same exactness and a comparable speedup
    assert payload["faulted_speedup"] >= payload["min_speedup_gate"]
    assert payload["faulted_max_field_delta"] <= MAX_DELTA
    assert payload["faulted_reconfigurations"] >= 2 * payload["faulted_spec_count"]
