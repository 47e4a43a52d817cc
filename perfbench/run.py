"""Run one benchmark workload; print its metrics as one JSON line.

    python3 perfbench/run.py --workload fig9-serial --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics untraced, with every request's time scaled to a reference host
speed (``HostSpeed`` in workloads.py); ``--trace 1`` runs the separate
traced passes and prints the per-layer metrics instead.  Everything the
run writes (the compiled
kernel, per-run caches, ledgers, fabric queues) stays under
``.bench_work/`` in the checkout.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig9-serial", "saturation-serial", "serve-mixed")

IMPORT_REPEATS = 3
#: The set-up's imports, timed in a fresh interpreter at the checkout root.
IMPORT_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = ["src", ".", "perfbench"]
import workloads
print(time.perf_counter() - start)
"""

#: --trace 0 metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "requests_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: --trace 1 metrics: name -> unit.  A layer a workload never crosses
#: reads 0 (e.g. service.* on the sweeps, runner.fabric_s off fig-9).
PER_LAYER = {
    "spec.cache_key_ms": "ms/op",
    "spec.cache_key_calls_per_op": "count/op",
    "spec.from_wire_ms": "ms/op",
    "cache.hit_ratio": "ratio",
    "cache.get_ms": "ms/op",
    "cache.claim_ms": "ms/op",
    "cache.put_ms": "ms/op",
    "cache.manifest_ms": "ms/op",
    "cache.bytes_written": "bytes/op",
    "runner.self_ms": "ms/op",
    "runner.overhead_ms_per_point": "ms",
    "runner.busy_ratio": "ratio",
    "runner.pool_busy_ratio": "ratio",
    "runner.point_p50_ms": "ms",
    "runner.point_p95_ms": "ms",
    "runner.serial_s": "s",
    "runner.pool_s": "s",
    "runner.fabric_s": "s",
    "traffic.ms": "ms/op",
    "traffic.cycles_drawn": "cycles/point",
    "traffic.packets": "count/point",
    "traffic.useful_ratio": "ratio",
    "kernel.ms": "ms/op",
    "kernel.calls_per_point": "count/point",
    "kernel.ns_per_router_cycle": "ns",
    "kernel.sim_cycles": "cycles/point",
    "driver.ms": "ms/op",
    "driver.route_table_ms": "ms/op",
    "ledger.append_ms": "ms/op",
    "ledger.records": "count/op",
    "service.submit_ms": "ms/op",
    "service.wait_ms": "ms/op",
    "service.http_ms": "ms/op",
    "service.simulations": "count/op",
    "service.cache_served": "count/op",
    "service.coalesced": "count/op",
    "telemetry.replay_ms": "ms/op",
    "telemetry.overhead_ratio": "ratio",
    "other.ms": "ms/op",
    "trace.wall_ms": "ms/op",
    "trace.overhead_ratio": "ratio",
    "failed_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(wl, name: str, seed: int, workdir: str):
    if name == "fig9-serial":
        return wl.Fig9Serial(seed)
    if name == "saturation-serial":
        return wl.SaturationSerial(seed)
    return wl.ServeMixed(seed, workdir)


def imports_s(host) -> float:
    """Median host-scaled seconds of the set-up's imports.

    A process imports once, so the imports are repeated in child
    interpreters, each followed by a host-speed reading.
    """
    times = []
    for _ in range(IMPORT_REPEATS):
        child = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                               capture_output=True, text=True, check=True,
                               timeout=60)
        times.append(float(child.stdout) * host.scale())
    return statistics.median(times)


def end_to_end(wl, bench, args) -> tuple[dict, object]:
    host = wl.HostSpeed()
    host.scale()
    kernel_s = wl.kernel_load_s() * host.scale()
    setups = [bench.setup() * host.scale() for _ in range(wl.SETUP_REPEATS)]
    phase = bench.timed(args.seconds, host)
    bench.check(phase)
    peak_rss_mb = wl.peak_rss_mb()  # before the import probes' children
    start_s = imports_s(host) + kernel_s
    metrics = {
        "setup_s": start_s + statistics.median(setups),
        **bench.end_to_end(phase),
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"perfbench: set-up {start_s:.3f} s + {sorted(setups)} s; "
          f"timed wall {phase.wall_s:.2f} s, median host scale "
          f"{statistics.median(phase.scales or [1.0]):.3f}", file=sys.stderr)
    return metrics, phase


def per_layer(wl, bench, workdir: str) -> tuple[dict, object]:
    wl.kernel_load_s()
    bench.setup()
    untraced, traced, trace, extra = bench.traced(workdir)
    bench.check(untraced)
    ops = traced.attempted
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(trace.metrics(ops))
    metrics.update(extra)
    metrics["trace.overhead_ratio"] = (sum(wl.scaled_times(traced))
                                       / sum(wl.scaled_times(untraced)))
    coverage = trace.coverage()
    print(f"perfbench: layer self times cover {coverage:.4f} of the traced wall",
          file=sys.stderr)
    if abs(coverage - 1.0) > wl.TRACE_MARGIN:
        untraced.fail(f"layer self times cover {coverage:.3f} of the traced wall")
    metrics["failed_ratio"] = untraced.failed / max(1, untraced.attempted)
    return metrics, untraced


def run(args, workdir: str) -> dict:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import workloads as wl

    bench = make_workload(wl, args.workload, args.seed, workdir)
    try:
        if args.trace:
            metrics, phase = per_layer(wl, bench, workdir)
            units = PER_LAYER
        else:
            metrics, phase = end_to_end(wl, bench, args)
            units = END_TO_END
    finally:
        bench.close()
    for problem in phase.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    for name in units:
        print(f"perfbench: {name} = {metrics[name]:.6g} {units[name]}",
              file=sys.stderr)
    return {
        "correct": phase.failed == 0,
        "attempted": max(1, phase.attempted),
        "failed": phase.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    # the C kernel is compiled into (and cached under) the temp dir
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    try:
        with tempfile.TemporaryDirectory(dir=work, prefix="run-") as workdir:
            os.environ["REPRO_LEDGER_DIR"] = os.path.join(workdir, "ledger")
            result = run(args, workdir)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
