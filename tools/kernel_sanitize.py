"""Warnings and undefined-behaviour pass over the C kernel.

    PYTHONPATH=src python tools/kernel_sanitize.py

1. compiles ``native._KERNEL_SOURCE`` with the production flags plus
   ``-Wall -Wextra -Werror``;
2. builds it with ``-O1 -g -fsanitize=undefined
   -fno-sanitize-recover=all``, so the first undefined operation (a shift
   past the word, a signed overflow, an out-of-bounds index into a fixed
   array) aborts the process;
3. loads that build through ctypes with the production argument types;
4. runs the Figure 9 grid, one pass of the saturation grid, saturated
   8x8 and 9x9 meshes (81 routers: two words per router bitset) and
   gated, faulted and extreme-VC-count runs through ``native.execute``
   on the sanitized build and on the production one;
5. exits 1 unless every result, activity counter and gating statistic
   is identical.
"""

from __future__ import annotations

import ctypes
import dataclasses
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.config import NoCConfig  # noqa: E402
from repro.core.topological import SprintTopology  # noqa: E402
from repro.noc.backends import native  # noqa: E402
from repro.noc.spec import (  # noqa: E402
    FaultEvent,
    FaultSchedule,
    SimulationSpec,
    TimeoutGating,
    TrafficSpec,
)

WARNING_FLAGS = (*native._CFLAGS, "-Wall", "-Wextra", "-Werror")
UBSAN_FLAGS = ("-O1", "-g", "-fsanitize=undefined", "-fno-sanitize-recover=all",
               "-ffp-contract=off", "-fPIC", "-shared")


def mesh_spec(width, level, rate, pattern, routing="cdor", seed=1,
              config=None, windows=(100, 300, 600), **kwargs):
    config = config or NoCConfig(mesh_width=width, mesh_height=width)
    topology = SprintTopology.for_level(width, width, level)
    traffic = TrafficSpec(tuple(topology.active_nodes), rate,
                          config.packet_length_flits, pattern, seed=seed)
    warmup, measure, drain = windows
    return SimulationSpec(topology, traffic, config, routing=routing,
                          warmup_cycles=warmup, measure_cycles=measure,
                          drain_cycles=drain, **kwargs)


def fig9_cases(seeds=(0,)):
    """(label, spec) for the Figure 9 grid once per traffic seed (the
    grid's own seed is 0)."""
    from benchmarks.bench_fig09_network_latency import paired_specs

    for seed in seeds:
        for k, spec in enumerate(paired_specs()[1]):
            yield f"fig9[{k}] seed {seed}", spec.with_seed(seed)


def saturation_cases():
    """(label, spec) for one pass of the saturation grid (perfbench's
    saturation-serial)."""
    for width, levels, rates in ((4, (8, 12, 16), (0.2, 0.3, 0.4, 0.5, 0.6)),
                                 (8, (32, 64), (0.1, 0.2, 0.3, 0.4))):
        for level in levels:
            for pattern in ("uniform", "tornado", "hotspot"):
                for rate in rates:
                    yield (f"sat {width}x{width} L{level} {pattern} {rate}",
                           mesh_spec(width, level, rate, pattern, seed=7,
                                     windows=(300, 1000, 5000)))


def cases():
    """(label, spec) for every run to compare."""
    yield from fig9_cases()
    yield from saturation_cases()
    yield "8x8 tornado", mesh_spec(8, 64, 0.4, "tornado")
    yield "8x8 hotspot", mesh_spec(8, 64, 0.3, "hotspot")
    # 81 routers: the kernel's per-router bitsets span two words
    yield "9x9 hotspot", mesh_spec(9, 81, 0.3, "hotspot")
    yield "8x8 west_first", mesh_spec(8, 64, 0.45, "uniform", "west_first")
    yield "4x4 gated", mesh_spec(4, 16, 0.3, "hotspot", "xy",
                                 gating=TimeoutGating(idle_timeout=8))
    faults = FaultSchedule((FaultEvent(cycle=200, node=5, duration=150),))
    yield ("4x4 faulted gated",
           mesh_spec(4, 16, 0.5, "uniform", faults=faults,
                     gating=TimeoutGating(idle_timeout=16)))
    for vcs, depth in ((1, 1), (native._MAX_VCS, 2)):
        config = NoCConfig(vcs_per_port=vcs, buffers_per_vc=depth)
        yield (f"{vcs} VCs", mesh_spec(4, 16, 0.5, "transpose", "west_first",
                                       config=config))


def observe(spec):
    result = native.execute(spec)
    if result is None:
        raise RuntimeError("the kernel declined the run")
    return dataclasses.asdict(result)


def compile_or_report(flags, target) -> bool:
    try:
        native._compile(native._KERNEL_SOURCE, flags, target)
    except subprocess.CalledProcessError as error:
        print(f"compile failed ({' '.join(flags)}):")
        print(error.stderr.decode(errors="replace"))
        return False
    return True


def main() -> int:
    if not native.available():
        print("the C kernel is not available (no compiler?)")
        return 1
    production = native._lib
    with tempfile.TemporaryDirectory() as work:
        if not compile_or_report(WARNING_FLAGS, os.path.join(work, "warn.so")):
            return 1
        print(f"warning-free: {' '.join(WARNING_FLAGS)}")
        sanitized_path = os.path.join(work, "ubsan.so")
        if not compile_or_report(UBSAN_FLAGS, sanitized_path):
            return 1
        sanitized = native._declare(ctypes.CDLL(sanitized_path))
        mismatches = runs = 0
        for label, spec in cases():
            native._lib = production
            expected = observe(spec)
            native._lib = sanitized
            try:
                observed = observe(spec)
            finally:
                native._lib = production
            runs += 1
            if observed != expected:
                mismatches += 1
                print(f"MISMATCH {label}")
    print(f"UBSan build ({' '.join(UBSAN_FLAGS)}): {runs} runs, "
          f"{mismatches} mismatched")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
