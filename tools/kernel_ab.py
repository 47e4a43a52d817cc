"""Kernel-time A/B of the C kernel against another kernel source.

    PYTHONPATH=src python tools/kernel_ab.py OTHER.c [--rounds 5]

OTHER.c is a kernel translation unit whose ``run_kernel`` takes the
production arguments -- for instance an earlier commit's
``native._KERNEL_SOURCE`` written out to a file.  The tool

1. builds it with the production flags (``native._compile``) and the
   production argument types (``native._declare``); a symbol OTHER.c
   lacks, such as ``mt_seed`` in a source older than the library-seeded
   MT19937, comes from the production build;
2. runs the Figure 9 grid at three traffic seeds and one pass of the
   saturation grid through ``native.execute`` on both libraries,
   interleaved A-B-B-A per spec, for ``--rounds`` rounds;
3. exits 1, printing no ratio, unless every result is identical;
4. otherwise prints, per grid, OTHER's time over the production
   library's: the wall and thread CPU time inside ``run_kernel``, and
   the wall and thread CPU time of ``native.execute`` (above 1.00x the
   production kernel is faster).

Thread CPU time is the steadier reading on a shared host, where another
tenant's load lands in wall time; an A/A run (OTHER.c the production
source) shows the noise floor.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import os
import sys
import tempfile
import time
from pathlib import Path

from kernel_sanitize import fig9_cases, saturation_cases

from repro.noc.backends import native  # on the path kernel_sanitize set


class Kernel:
    """A kernel library as ``native.execute`` calls it: a symbol ``lib``
    lacks comes from ``fallback``, and the wall and thread CPU seconds
    inside ``run_kernel`` are summed in ``spent``."""

    def __init__(self, lib, fallback):
        self._lib, self._fallback = lib, fallback
        self.spent = [0.0, 0.0]
        native._declare(self)
        call = lib.run_kernel

        def run_kernel(*args):
            wall, cpu = time.perf_counter(), time.thread_time()
            try:
                return call(*args)
            finally:
                self.spent[1] += time.thread_time() - cpu
                self.spent[0] += time.perf_counter() - wall

        self.run_kernel = run_kernel

    def __getattr__(self, name):
        try:
            return getattr(self._lib, name)
        except AttributeError:
            return getattr(self._fallback, name)


def run(kernel: Kernel, spec, totals: list) -> dict:
    """``spec``'s result on ``kernel``; adds the kernel's wall and CPU
    seconds and the whole call's to ``totals``."""
    native._lib = kernel
    before = list(kernel.spent)
    wall, cpu = time.perf_counter(), time.thread_time()
    result = native.execute(spec)
    totals[3] += time.thread_time() - cpu
    totals[2] += time.perf_counter() - wall
    totals[0] += kernel.spent[0] - before[0]
    totals[1] += kernel.spent[1] - before[1]
    if result is None:
        raise RuntimeError("the kernel declined the run")
    return dataclasses.asdict(result)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", help="the other kernel's C source")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    if not native.available():
        print("the C kernel is not available (no compiler?)")
        return 1
    production = native._lib
    source = Path(args.other).read_text(encoding="utf-8")
    grids = {
        "fig9 x3 seeds": [spec for _, spec in fig9_cases(seeds=(0, 1, 2))],
        "saturation": [spec for _, spec in saturation_cases()],
    }
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "other.so")
        native._compile(source, native._CFLAGS, path)
        this = Kernel(production, production)
        other = Kernel(ctypes.CDLL(path), production)
        # per grid, for this and the other: kernel wall and CPU seconds,
        # then execute()'s
        totals = {name: ([0.0] * 4, [0.0] * 4) for name in grids}
        mismatched = 0
        try:
            for _ in range(args.rounds):
                for name, specs in grids.items():
                    mine, theirs = totals[name]
                    for spec in specs:
                        results = [run(this, spec, mine),
                                   run(other, spec, theirs),
                                   run(other, spec, theirs),
                                   run(this, spec, mine)]
                        if any(r != results[0] for r in results[1:]):
                            mismatched += 1
        finally:
            native._lib = production
    if mismatched:
        print(f"{mismatched} spec runs differ between the libraries; "
              f"no ratio is printed")
        return 1
    for name, specs in grids.items():
        mine, theirs = totals[name]
        runs = 2 * args.rounds * len(specs)
        ratios = "  ".join(
            f"{label} {t / m:.3f}x ({t / runs * 1e3:.3f} vs "
            f"{m / runs * 1e3:.3f} ms)"
            for label, m, t in zip(
                ("kernel wall", "kernel CPU", "execute wall", "execute CPU"),
                mine, theirs)
        )
        print(f"{name} ({len(specs)} specs, {args.rounds} rounds), "
              f"other/this: {ratios}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
