"""The vectorized fast-path backend.

Simulates exactly the same five-stage wormhole VC pipeline as the
reference backend (:mod:`repro.noc.backends.reference`) on the compiled
flat-array kernel of :mod:`repro.noc.backends.native`: per-router
buffers, credits, VC allocations and round-robin pointers live in flat
arrays, the traffic process is drawn inside the kernel from the same
MT19937 stream, and every arbitration order, credit timing and pointer
update replicates the reference decision for decision.  For any spec the
two backends produce *bit-identical*
:class:`~repro.noc.result.SimulationResult` values (enforced by the
cross-backend equivalence suite in ``tests/test_backends.py`` and the CI
gate in ``benchmarks/bench_extension_backend.py``).

The kernel covers every spec feature: fault schedules (a chain of
per-region kernel segments with the reference's drop-and-retransmit
policy replayed between them), adaptive routing, telemetry sampling and
tracing, and ``SimulationSpec.gating`` timeout gating (the
:class:`~repro.noc.power_gating.TimeoutGatingPolicy` rules run inside the
kernel, including the 8-cycle demand wakeup).  A run the kernel does not
cover goes to the reference engine, so results never depend on the host:

- no C compiler on the host, or ``REPRO_NOC_NATIVE=0``;
- more than ``native._MAX_VCS`` virtual channels per port;
- a traffic endpoint list that repeats a node.
"""

from __future__ import annotations

import numpy as np

from repro.noc.backends import native
from repro.noc.backends.reference import ReferenceBackend
from repro.noc.result import SimulationResult
from repro.noc.spec import SimulationSpec
from repro.noc.traffic import TrafficGenerator

_REFERENCE = ReferenceBackend()

# ``perfbench/layers.py`` (frozen with the repository benchmark) binds
# these two names to time Python traffic draws.  No engine draws traffic
# through them any more -- the kernel draws its own -- so the traced
# ``traffic`` layer reads zero.
_CHUNK = 1024  # cycles of traffic drawn per batch


class _PacketSchedule:
    """Chunked pre-generation of a traffic process (per-cycle packet
    lists, with the per-cycle packet counts in a NumPy array)."""

    def __init__(self, traffic: TrafficGenerator, warmup: int, measure_end: int):
        self._traffic = traffic
        self._warmup = warmup
        self._measure_end = measure_end
        self._cycles: list[list] = []
        self._counts = np.zeros(0, dtype=np.int64)
        self._upto = 0  # cycles generated so far

    def _extend(self) -> None:
        base = self._upto
        chunk = np.zeros(_CHUNK, dtype=np.int64)
        for offset in range(_CHUNK):
            cycle = base + offset
            packets = self._traffic.packets_for_cycle(
                cycle, measured=self._warmup <= cycle < self._measure_end
            )
            self._cycles.append(packets)
            chunk[offset] = len(packets)
        self._counts = np.concatenate((self._counts, chunk))
        self._upto += _CHUNK


class VectorizedBackend:
    """Flat-array exact replica of the reference pipeline."""

    name = "vectorized"

    def run(self, spec: SimulationSpec, *, telemetry=None) -> SimulationResult:
        result = native.execute(spec, telemetry=telemetry)
        if result is None:  # not covered by the kernel: same bits, slower
            result = _REFERENCE.run(spec, telemetry=telemetry)
        return result


__all__ = ["VectorizedBackend"]
