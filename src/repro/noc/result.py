"""The simulation outcome value every backend produces.

:class:`SimulationResult` lives in its own module so that simulation
*backends* (:mod:`repro.noc.backends`) and the driver facade
(:mod:`repro.noc.sim`) can share it without importing each other.  The
class is re-exported from :mod:`repro.noc.sim`, so results pickled by
older versions (the on-disk :class:`~repro.exec.cache.ResultCache`
records the class by its import path) keep unpickling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.noc.activity import NetworkActivity
from repro.noc.power_gating import GatingStats


@dataclass
class SimulationResult:
    """Outcome of one network simulation run."""

    avg_latency: float
    avg_hops: float
    max_latency: int
    p50_latency: float
    p95_latency: float
    p99_latency: float
    packets_measured: int
    packets_ejected: int
    offered_flits_per_cycle: float  # per endpoint
    accepted_flits_per_cycle: float  # per endpoint, over the measure window
    saturated: bool
    cycles_run: int
    measure_cycles: int
    activity: NetworkActivity = field(repr=False, default_factory=NetworkActivity)
    endpoint_count: int = 0
    # fault-injection outcome (all zero unless the spec carried a
    # non-empty FaultSchedule, so fault-free runs are bit-identical to
    # results produced before faults existed)
    packets_dropped: int = 0
    packets_retransmitted: int = 0
    packets_rerouted: int = 0
    reconfigurations: int = 0
    min_region_level: int = 0
    # timeout-gating counters; None unless the spec carried
    # SimulationSpec.gating (results pickled before the field existed
    # read the class default)
    gating: GatingStats | None = None

    @property
    def powered_router_count(self) -> int:
        return len(self.activity.routers)

    @property
    def degraded(self) -> bool:
        """True when a fault forced the network to reconfigure mid-run."""
        return self.reconfigurations > 0

    def to_wire(self) -> dict:
        """JSON-ready scalar summary for the service wire format.

        The per-router/per-link :class:`NetworkActivity` ledger is
        deliberately omitted: it is an in-process power-model input, not
        part of the result contract clients consume, and it dwarfs the
        scalars.  Fields mirror the dataclass so two backends that agree
        bit-for-bit serialize identically.  ``gating`` appears only for a
        gated run, so ungated results keep their wire body.
        """
        wire = {
            "v": 1,
            "kind": "simulation_result",
            "result": {
                "avg_latency": self.avg_latency,
                "avg_hops": self.avg_hops,
                "max_latency": self.max_latency,
                "p50_latency": self.p50_latency,
                "p95_latency": self.p95_latency,
                "p99_latency": self.p99_latency,
                "packets_measured": self.packets_measured,
                "packets_ejected": self.packets_ejected,
                "offered_flits_per_cycle": self.offered_flits_per_cycle,
                "accepted_flits_per_cycle": self.accepted_flits_per_cycle,
                "saturated": self.saturated,
                "cycles_run": self.cycles_run,
                "measure_cycles": self.measure_cycles,
                "endpoint_count": self.endpoint_count,
                "packets_dropped": self.packets_dropped,
                "packets_retransmitted": self.packets_retransmitted,
                "packets_rerouted": self.packets_rerouted,
                "reconfigurations": self.reconfigurations,
                "min_region_level": self.min_region_level,
            },
        }
        if self.gating is not None:
            wire["result"]["gating"] = asdict(self.gating)
        return wire


__all__ = ["SimulationResult"]
