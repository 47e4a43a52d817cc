"""Cycle-level NoC simulator (booksim 2.0 / Garnet substitute).

Wormhole, virtual-channel, credit-based flow control, five-stage router
pipeline, synthetic traffic, booksim-style warmup/measure/drain statistics,
and router power gating.
"""

from repro.util.lazy import lazy_exports

#: public name -> the module it is imported from on first access
_EXPORTS = {
    "NetworkActivity": ".activity",
    "RouterActivity": ".activity",
    "SimBackend": ".backends",
    "get_backend": ".backends",
    "list_backends": ".backends",
    "register_backend": ".backends",
    "Flit": ".flit",
    "Packet": ".flit",
    "make_flits": ".flit",
    "Network": ".network",
    "Router": ".network",
    "StaticGatingPlan": ".power_gating",
    "TimeoutGatingPolicy": ".power_gating",
    "break_even_cycles": ".power_gating",
    "static_plan_for_topology": ".power_gating",
    "LlcSimulationResult": ".llc_sim",
    "run_llc_simulation": ".llc_sim",
    "ADAPTIVE_ALGORITHMS": ".adaptive",
    "build_adaptive_table": ".adaptive",
    "build_routing_table": ".routing",
    "SimulationResult": ".sim",
    "run_simulation": ".sim",
    "simulate": ".sim",
    "zero_load_latency": ".sim",
    "SimulationSpec": ".spec",
    "TrafficSpec": ".spec",
    "stable_key": ".spec",
    "TraceRecorder": ".trace",
    "TraceTraffic": ".trace",
    "TrafficGenerator": ".traffic",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "NetworkActivity",
    "RouterActivity",
    "SimBackend",
    "get_backend",
    "list_backends",
    "register_backend",
    "Flit",
    "Packet",
    "make_flits",
    "Network",
    "Router",
    "StaticGatingPlan",
    "TimeoutGatingPolicy",
    "break_even_cycles",
    "static_plan_for_topology",
    "build_routing_table",
    "LlcSimulationResult",
    "run_llc_simulation",
    "SimulationResult",
    "SimulationSpec",
    "TrafficSpec",
    "run_simulation",
    "simulate",
    "stable_key",
    "zero_load_latency",
    "TrafficGenerator",
    "ADAPTIVE_ALGORITHMS",
    "build_adaptive_table",
    "TraceRecorder",
    "TraceTraffic",
]
