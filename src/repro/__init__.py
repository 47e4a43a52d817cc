"""repro -- a full reproduction of *NoC-Sprinting: Interconnect for
Fine-Grained Sprinting in the Dark Silicon Era* (Zhan, Xie, Sun; DAC 2014).

The package provides:

- :mod:`repro.core` -- the paper's contribution: topological sprinting
  (Algorithm 1), CDOR routing (Algorithm 2), thermal-aware floorplanning
  (Algorithms 3-4), sprint-aware network power gating, the sprint
  controller, and the end-to-end :class:`~repro.core.NoCSprintingSystem`.
- :mod:`repro.noc` -- a cycle-level wormhole VC network simulator
  (booksim/Garnet substitute).
- :mod:`repro.power` -- router/link energy (DSENT substitute) and chip
  power (McPAT substitute) models.
- :mod:`repro.thermal` -- an RC thermal grid (HotSpot substitute) and the
  phase-change-material sprint-duration model.
- :mod:`repro.cmp` -- PARSEC 2.1 workload profiles and the CMP
  execution-time model (gem5 substitute).

Quick start::

    from repro import NoCSprintingSystem

    system = NoCSprintingSystem()
    row = system.evaluate("dedup", "noc_sprinting", simulate_network=True)
    print(row.level, row.speedup, row.network.avg_latency)

The stable entry points (documented in ``docs/api.md``) are re-exported
here: the system facade and its :class:`~repro.core.system.EvaluationReport`,
the declarative :class:`~repro.noc.spec.SimulationSpec` /
:class:`~repro.noc.spec.TrafficSpec` pair with
:func:`~repro.noc.sim.run_simulation`, the sweep engine
(:class:`~repro.exec.SweepRunner`, :class:`~repro.exec.ResultCache`), and
the simulation-backend registry
(:func:`~repro.noc.backends.register_backend` /
:func:`~repro.noc.backends.get_backend` /
:func:`~repro.noc.backends.list_backends`), the run-history
observatory (:class:`~repro.telemetry.Ledger`,
:func:`~repro.telemetry.compare_runs`), and the versioned wire codec
behind the ``repro serve`` HTTP API
(:func:`~repro.noc.spec.spec_to_wire` /
:func:`~repro.noc.spec.spec_from_wire`, with
:meth:`EvaluationReport.to_wire` for report documents; see
``docs/service.md``).
"""

from repro.util.lazy import lazy_exports

#: public name -> the module it is imported from on first access
_EXPORTS = {
    "NoCConfig": ".config",
    "SystemConfig": ".config",
    "default_config": ".config",
    "CdorRouter": ".core",
    "NoCSprintingSystem": ".core",
    "SprintController": ".core",
    "SprintPlan": ".core",
    "SprintTopology": ".core",
    "check_deadlock_freedom": ".core",
    "sprint_order": ".core",
    "thermal_aware_floorplan": ".core",
    "EvaluationReport": ".core.system",
    "ResultCache": ".exec",
    "SweepRunner": ".exec",
    "SimulationSpec": ".noc",
    "TrafficSpec": ".noc",
    "run_simulation": ".noc",
    "get_backend": ".noc.backends",
    "list_backends": ".noc.backends",
    "register_backend": ".noc.backends",
    "WIRE_VERSION": ".noc.spec",
    "WireFormatError": ".noc.spec",
    "spec_from_wire": ".noc.spec",
    "spec_to_wire": ".noc.spec",
    "Ledger": ".telemetry",
    "RunRecord": ".telemetry",
    "compare_runs": ".telemetry",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__version__ = "1.0.0"

__all__ = [
    # configuration
    "NoCConfig",
    "SystemConfig",
    "default_config",
    # the paper's mechanisms
    "CdorRouter",
    "SprintController",
    "SprintPlan",
    "SprintTopology",
    "check_deadlock_freedom",
    "sprint_order",
    "thermal_aware_floorplan",
    # system facade
    "NoCSprintingSystem",
    "EvaluationReport",
    # declarative simulation + sweep engine
    "SimulationSpec",
    "TrafficSpec",
    "run_simulation",
    "SweepRunner",
    "ResultCache",
    # the versioned wire codec (the `repro serve` contract)
    "WIRE_VERSION",
    "WireFormatError",
    "spec_to_wire",
    "spec_from_wire",
    # simulation-backend registry
    "register_backend",
    "get_backend",
    "list_backends",
    # run ledger + cross-run diffing
    "Ledger",
    "RunRecord",
    "compare_runs",
    "__version__",
]
