"""Simulation facade: spec in, result out, backend-pluggable.

:func:`simulate` (and its keyword-friendly wrapper :func:`run_simulation`)
is the single entry point every caller -- the sweep engine, the CMP model,
the CLI, the benchmarks -- goes through to run a network simulation.  The
actual engine is looked up in the backend registry
(:mod:`repro.noc.backends`) by name: ``"reference"`` is the cycle-accurate
object-model simulator and the default; ``"vectorized"`` is the compiled
fast path (:mod:`repro.noc.backends.native`), which hands the runs its
kernel does not cover to the reference engine.  The spec's declared
capability needs (faults, timeout gating, adaptive routing, telemetry
sampling) are checked against the chosen backend before the run starts,
so a fast path declines what it cannot simulate instead of silently
mis-simulating it.

The warmup / measure / drain methodology itself lives with the backends
(see :mod:`repro.noc.backends.reference`); :class:`SimulationResult` is
re-exported here for compatibility -- including for results pickled by
older versions into the on-disk result cache.
"""

from __future__ import annotations

import dataclasses

from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.noc.backends import check_capabilities, get_backend
from repro.noc.power_gating import TimeoutGatingPolicy
from repro.noc.result import SimulationResult
from repro.noc.spec import SimulationSpec, TimeoutGating, stable_key
from repro.noc.traffic import TrafficGenerator

__all__ = [
    "SimulationResult",
    "run_simulation",
    "simulate",
    "zero_load_cache",
    "zero_load_latency",
]


def simulate(
    spec: SimulationSpec, gating_policy=None, telemetry=None, backend: str | None = None
) -> SimulationResult:
    """Run the simulation a :class:`~repro.noc.spec.SimulationSpec` describes.

    The traffic generator is rebuilt from the spec's declarative traffic
    description, so the result is a pure function of the spec: the same
    spec yields bit-identical results in any process, which is what lets
    the sweep engine (:mod:`repro.exec`) parallelize and cache runs.

    ``backend`` overrides the spec's ``backend`` field for this call (the
    spec field is what the result cache keys on; the override is for
    callers that own their caching, like the equivalence tests).  The
    chosen engine's declared capabilities are checked against what the
    run needs -- a :class:`~repro.noc.backends.BackendCapabilityError`
    explains any mismatch.

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`, optional) records
    phase spans, periodic per-router samples and run counters; it never
    influences the simulation itself, so results stay bit-identical with
    telemetry on, off, or absent.

    ``backend="auto"`` (in the spec or the override) picks the fastest
    registered backend whose capabilities cover this run, via
    :func:`repro.noc.backends.resolve_backend`.

    ``gating_policy`` (an exact
    :class:`~repro.noc.power_gating.TimeoutGatingPolicy`) runs as the
    equivalent ``spec.gating`` value, and the run's ``result.gating``
    counters are added to its ``stats``.
    """
    if gating_policy is not None:
        spec = dataclasses.replace(spec, gating=_gating_of(gating_policy))
    name = backend if backend is not None else spec.backend
    if name == "auto":
        from repro.noc.backends import resolve_backend

        engine = resolve_backend(spec, telemetry=telemetry)
    else:
        engine = get_backend(name)
        check_capabilities(engine, spec, telemetry)
    result = engine.run(spec, telemetry=telemetry)
    _credit(gating_policy, result)
    return result


def _gating_of(policy) -> TimeoutGating:
    """The spec value a ``gating_policy=`` argument stands for.

    Timeout gating is spec data, so only an exact
    :class:`~repro.noc.power_gating.TimeoutGatingPolicy` has one; a
    subclass or any other per-cycle policy object is refused.
    """
    if type(policy) is not TimeoutGatingPolicy:
        raise TypeError(
            "gating_policy must be a TimeoutGatingPolicy, not "
            f"{type(policy).__name__}; timeout gating is the spec field "
            "SimulationSpec.gating"
        )
    return TimeoutGating(policy.idle_timeout, policy.protected_nodes)


def _credit(policy, result: SimulationResult) -> None:
    """Add a gated run's counters to its ``gating_policy=`` argument."""
    if policy is not None:
        stats = policy.stats
        stats.gate_events += result.gating.gate_events
        stats.wake_events += result.gating.wake_events
        stats.gated_router_cycles += result.gating.gated_router_cycles


def run_simulation(
    topology: SprintTopology | SimulationSpec,
    traffic: TrafficGenerator | None = None,
    config: NoCConfig | None = None,
    routing: str = "cdor",
    warmup_cycles: int = 500,
    measure_cycles: int = 2000,
    drain_cycles: int = 30000,
    gating_policy=None,
    faults=None,
    telemetry=None,
    backend: str | None = None,
) -> SimulationResult:
    """Simulate a topology under a traffic load and collect statistics.

    Preferred form: ``run_simulation(spec)`` with a single
    :class:`~repro.noc.spec.SimulationSpec` (see :func:`simulate`), where
    ``backend=`` selects the simulation engine by registry name.  The
    keyword form below is retained as a thin back-compat wrapper and may be
    deprecated in a future release; it takes a live
    :class:`~repro.noc.traffic.TrafficGenerator`, whose consumed RNG state
    makes the run ineligible for result caching (and, for the same reason,
    restricts the keyword form to the ``"reference"`` backend: the other
    engines consume the traffic process on their own schedule).

    ``routing`` is ``"cdor"``, ``"xy"``, or one of the adaptive turn models
    (``"west_first"``, ``"negative_first"``; full mesh only).
    ``gating_policy``, if given, must be exactly a
    :class:`repro.noc.power_gating.TimeoutGatingPolicy` (used by the
    run-time power-gating ablation; the main NoC-sprinting experiments
    power-gate statically by never instantiating dark routers).  It runs
    as the equivalent ``SimulationSpec.gating`` value, and the run's
    ``result.gating`` counters are added to its ``stats``; any other
    policy object raises :class:`TypeError`.
    """
    if isinstance(topology, SimulationSpec):
        return simulate(topology, gating_policy=gating_policy,
                        telemetry=telemetry, backend=backend)
    if traffic is None:
        raise TypeError("run_simulation needs a TrafficGenerator (or a SimulationSpec)")
    if backend is not None and backend != "reference":
        raise ValueError(
            "a live TrafficGenerator pins run_simulation to the 'reference' "
            "backend; pass a SimulationSpec to select another engine"
        )
    from repro.noc.backends.reference import _execute

    result = _execute(
        topology,
        traffic,
        config or NoCConfig(),
        routing,
        warmup_cycles,
        measure_cycles,
        drain_cycles,
        _gating_of(gating_policy) if gating_policy is not None else None,
        faults=faults,
        telemetry=telemetry,
    )
    _credit(gating_policy, result)
    return result


_zero_load_cache = None


def zero_load_cache():
    """The process-wide memo behind :func:`zero_load_latency` (lazy)."""
    global _zero_load_cache
    if _zero_load_cache is None:
        from repro.exec.cache import ResultCache

        _zero_load_cache = ResultCache()
    return _zero_load_cache


def zero_load_latency(
    topology: SprintTopology,
    config: NoCConfig | None = None,
    routing: str = "cdor",
) -> float:
    """Analytic zero-load packet latency averaged over all endpoint pairs.

    Head latency is ``pipeline_stages`` cycles per hop plus the final
    ejection, and the tail trails the head by ``packet_length - 1`` cycles.
    It is an analytic reference for simulated latency; no model in the
    package calls it.

    The O(n^2) pair walk is memoized per (topology, config, routing) in a
    process-wide :class:`~repro.exec.cache.ResultCache`, so repeated
    calls pay for each distinct topology once.
    """
    cfg = config or NoCConfig()
    cache = zero_load_cache()
    key = stable_key(("zero_load_latency", topology, cfg, routing))
    cached = cache.get(key)
    if cached is not None:
        return cached
    value = _zero_load_latency(topology, cfg, routing)
    cache.put(key, value)
    return value


def _zero_load_latency(
    topology: SprintTopology, cfg: NoCConfig, routing: str
) -> float:
    from repro.core.cdor import CdorRouter
    nodes = topology.active_nodes
    if len(nodes) < 2:
        # local delivery: injection + ejection pipeline only
        return cfg.router_pipeline_stages + cfg.packet_length_flits - 1
    router = CdorRouter(topology)
    total = 0.0
    pairs = 0
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            hop_count = router.hop_count(src, dst)
            head = cfg.router_pipeline_stages * (hop_count + 1)
            total += head + cfg.packet_length_flits - 1
            pairs += 1
    return total / pairs
