"""Simulation-backend protocol and registry.

A *backend* is an engine that executes a
:class:`~repro.noc.spec.SimulationSpec` and returns a
:class:`~repro.noc.result.SimulationResult`.  Backends register under a
short name (``"reference"``, ``"vectorized"``, ...) and declare a
``capabilities`` set; the driver (:func:`repro.noc.sim.simulate`) looks a
backend up by the spec's ``backend`` field and refuses the run with a
:class:`BackendCapabilityError` when the spec needs a feature the backend
does not implement -- so a fast path can decline fault schedules instead
of silently mis-simulating them.

Every future engine (sharded, async, GPU) slots in through
:func:`register_backend`; nothing else in the stack needs to change.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.noc.result import SimulationResult
from repro.noc.spec import SimulationSpec
from repro.telemetry import active

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

# capability tokens a backend may declare
CAP_FAULTS = "faults"  # mid-run FaultSchedule reconfiguration
CAP_GATING = "gating"  # SimulationSpec.gating: run-time timeout gating
CAP_ADAPTIVE_ROUTING = "adaptive_routing"  # west_first / negative_first
CAP_SAMPLING = "telemetry_sampling"  # periodic in-simulation samples
CAP_TRACING = "tracing"  # phase spans + end-of-run metrics

ALL_CAPABILITIES = frozenset(
    {CAP_FAULTS, CAP_GATING, CAP_ADAPTIVE_ROUTING, CAP_SAMPLING, CAP_TRACING}
)


@runtime_checkable
class SimBackend(Protocol):
    """What a simulation engine must provide to be registrable."""

    name: str
    capabilities: frozenset[str]

    def run(
        self, spec: SimulationSpec, *, telemetry: "Telemetry | None" = None
    ) -> SimulationResult:
        """Execute the spec and return its result."""
        ...  # pragma: no cover - protocol body


class BackendCapabilityError(ValueError):
    """A spec asked a backend for a feature it does not implement.

    Carries a structured payload alongside the message: ``missing`` is the
    capability tokens the backend lacks for this run, ``alternatives`` the
    names of registered backends whose declared capabilities do cover it.
    """

    def __init__(
        self,
        backend: str,
        missing: frozenset[str],
        hint: str = "",
        alternatives: tuple[str, ...] = (),
    ):
        self.backend = backend
        self.missing = frozenset(missing)
        self.alternatives = tuple(alternatives)
        needs = ", ".join(sorted(self.missing))
        message = (
            f"backend {backend!r} does not support: {needs}"
            f" (available backends: {', '.join(list_backends())})"
        )
        if self.alternatives:
            message += (
                f"; supported by: {', '.join(self.alternatives)}"
            )
        if hint:
            message += f"; {hint}"
        super().__init__(message)


_REGISTRY: dict[str, SimBackend] = {}


def register_backend(backend: SimBackend, *, replace: bool = False) -> SimBackend:
    """Add a backend to the registry under ``backend.name``.

    ``replace=True`` swaps an existing registration (useful for tests and
    for instrumented wrappers); otherwise a duplicate name is an error.
    Returns the backend so the call can be used as a decorator-style
    one-liner on an instance.
    """
    name = getattr(backend, "name", None)
    if not isinstance(name, str) or not name:
        raise ValueError("a backend must carry a non-empty string .name")
    if not callable(getattr(backend, "run", None)):
        raise ValueError(f"backend {name!r} has no callable .run(spec)")
    if not isinstance(getattr(backend, "capabilities", None), frozenset):
        raise ValueError(f"backend {name!r} must declare a frozenset .capabilities")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"backend {name!r} is already registered (pass replace=True to swap)"
        )
    _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> SimBackend:
    """Look a backend up by name; unknown names list the alternatives."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"registered: {', '.join(list_backends())}"
        ) from None


def list_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def required_capabilities(spec: SimulationSpec, telemetry=None) -> frozenset[str]:
    """The capability tokens a concrete run needs from its backend.

    The spec alone needs at most ``faults``, ``gating`` and
    ``adaptive_routing``; active telemetry adds ``tracing`` and, when it
    samples, ``telemetry_sampling``.  :func:`check_capabilities` and
    ``backend="auto"`` resolution are built on this.
    """
    need = set()
    if spec.faults:
        need.add(CAP_FAULTS)
    if spec.gating is not None:
        need.add(CAP_GATING)
    if spec.routing not in ("cdor", "xy"):
        need.add(CAP_ADAPTIVE_ROUTING)
    tel = active(telemetry)
    if tel is not None:
        need.add(CAP_TRACING)
        if tel.sample_interval:
            need.add(CAP_SAMPLING)
    return frozenset(need)


#: the public name of :func:`required_capabilities`
requirements = required_capabilities


def supports(backend: SimBackend, spec: SimulationSpec, *, telemetry=None) -> bool:
    """True when ``backend`` declares every capability the run needs."""
    return required_capabilities(spec, telemetry) <= backend.capabilities


def _speed_rank(backend: SimBackend) -> int:
    """Higher = faster; third-party backends default to the reference's 0."""
    rank = getattr(backend, "speed_rank", 0)
    return rank if isinstance(rank, int) else 0


def resolve_backend(spec: SimulationSpec, *, telemetry=None) -> SimBackend:
    """The fastest registered backend that supports this run.

    This is what ``backend="auto"`` resolves through: every registered
    backend is tested as :func:`supports` tests it (the run's requirements
    are derived once), and the supporting one with the highest
    ``speed_rank`` wins (ties break deterministically by name).  The
    reference backend supports everything, so resolution never fails
    while it stays registered.
    """
    need = required_capabilities(spec, telemetry)
    candidates = [
        backend for backend in _REGISTRY.values() if need <= backend.capabilities
    ]
    if not candidates:
        raise BackendCapabilityError(
            "auto", need, hint="no registered backend supports this run"
        )
    return max(candidates, key=lambda b: (_speed_rank(b), b.name))


def check_capabilities(
    backend: SimBackend, spec: SimulationSpec, telemetry=None
) -> None:
    """Raise :class:`BackendCapabilityError` if the run needs more than
    ``backend`` declares."""
    need = required_capabilities(spec, telemetry)
    missing = need - backend.capabilities
    if missing:
        alternatives = tuple(
            name
            for name in list_backends()
            if name != backend.name and need <= _REGISTRY[name].capabilities
        )
        hint = ""
        if CAP_SAMPLING in missing:
            hint = (
                "disable periodic sampling (sample_interval=0) or use a "
                "sampling-capable backend ('reference' or 'vectorized')"
            )
        elif missing & {CAP_FAULTS, CAP_GATING, CAP_ADAPTIVE_ROUTING}:
            hint = "pass backend='auto' to pick a capable engine"
        raise BackendCapabilityError(backend.name, missing, hint, alternatives)


__all__ = [
    "ALL_CAPABILITIES",
    "BackendCapabilityError",
    "CAP_ADAPTIVE_ROUTING",
    "CAP_FAULTS",
    "CAP_GATING",
    "CAP_SAMPLING",
    "CAP_TRACING",
    "SimBackend",
    "check_capabilities",
    "get_backend",
    "list_backends",
    "register_backend",
    "required_capabilities",
    "requirements",
    "resolve_backend",
    "supports",
]
