"""Simulation-backend protocol and registry.

A *backend* is an engine that executes a
:class:`~repro.noc.spec.SimulationSpec` and returns a
:class:`~repro.noc.result.SimulationResult`.  Backends register under a
short name (``"reference"``, ``"vectorized"``) and every registered
engine runs every valid spec; the driver (:func:`repro.noc.sim.simulate`)
looks one up by the spec's ``backend`` field.  Tests and instrumented
wrappers substitute an engine through :func:`register_backend`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.noc.result import SimulationResult
from repro.noc.spec import SimulationSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry


@runtime_checkable
class SimBackend(Protocol):
    """What a simulation engine must provide to be registrable."""

    name: str

    def run(
        self, spec: SimulationSpec, *, telemetry: "Telemetry | None" = None
    ) -> SimulationResult:
        """Execute the spec and return its result."""
        ...  # pragma: no cover - protocol body


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


__all__ = [
    "SimBackend",
    "get_backend",
    "list_backends",
    "register_backend",
]
