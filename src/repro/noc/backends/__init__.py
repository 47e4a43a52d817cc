"""Pluggable simulation backends.

Importing this package registers the two built-in engines:

- ``"reference"`` -- the cycle-accurate object-model simulator, the
  semantic ground truth every other engine is validated against;
- ``"vectorized"`` -- the fast path: a self-compiled C kernel over flat
  arrays, bit-identical to the reference on *every* capability (fault
  schedules, timeout gating, adaptive routing, telemetry sampling and
  tracing) and over ten times faster.  A run the kernel does not cover
  (no C compiler, ``REPRO_NOC_NATIVE=0``, more VCs than the kernel's
  masks hold, or a repeated traffic endpoint) runs on the reference
  engine.

Both engines declare the full capability set, so explicit backend
selection never needs to fall back for feature reasons; capability
checks still guard third-party engines, which join with::

    from repro.noc.backends import register_backend

    register_backend(MyBackend())

and become selectable through ``SimulationSpec(backend="...")``,
``run_simulation(..., backend="...")`` and ``repro sweep --backend ...``.
Passing ``backend="auto"`` anywhere a backend name is accepted resolves
through :func:`resolve_backend`: the fastest registered engine (highest
``speed_rank``) whose capabilities cover the run's
:func:`required_capabilities` wins.
"""

from repro.noc.backends.base import (
    ALL_CAPABILITIES,
    CAP_ADAPTIVE_ROUTING,
    CAP_FAULTS,
    CAP_GATING,
    CAP_SAMPLING,
    CAP_TRACING,
    BackendCapabilityError,
    SimBackend,
    check_capabilities,
    get_backend,
    list_backends,
    register_backend,
    required_capabilities,
    resolve_backend,
    supports,
)
from repro.noc.backends.reference import ReferenceBackend
from repro.noc.backends.vectorized import VectorizedBackend

register_backend(ReferenceBackend())
register_backend(VectorizedBackend())

__all__ = [
    "ALL_CAPABILITIES",
    "BackendCapabilityError",
    "CAP_ADAPTIVE_ROUTING",
    "CAP_FAULTS",
    "CAP_GATING",
    "CAP_SAMPLING",
    "CAP_TRACING",
    "ReferenceBackend",
    "SimBackend",
    "VectorizedBackend",
    "check_capabilities",
    "get_backend",
    "list_backends",
    "register_backend",
    "required_capabilities",
    "resolve_backend",
    "supports",
]
