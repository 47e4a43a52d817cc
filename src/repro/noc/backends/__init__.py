"""Pluggable simulation backends.

Importing this package registers the two built-in engines:

- ``"reference"`` -- the cycle-accurate object-model simulator, the
  semantic ground truth every other engine is validated against;
- ``"vectorized"`` -- the fast path: a self-compiled C kernel over flat
  arrays, bit-identical to the reference on every spec (fault schedules,
  timeout gating, adaptive routing, telemetry sampling and tracing) and
  over ten times faster.  A run the kernel does not cover (no C
  compiler, ``REPRO_NOC_NATIVE=0``, more VCs than the kernel's masks
  hold, or a repeated traffic endpoint) runs on the reference engine.

Another engine joins with::

    from repro.noc.backends import register_backend

    register_backend(MyBackend())

and becomes selectable through ``SimulationSpec(backend="...")``,
``run_simulation(..., backend="...")`` and ``repro sweep --backend ...``.
``backend="auto"`` always runs ``"vectorized"``
(:data:`repro.noc.spec.AUTO_BACKEND`), whatever else is registered.
"""

from repro.noc.backends.base import (
    SimBackend,
    get_backend,
    list_backends,
    register_backend,
)
from repro.noc.backends.reference import ReferenceBackend
from repro.noc.backends.vectorized import VectorizedBackend

register_backend(ReferenceBackend())
register_backend(VectorizedBackend())

__all__ = [
    "ReferenceBackend",
    "SimBackend",
    "VectorizedBackend",
    "get_backend",
    "list_backends",
    "register_backend",
]
