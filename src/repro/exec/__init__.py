"""Sweep-execution engine: parallel, cached evaluation of simulation specs.

Every paper figure and ablation is a sweep of independent
:class:`~repro.noc.spec.SimulationSpec` points.  This package executes
such sweeps fast and reproducibly:

- :class:`~repro.exec.runner.SweepRunner` -- run specs in-process (C-kernel
  points on one thread per CPU) or, with ``workers > 1``, on the lease
  fabric with forked local workers, with deterministic per-point seeding,
  so every way of running them is bit-identical;
- :class:`~repro.exec.cache.ResultCache` -- content-addressed result
  store (memory + optional disk) with hit/miss counters;
- :class:`~repro.exec.runner.SweepReport` -- per-point timing, cache
  statistics, failure records and a human-readable summary;
- :class:`~repro.exec.runner.FailedPoint` -- a point that exhausted its
  retries (error / timeout / worker crash / quarantine), with the captured
  traceback and, for parallel sweeps, the per-attempt history;
- :mod:`repro.exec.fabric` -- the durable, lease-based work queue every
  parallel sweep runs on (:class:`~repro.exec.fabric.FabricConfig` +
  :class:`~repro.exec.fabric.FabricCoordinator`, ``repro worker``); it
  decouples scheduling from execution so sweeps survive worker churn,
  with :func:`~repro.exec.fabric.audit_queue` proving the invariants.

See ``docs/execution.md`` for cache-key semantics and worker guidance,
and ``docs/robustness.md`` for the failure-isolation model and the
fabric's lease lifecycle.
"""

from repro.exec.cache import CacheClaim, CacheStats, ResultCache
from repro.exec.fabric import (
    FabricAudit,
    FabricConfig,
    FabricStats,
    QueueError,
    audit_queue,
    worker_main,
)
from repro.exec.runner import FailedPoint, SweepPoint, SweepReport, SweepRunner

__all__ = [
    "CacheClaim",
    "CacheStats",
    "FabricAudit",
    "FabricConfig",
    "FabricStats",
    "FailedPoint",
    "QueueError",
    "ResultCache",
    "SweepPoint",
    "SweepReport",
    "SweepRunner",
    "audit_queue",
    "worker_main",
]
