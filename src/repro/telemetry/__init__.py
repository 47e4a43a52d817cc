"""Unified telemetry: structured tracing, metrics, and profiling hooks.

The paper's evaluation watches *internal* signals -- per-router power
states, latency under gating, PCM headroom during a sprint -- so the
reproduction needs more than end-of-run aggregates.  This zero-dependency
package provides the three instruments the rest of the stack shares:

- :class:`~repro.telemetry.metrics.MetricsRegistry` -- counters, gauges
  and histograms with Prometheus text output;
- :class:`~repro.telemetry.tracer.Tracer` -- span-based structured
  tracing to JSONL (span begin/end, wall+CPU time, parent ids), nesting
  from a whole sweep down to individual simulation phases;
- periodic in-simulation sampling (wired in :mod:`repro.noc.sim`) of
  per-router flit counts, buffer occupancy, gated cycles, and PCM
  headroom (wired in :mod:`repro.thermal.transient_sprint`).

:class:`Telemetry` bundles one registry + one tracer + the sampling
interval and defines the *cross-process aggregation contract*: a sweep
worker builds its own bundle from a picklable :class:`TelemetryContext`,
runs, and returns :meth:`Telemetry.payload`; the parent calls
:meth:`Telemetry.absorb` to graft the worker's spans under the point span
and fold its metrics in.  Sharding work can reuse the same contract.

Telemetry is off when the bundle is ``None``: instrumented code tests
for ``None`` and skips every instrument, so an untraced run pays one
comparison per site.  See docs/observability.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.tracer import Span, Tracer
from repro.util.lazy import lazy_exports

#: public name -> the module it is imported from on first access
_EXPORTS = {
    "Comparison": ".compare",
    "MetricPolicy": ".compare",
    "compare_runs": ".compare",
    "Ledger": ".ledger",
    "RunRecord": ".ledger",
    "LiveAggregator": ".live",
    "LiveMetricsExporter": ".live",
    "MetricsServer": ".live",
    "ProgressLine": ".live",
    "QueueWatcher": ".live",
    "RateEstimator": ".live",
    "SweepView": ".live",
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)


@dataclass(frozen=True)
class TelemetryContext:
    """The picklable recipe a worker process rebuilds its bundle from."""

    sample_interval: int = 0
    id_prefix: str = ""


class Telemetry:
    """One metrics registry + one tracer + the sampling configuration.

    ``sample_interval`` is the in-simulation sampling period in cycles
    (0 disables periodic sampling; spans and metrics still work).
    """

    def __init__(self, sample_interval: int = 0, id_prefix: str = ""):
        if sample_interval < 0:
            raise ValueError("sample_interval must be >= 0 cycles")
        self.sample_interval = sample_interval
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(id_prefix=id_prefix)

    # ------------------------------------------------------------------
    # cross-process aggregation
    # ------------------------------------------------------------------
    def worker_context(self, id_prefix: str) -> TelemetryContext:
        """The context to ship to a worker."""
        return TelemetryContext(
            sample_interval=self.sample_interval, id_prefix=id_prefix
        )

    @classmethod
    def from_context(cls, context: TelemetryContext | None) -> "Telemetry | None":
        if context is None:
            return None
        return cls(
            sample_interval=context.sample_interval,
            id_prefix=context.id_prefix,
        )

    def payload(self) -> tuple[list[dict], dict]:
        """Drain this bundle for shipment back to the parent process."""
        return (self.tracer.drain(), self.metrics.snapshot())

    def absorb(self, payload: tuple[list[dict], dict] | None,
               parent_span_id: str | None = None) -> None:
        """Merge a worker's :meth:`payload`: spans graft under
        ``parent_span_id``, metrics fold into the registry."""
        if not payload:
            return
        events, snapshot = payload
        self.tracer.graft(events, parent_span_id)
        self.metrics.merge(snapshot)

    # ------------------------------------------------------------------
    def save(self, trace_path: str | Path | None = None,
             metrics_path: str | Path | None = None) -> None:
        """Persist the trace (JSONL, metrics snapshot embedded as the
        final event) and/or the Prometheus text dump."""
        if trace_path is not None:
            snapshot = self.metrics.snapshot()
            if snapshot["metrics"]:
                self.tracer.events.append({"ev": "metrics", "data": snapshot})
            self.tracer.save(trace_path)
        if metrics_path is not None:
            Path(metrics_path).write_text(
                self.metrics.render_prometheus(), encoding="utf-8"
            )


__all__ = [
    "Comparison",
    "Counter",
    "Gauge",
    "Histogram",
    "Ledger",
    "LiveAggregator",
    "LiveMetricsExporter",
    "MetricPolicy",
    "MetricsRegistry",
    "MetricsServer",
    "ProgressLine",
    "QueueWatcher",
    "RateEstimator",
    "RunRecord",
    "Span",
    "SweepView",
    "Telemetry",
    "TelemetryContext",
    "Tracer",
    "compare_runs",
]
