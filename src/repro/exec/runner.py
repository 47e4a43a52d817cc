"""Parallel sweep execution over simulation specs.

:class:`SweepRunner` takes a list of :class:`~repro.noc.spec.SimulationSpec`
values -- an injection-rate x pattern x sprint-level grid, a PARSEC
scheme comparison, any batch of independent runs -- and executes them:

1. **cache lookup** -- points whose content hash is already in the
   :class:`~repro.exec.cache.ResultCache` are returned without simulating;
2. **dedup** -- identical specs appearing more than once in a sweep are
   simulated exactly once;
3. **fan-out** -- remaining points run on a ``ProcessPoolExecutor`` when
   ``workers > 1`` (with a transparent serial fallback when the pool is
   unavailable, e.g. on restricted platforms), or serially otherwise.

Because a spec carries its own traffic seed and every worker rebuilds the
generator from the spec, parallel and serial execution produce
*bit-identical* :class:`~repro.noc.sim.SimulationResult` values -- the
ordering of the returned points always matches the order of the input
specs, never completion order.

The fan-out is failure-isolated: each point is submitted as its own
future, so one point raising, hanging past ``point_timeout``, or killing
its worker outright (``BrokenProcessPool``) costs only that point.
Survivors are returned as usual while the casualties come back as
:class:`FailedPoint` records (with the worker's traceback) on
``SweepReport.failures``; ``max_retries`` re-attempts flaky points with
exponential backoff.  Every completed point is written to the cache the
moment it finishes, so an interrupted sweep resumes from its checkpoint:
re-running the same spec list against the same cache re-simulates only
the unfinished points.
"""

from __future__ import annotations

import inspect
import os
import signal
import threading
import time
import traceback as _tb
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.exec.cache import CacheStats, ResultCache
from repro.noc.sim import SimulationResult, simulate
from repro.noc.spec import SimulationSpec, stable_key
from repro.telemetry import Telemetry, TelemetryContext
from repro.telemetry import active as _active_telemetry
from repro.telemetry.ledger import Ledger, RunRecord, result_headline
from repro.util.durable import create_exclusive

#: Environment hook for fault-injecting the harness itself (CI smoke tests
#: and the runner's own test suite).  Recipes, applied per point with a
#: deterministic coin derived from the spec's content hash:
#:
#:   ``raise[:RATE]``               -- raise inside the worker
#:   ``exit[:RATE]``                -- kill the worker process (os._exit)
#:   ``hang[:RATE[:SECONDS]]``      -- sleep, triggering the point timeout
#:   ``exit-once:RATE:DIR``         -- kill the worker the *first* time each
#:                                     point runs (marker files in DIR), so
#:                                     a retry succeeds
CHAOS_ENV = "REPRO_SWEEP_CHAOS"


def _maybe_inject_chaos(spec: SimulationSpec) -> None:
    recipe = os.environ.get(CHAOS_ENV)
    if not recipe:
        return
    parts = recipe.split(":")
    mode = parts[0]
    rate = float(parts[1]) if len(parts) > 1 else 1.0
    coin = int(spec.cache_key()[:8], 16) / float(0xFFFFFFFF)
    if coin >= rate:
        return
    if mode == "raise":
        raise RuntimeError("chaos: injected simulation fault")
    if mode == "hang":
        time.sleep(float(parts[2]) if len(parts) > 2 else 3600.0)
    elif mode == "exit":
        os._exit(17)
    elif mode == "exit-once":
        marker = os.path.join(parts[2], spec.cache_key()[:16] + ".chaos")
        if not create_exclusive(marker, b""):
            return  # this point already crashed once: let the retry succeed
        os._exit(17)


def _simulate_guarded(spec: SimulationSpec, tel_ctx: TelemetryContext | None = None):
    """Worker entry point: run one spec, never let an exception escape.

    Returns ``("ok", result, seconds, payload)`` or ``("err", message,
    traceback, seconds, payload)`` -- the scheduler turns the latter into a
    retry or a :class:`FailedPoint` with the worker-side traceback attached.
    ``payload`` is the worker's drained :meth:`Telemetry.payload` (its spans
    and metrics, shipped back for the parent to absorb), or ``None`` when
    the sweep runs uninstrumented.
    """
    tel = Telemetry.from_context(tel_ctx)
    start = time.perf_counter()
    try:
        _maybe_inject_chaos(spec)
        result = simulate(spec, telemetry=tel)
    except Exception as exc:
        elapsed = time.perf_counter() - start
        payload = tel.payload() if tel is not None else None
        return ("err", f"{type(exc).__name__}: {exc}", _tb.format_exc(),
                elapsed, payload)
    elapsed = time.perf_counter() - start
    payload = tel.payload() if tel is not None else None
    return ("ok", result, elapsed, payload)


def _simulate_timed(spec: SimulationSpec) -> tuple[SimulationResult, float]:
    """Back-compat wrapper: run one spec and report its wall-clock time."""
    status = _simulate_guarded(spec)
    if status[0] == "ok":
        return status[1], status[2]
    raise RuntimeError(status[1])


#: Sweep-level metric names pre-registered at the start of every
#: instrumented run, so a clean sweep still renders them (as zeros) in the
#: Prometheus dump instead of omitting them.
_SWEEP_COUNTER_HELP = {
    "sweep_cache_hits_total": "Points served from the result cache.",
    "sweep_cache_misses_total": "Points that had to be simulated.",
    "sweep_simulated_total": "Simulations that completed successfully.",
    "sweep_retries_total": "Point attempts re-scheduled after a failure.",
    "sweep_errors_total": "Point attempts that raised inside the worker.",
    "sweep_timeouts_total": "Point attempts that exceeded point_timeout.",
    "sweep_crashes_total": "Point attempts that killed their worker process.",
    "sweep_failures_total": "Points abandoned after exhausting retries.",
}

#: FailedPoint.kind -> per-attempt failure counter.
_KIND_COUNTER = {
    "error": "sweep_errors_total",
    "timeout": "sweep_timeouts_total",
    "crash": "sweep_crashes_total",
}


def _progress_accepts_outcome(progress) -> bool:
    """True when a progress callback takes the 4th ``outcome`` argument.

    Legacy callbacks are ``progress(done, total, point)``; new-style ones
    add ``outcome`` and are additionally invoked for failed points.  The
    arity sniff keeps every pre-existing 3-argument callback working.
    """
    try:
        signature = inspect.signature(progress)
    except (TypeError, ValueError):
        return False
    positional = 0
    for param in signature.parameters.values():
        if param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD):
            positional += 1
        elif param.kind == param.VAR_POSITIONAL:
            return True
    return positional >= 4


def _ignore_sigint() -> None:
    """Pool-worker initializer: the parent owns Ctrl-C.

    A terminal SIGINT goes to the whole foreground process group; if the
    pool children raised ``KeyboardInterrupt`` mid-simulation the graceful
    drain (finish in-flight points, checkpoint, resume hint) would race a
    pile of broken futures.  Workers ignore the signal; the parent decides.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass  # not the main thread of the worker (exotic start methods)


def _kill_pool(pool) -> None:
    """Tear a process pool down *now*, including hung workers.

    ``shutdown(cancel_futures=True)`` only cancels queued work; a worker
    stuck inside a simulation must be terminated out from under it first.
    The shutdown then waits: with every worker dead the join is immediate,
    and leaving the manager thread running would race the interpreter's
    atexit hook (spurious ``Bad file descriptor`` noise at exit).
    """
    processes = getattr(pool, "_processes", None)
    for proc in list(processes.values()) if processes else []:
        try:
            proc.terminate()
        except (OSError, ValueError, AttributeError):
            pass
    pool.shutdown(wait=True, cancel_futures=True)


@dataclass
class SweepPoint:
    """One executed (or cache-served) point of a sweep."""

    index: int
    spec: SimulationSpec
    result: SimulationResult
    wall_time_s: float
    cached: bool

    @property
    def key(self) -> str:
        return self.spec.cache_key()


@dataclass
class FailedPoint:
    """One sweep point that produced no result despite every retry."""

    index: int
    spec: SimulationSpec
    kind: str  # "error" | "timeout" | "crash" | "quarantined"
    error: str
    traceback: str | None
    attempts: int
    #: Per-attempt event trail (fabric sweeps): dicts with at least an
    #: ``event`` ("claim"/"error"/"expired"/...) and a ``worker``, so a
    #: quarantined point is diagnosable from the terminal.
    history: tuple = ()

    @property
    def key(self) -> str:
        return self.spec.cache_key()

    def describe(self) -> str:
        """The one-line summary the CLI prints per failure."""
        return (
            f"point {self.index} [{self.kind}] after {self.attempts} "
            f"attempt(s): {self.error}"
        )

    def history_lines(self) -> list[str]:
        """One line per recorded attempt event (empty for pool sweeps)."""
        lines = []
        for entry in self.history:
            event = entry.get("event", "?")
            worker = entry.get("worker", "?")
            if event == "claim":
                lines.append(f"leased to {worker} "
                             f"(attempt {entry.get('attempt', '?')})")
            elif event == "expired":
                lines.append(f"lease expired on {worker} "
                             f"(worker died or stalled)")
            elif event == "error":
                lines.append(f"{worker} raised: {entry.get('error')}")
            elif event == "abandon":
                lines.append(f"{worker} abandoned the point (fenced out)")
            else:
                lines.append(f"{event} on {worker}")
        return lines


@dataclass
class SweepReport:
    """Results plus observability for one :meth:`SweepRunner.run` call."""

    points: list[SweepPoint]
    wall_time_s: float
    workers: int
    parallel: bool
    cache_hits: int
    cache_misses: int
    simulated: int
    deduplicated: int
    cache_stats: CacheStats | None = field(default=None, repr=False)
    failures: list[FailedPoint] = field(default_factory=list)
    resumed: int = 0  # cache hits recognized as a resumed earlier sweep
    run_record: RunRecord | None = field(default=None, repr=False)
    interrupted: bool = False  # drained early on SIGINT/SIGTERM
    fabric: object | None = field(default=None, repr=False)  # FabricStats

    @property
    def results(self) -> list[SimulationResult]:
        """Simulation results of the surviving points, in input-spec order."""
        return [point.result for point in self.points]

    @property
    def total_points(self) -> int:
        return len(self.points) + len(self.failures)

    @property
    def ok(self) -> bool:
        """True when every point produced a result."""
        return not self.failures

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total_points if self.total_points else 0.0

    @property
    def sim_time_s(self) -> float:
        """Summed per-point simulation time (> wall time when parallel)."""
        return sum(p.wall_time_s for p in self.points if not p.cached)

    def failure_lines(self) -> list[str]:
        """One line per failed point, for logs and the CLI."""
        return [failure.describe() for failure in self.failures]

    def summary(self) -> str:
        """One-paragraph human-readable sweep report."""
        mode = f"{self.workers} workers" if self.parallel else "serial"
        lines = [
            f"sweep: {self.total_points} points in {self.wall_time_s:.2f}s ({mode})",
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"({100.0 * self.hit_rate:.0f}% hit rate), "
            f"{self.simulated} simulated, {self.deduplicated} deduplicated",
        ]
        if self.resumed:
            lines.append(f"resumed: {self.resumed} points from an earlier run")
        if self.fabric is not None:
            lines.append(self.fabric.summary())
        if self.interrupted:
            finished = len(self.points) + len(self.failures)
            lines.append(
                f"INTERRUPTED: drained after {finished} point(s); "
                f"checkpoint written -- re-run against the same cache to "
                f"resume the remainder"
            )
        timed = [p.wall_time_s for p in self.points if not p.cached]
        if timed:
            lines.append(
                f"per-point sim time: mean {sum(timed) / len(timed):.3f}s, "
                f"max {max(timed):.3f}s, total {sum(timed):.2f}s"
            )
        if self.failures:
            lines.append(f"FAILED: {len(self.failures)} of {self.total_points} points")
            lines.extend("  " + line for line in self.failure_lines())
        return "\n".join(lines)


class SweepRunner:
    """Execute batches of independent simulation specs, cached and parallel.

    ``workers=1`` (the default) runs serially; ``workers>1`` fans out over a
    process pool, one future per point.  ``cache=None`` gives the runner a
    private in-memory cache; pass a shared :class:`ResultCache` to reuse
    results across runners, benchmarks and CLI invocations.  ``progress``
    (if given) is called the moment each point completes -- cache hits
    first (in input order), simulated points in completion order.  A
    callback accepting four positional arguments is called as
    ``progress(done, total, point, outcome)`` with ``outcome`` one of
    ``"cached"``, ``"simulated"`` or ``"failed"`` (``point`` is a
    :class:`FailedPoint` for failures), so a progress bar can render
    failures as they happen.  A legacy three-argument callback keeps the
    old contract: failed points advance ``done`` without a callback.

    ``telemetry`` (a :class:`~repro.telemetry.Telemetry` bundle) adds a
    ``sweep`` span with one child ``point`` span per unique simulated spec,
    absorbs each worker's spans/metrics under its point span, and fills the
    ``sweep_*`` counters plus the ``sweep_point_sim_seconds`` histogram and
    ``result_cache_*`` gauges.  ``None`` (the default) costs nothing.

    Failure policy: a point that raises is retried up to ``max_retries``
    times with exponential backoff (``retry_backoff_s`` doubling per
    attempt); one that runs past ``point_timeout`` seconds or kills its
    worker is isolated, charged an attempt and retried likewise.  Points
    that exhaust their attempts are reported on ``SweepReport.failures``
    instead of poisoning the sweep.  Serial runs cannot preempt a hung
    simulation, so ``point_timeout`` is only enforced when ``workers > 1``.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        progress: Callable[[int, int, SweepPoint], None] | None = None,
        max_retries: int = 0,
        point_timeout: float | None = None,
        retry_backoff_s: float = 0.05,
        telemetry: Telemetry | None = None,
        ledger: Ledger | None = None,
        ledger_label: str | None = None,
        ledger_kind: str = "sweep",
        fabric=None,
    ):
        # fabric mode (a FabricConfig): execution is delegated to the
        # lease-based work queue, whose local worker count lives on the
        # config -- `workers=0` is then legal (external workers only)
        if fabric is not None:
            if workers < 0:
                raise ValueError("workers must be >= 0 in fabric mode")
        elif workers < 1:
            raise ValueError("workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError("point_timeout must be positive (or None)")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        self.workers = workers
        self.cache = cache if cache is not None else ResultCache()
        self.progress = progress
        self._progress_outcome = (
            progress is not None and _progress_accepts_outcome(progress)
        )
        self.max_retries = max_retries
        self.point_timeout = point_timeout
        self.retry_backoff_s = retry_backoff_s
        self.telemetry = telemetry
        # every run leaves one RunRecord in the ledger (None: the default
        # env-configured ledger; Ledger.disabled() opts a runner out, e.g.
        # a nested runner whose owner records the enclosing run instead)
        self.ledger = ledger if ledger is not None else Ledger()
        self.ledger_label = ledger_label
        # what kind the RunRecord is filed under -- "sweep" for direct
        # runs, "service" when the HTTP front door executes the batch
        self.ledger_kind = ledger_kind
        self.fabric = fabric
        self._stop = threading.Event()

    def request_stop(self) -> None:
        """Ask the in-flight :meth:`run` to drain gracefully.

        Safe to call from a signal handler or another thread: no more
        points are dispatched, in-flight points are finished and
        checkpointed, and the returned report carries
        ``interrupted=True``.  A no-op when nothing is running.
        """
        self._stop.set()

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[SimulationSpec]) -> SweepReport:
        """Run every spec, returning surviving points in input order."""
        start = time.perf_counter()
        cpu_start = time.process_time()
        self._stop.clear()
        specs = list(specs)
        total = len(specs)
        keys = [spec.cache_key() for spec in specs]

        # the checkpoint manifest: a sweep is identified by the content
        # hashes of its points, so re-running the same spec list against
        # the same cache is recognized as a resume
        manifest_name = "sweep-" + stable_key(tuple(keys))[:32]
        prior_manifest = self.cache.get_json(manifest_name)
        self.cache.put_json(manifest_name, {"total": total, "keys": keys})

        tel = _active_telemetry(self.telemetry)
        tracer = tel.tracer if tel is not None else None
        sweep_span = None
        if tel is not None:
            tel.metrics.preregister(_SWEEP_COUNTER_HELP)
            tel.metrics.histogram(
                "sweep_point_sim_seconds",
                "Per-point simulation wall time (successful attempts).",
            )
            sweep_span = tracer.span(
                "sweep", points=total, workers=self.workers,
                max_retries=self.max_retries,
            )
        point_spans: dict[str, object] = {}

        def point_span(key: str):
            """The (lazily opened) span covering every attempt of a point."""
            span = point_spans.get(key)
            if span is None:
                span = tracer.span("point", parent=sweep_span.id, key=key[:12])
                point_spans[key] = span
            return span

        def worker_ctx(key: str, attempt: int) -> TelemetryContext | None:
            if tel is None:
                return None
            # attempt-qualified prefix: each retry's worker restarts its
            # span serial at 1, so the prefix must differ per attempt
            return tel.worker_context(f"{point_span(key).id}.a{attempt}.")

        def absorb(key: str, payload) -> None:
            if tel is not None and payload:
                tel.absorb(payload, point_span(key).id)

        def notify(done: int, total: int, point, outcome: str) -> None:
            if self.progress is None:
                return
            if self._progress_outcome:
                self.progress(done, total, point, outcome)
            elif outcome != "failed":
                self.progress(done, total, point)

        points: dict[int, SweepPoint] = {}
        failures: dict[int, FailedPoint] = {}
        pending: dict[str, list[int]] = {}  # key -> input indices needing it
        hits = 0
        done = 0
        for index, (spec, key) in enumerate(zip(specs, keys)):
            cached = self.cache.get(key)
            if cached is not None:
                point = SweepPoint(index, spec, cached, 0.0, cached=True)
                points[index] = point
                hits += 1
                done += 1
                notify(done, total, point, "cached")
            else:
                pending.setdefault(key, []).append(index)

        unique = [(key, specs[indices[0]]) for key, indices in pending.items()]
        deduplicated = sum(len(ix) - 1 for ix in pending.values())
        succeeded: set[str] = set()

        def complete(key: str, result: SimulationResult, elapsed: float,
                     payload=None) -> None:
            nonlocal done
            self.cache.put(key, result)  # checkpoint: resumable immediately
            succeeded.add(key)
            absorb(key, payload)
            if tel is not None:
                tel.metrics.counter("sweep_simulated_total").inc()
                tel.metrics.histogram("sweep_point_sim_seconds").observe(elapsed)
                span = point_spans.pop(key, None)
                if span is not None:
                    span.annotate(outcome="simulated",
                                  sim_seconds=round(elapsed, 6))
                    span.end()
            for extra, index in enumerate(pending[key]):
                point = SweepPoint(
                    index,
                    specs[index],
                    result,
                    elapsed if extra == 0 else 0.0,
                    cached=extra > 0,
                )
                points[index] = point
                done += 1
                notify(done, total, point, "cached" if extra else "simulated")

        def fail(key: str, kind: str, error: str, tb, attempts: int,
                 payload=None, history=()) -> None:
            nonlocal done
            absorb(key, payload)
            if tel is not None:
                span = point_spans.pop(key, None)
                if span is not None:
                    span.annotate(outcome="failed", kind=kind,
                                  attempts=attempts)
                    span.end()
            for index in pending[key]:
                failed = FailedPoint(
                    index, specs[index], kind, error, tb, attempts,
                    history=tuple(history),
                )
                failures[index] = failed
                done += 1
                if tel is not None:
                    tel.metrics.counter("sweep_failures_total").inc()
                notify(done, total, failed, "failed")

        def attempt_failed(kind: str, retrying: bool) -> None:
            """Count one failed attempt (and the retry it earned, if any)."""
            if tel is None:
                return
            tel.metrics.counter(_KIND_COUNTER[kind]).inc()
            if retrying:
                tel.metrics.counter("sweep_retries_total").inc()

        fabric_stats = None
        if self.fabric is not None and unique:
            parallel = True  # separate worker processes, even when external
            fabric_stats = self._run_fabric(unique, complete, fail, tel,
                                            stable_key(tuple(keys)))
        else:
            parallel = self.workers > 1 and len(unique) > 1
            if parallel:
                if not self._run_parallel(unique, complete, fail, worker_ctx,
                                          absorb, attempt_failed):
                    parallel = False  # pool unavailable: transparent fallback
                    self._run_serial(unique, complete, fail, worker_ctx,
                                     absorb, attempt_failed)
            else:
                self._run_serial(unique, complete, fail, worker_ctx,
                                 absorb, attempt_failed)

        interrupted = self._stop.is_set() and done < total
        if interrupted:
            # re-stamp the manifest so a later run (and a human reading the
            # cache directory) can see the sweep was drained mid-flight
            self.cache.put_json(manifest_name, {
                "total": total, "keys": keys, "interrupted": True,
                "completed": done,
            })

        dedup_served = sum(len(pending[k]) - 1 for k in succeeded)
        if tel is not None:
            tel.metrics.counter("sweep_cache_hits_total").inc(hits + dedup_served)
            tel.metrics.counter("sweep_cache_misses_total").inc(len(unique))
            self.cache.export_metrics(tel.metrics)
            sweep_span.annotate(
                cache_hits=hits + dedup_served,
                simulated=len(succeeded),
                failures=len(failures),
                parallel=parallel,
            )
            sweep_span.end()
        report = SweepReport(
            points=[points[i] for i in sorted(points)],
            wall_time_s=time.perf_counter() - start,
            workers=self.workers,
            parallel=parallel,
            cache_hits=hits + dedup_served,
            cache_misses=len(unique),
            simulated=len(succeeded),
            deduplicated=deduplicated,
            cache_stats=self.cache.stats(),
            failures=[failures[i] for i in sorted(failures)],
            resumed=hits if prior_manifest is not None else 0,
            interrupted=interrupted,
            fabric=fabric_stats,
        )
        report.run_record = self._record_run(
            report, specs, keys, tel, time.process_time() - cpu_start
        )
        return report

    def _record_run(self, report: SweepReport, specs, keys, tel,
                    cpu_s: float) -> RunRecord | None:
        """Append this sweep's RunRecord to the ledger (best-effort)."""
        if not self.ledger.enabled:
            return None
        point_payload: dict[str, dict] = {}
        for point in report.points:
            point_payload.setdefault(keys[point.index],
                                     result_headline(point.result))
        headline: dict[str, float] = {}
        if point_payload:
            for metric in ("avg_latency", "p95_latency", "throughput"):
                values = [m[metric] for m in point_payload.values()]
                headline[metric] = sum(values) / len(values)
        headline["failures"] = float(len(report.failures))
        # record the *resolved* engine so ledger entries for backend="auto"
        # runs are unambiguous about what actually executed them
        backends = {spec.resolved_backend() for spec in specs}
        return self.ledger.record(
            self.ledger_kind,
            label=self.ledger_label,
            backend=(backends.pop() if len(backends) == 1
                     else "mixed" if backends else None),
            spec_keys=keys,
            wall_s=report.wall_time_s,
            cpu_s=cpu_s,
            points=point_payload,
            headline=headline,
            metrics=tel.metrics.snapshot() if tel is not None else None,
            fingerprint=stable_key(tuple(keys)),
        )

    # ------------------------------------------------------------------
    def _backoff(self, attempts: int) -> float:
        return self.retry_backoff_s * (2 ** max(0, attempts - 1))

    def _run_fabric(self, unique, complete, fail, tel, fingerprint):
        """Delegate execution to the lease-based work-queue fabric.

        The fingerprint covers the *full* spec list (it matches the
        checkpoint manifest), so a resume whose pending set has shrunk
        still adopts the same queue directory.
        """
        from repro.exec.fabric import FabricCoordinator

        coordinator = FabricCoordinator(self.fabric, telemetry=tel)
        return coordinator.execute(unique, self.cache, complete, fail,
                                   self._stop, fingerprint=fingerprint)

    def _run_serial(self, unique, complete, fail, worker_ctx,
                    absorb, attempt_failed) -> None:
        # in-process execution cannot preempt a hung simulation, so
        # point_timeout is not enforced here; exceptions are still
        # isolated and retried per point
        for key, spec in unique:
            if self._stop.is_set():
                return  # graceful drain: unfinished points stay pending
            attempts = 0
            while True:
                attempts += 1
                status = _simulate_guarded(spec, worker_ctx(key, attempts))
                if status[0] == "ok":
                    complete(key, status[1], status[2], status[3])
                    break
                if attempts > self.max_retries:
                    attempt_failed("error", retrying=False)
                    fail(key, "error", status[1], status[2], attempts,
                         status[4])
                    break
                attempt_failed("error", retrying=True)
                absorb(key, status[4])
                time.sleep(self._backoff(attempts))

    def _run_parallel(self, unique, complete, fail, worker_ctx,
                      absorb, attempt_failed) -> bool:
        """Per-future fan-out; returns False when no pool exists at all."""
        try:
            import concurrent.futures as cf
            from concurrent.futures.process import BrokenProcessPool
        except ImportError:
            return False
        try:
            pool = cf.ProcessPoolExecutor(max_workers=self.workers,
                                          initializer=_ignore_sigint)
        except (ImportError, OSError, ValueError, RuntimeError):
            return False  # e.g. no os.fork / sem_open on this platform

        tasks = {key: {"spec": spec, "attempts": 0} for key, spec in unique}
        ready = deque(key for key, _ in unique)
        delayed: list[tuple[float, str]] = []  # (resume-at, key) backoffs
        running: dict = {}  # future -> (key, deadline | None)

        def rebuild_pool():
            nonlocal pool
            _kill_pool(pool)
            pool = cf.ProcessPoolExecutor(max_workers=self.workers,
                                          initializer=_ignore_sigint)

        def retry_or_fail(key: str, kind: str, error: str, tb,
                          payload=None) -> None:
            task = tasks[key]
            absorb(key, payload)  # keep the failed attempt's spans/metrics
            if task["attempts"] > self.max_retries:
                attempt_failed(kind, retrying=False)
                fail(key, kind, error, tb, task["attempts"])
            else:
                attempt_failed(kind, retrying=True)
                delayed.append(
                    (time.monotonic() + self._backoff(task["attempts"]), key)
                )

        def probe(key: str) -> None:
            """Re-run a pool-break suspect alone, for exact attribution.

            When the shared pool breaks, every in-flight future fails with
            ``BrokenProcessPool`` -- the crasher and its innocent
            bystanders are indistinguishable.  A fresh single-worker pool
            answers the question per point: if it breaks again the point
            really kills its worker; if it completes, the point was
            collateral damage (and its result is used, uncharged).
            """
            task = tasks[key]
            iso = cf.ProcessPoolExecutor(max_workers=1,
                                         initializer=_ignore_sigint)
            try:
                future = iso.submit(
                    _simulate_guarded, task["spec"],
                    worker_ctx(key, task["attempts"]),
                )
                try:
                    status = future.result(timeout=self.point_timeout)
                except BrokenProcessPool:
                    retry_or_fail(
                        key, "crash",
                        "worker process died (BrokenProcessPool)", None,
                    )
                    return
                except cf.TimeoutError:
                    retry_or_fail(
                        key, "timeout",
                        f"no result within point_timeout={self.point_timeout}s",
                        None,
                    )
                    return
                if status[0] == "ok":
                    complete(key, status[1], status[2], status[3])
                else:
                    retry_or_fail(key, "error", status[1], status[2],
                                  status[4])
            finally:
                _kill_pool(iso)

        def handle_break(first_suspects: list) -> None:
            suspects = first_suspects + [key for key, _ in running.values()]
            running.clear()
            rebuild_pool()
            for key in suspects:
                probe(key)

        try:
            while ready or delayed or running:
                if self._stop.is_set():
                    # graceful drain: dispatch nothing more, but let every
                    # in-flight point finish and checkpoint normally
                    ready.clear()
                    delayed = []
                    if not running:
                        break
                now = time.monotonic()
                if delayed:  # promote backoffs whose delay has elapsed
                    still = [(t, k) for t, k in delayed if t > now]
                    for t, k in delayed:
                        if t <= now:
                            ready.append(k)
                    delayed = still
                while ready and len(running) < self.workers:
                    key = ready.popleft()
                    task = tasks[key]
                    task["attempts"] += 1
                    try:
                        future = pool.submit(
                            _simulate_guarded, task["spec"],
                            worker_ctx(key, task["attempts"]),
                        )
                    except BrokenProcessPool:
                        task["attempts"] -= 1  # never actually ran
                        ready.appendleft(key)
                        handle_break([])
                        continue
                    deadline = (
                        now + self.point_timeout if self.point_timeout else None
                    )
                    running[future] = (key, deadline)
                if not running:
                    if delayed:  # everything is backing off
                        time.sleep(max(0.0, min(t for t, _ in delayed) - now))
                    continue

                wake_ups = [d for _, d in running.values() if d is not None]
                wake_ups.extend(t for t, _ in delayed)
                wait_timeout = (
                    max(0.0, min(wake_ups) - now) + 1e-3 if wake_ups else None
                )
                finished, _ = cf.wait(
                    set(running), timeout=wait_timeout,
                    return_when=cf.FIRST_COMPLETED,
                )

                broken_suspects = []
                for future in finished:
                    key, _ = running.pop(future)
                    try:
                        status = future.result()
                    except BrokenProcessPool:
                        broken_suspects.append(key)
                        continue
                    except Exception as exc:  # e.g. result unpickling
                        retry_or_fail(
                            key, "error", f"{type(exc).__name__}: {exc}", None
                        )
                        continue
                    if status[0] == "ok":
                        complete(key, status[1], status[2], status[3])
                    else:
                        retry_or_fail(key, "error", status[1], status[2],
                                      status[4])
                if broken_suspects:
                    handle_break(broken_suspects)
                    continue

                now = time.monotonic()
                overdue = [
                    (future, key)
                    for future, (key, deadline) in running.items()
                    if deadline is not None and deadline <= now
                    and not future.done()
                ]
                if overdue:
                    # a hung worker cannot be cancelled: tear the pool down,
                    # charge the overdue points, resubmit the innocent
                    # in-flight points uncharged
                    victims = {future for future, _ in overdue}
                    innocents = [
                        key
                        for future, (key, _) in running.items()
                        if future not in victims
                    ]
                    running.clear()
                    rebuild_pool()
                    for _, key in overdue:
                        retry_or_fail(
                            key, "timeout",
                            f"exceeded point_timeout={self.point_timeout}s",
                            None,
                        )
                    for key in innocents:
                        tasks[key]["attempts"] -= 1
                        ready.append(key)
        finally:
            _kill_pool(pool)
        return True


__all__ = ["FailedPoint", "SweepPoint", "SweepReport", "SweepRunner", "CHAOS_ENV"]
