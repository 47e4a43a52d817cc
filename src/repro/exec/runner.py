"""Sweep execution over simulation specs: serial, or on the lease fabric.

:class:`SweepRunner` takes a list of :class:`~repro.noc.spec.SimulationSpec`
values -- an injection-rate x pattern x sprint-level grid, a PARSEC
scheme comparison, any batch of independent runs -- and executes them:

1. **cache lookup** -- points whose content hash is already in the
   :class:`~repro.exec.cache.ResultCache` are returned without simulating;
2. **dedup** -- identical specs appearing more than once in a sweep are
   simulated exactly once;
3. **fan-out** -- when ``workers > 1`` and more than one point is left,
   the points run on the lease-based fabric (:mod:`repro.exec.fabric`)
   with ``workers`` forked local workers, through a private queue
   directory that only this run uses and that it deletes afterwards;
   otherwise they run serially in this process.  An explicit ``fabric``
   config runs them on its own queue directory instead.

Because a spec carries its own traffic seed and every worker rebuilds the
generator from the spec, parallel and serial execution produce
*bit-identical* :class:`~repro.noc.sim.SimulationResult` values -- the
ordering of the returned points always matches the order of the input
specs, never completion order.

The fan-out is failure-isolated: a point that raises, holds its lease
past ``point_timeout`` (its worker is killed), or kills its worker
outright costs only that point.  Survivors are returned as usual while
the casualties come back as :class:`FailedPoint` records (with the
worker's traceback) on ``SweepReport.failures``; ``max_retries``
re-attempts flaky points.  Every completed point is in the cache the
moment it finishes, so an interrupted sweep resumes from its checkpoint:
re-running the same spec list against the same cache re-simulates only
the unfinished points.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import threading
import time
import traceback as _tb
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.exec.cache import CacheStats, ResultCache
from repro.noc.backends import required_capabilities
from repro.noc.sim import SimulationResult, simulate
from repro.noc.spec import SimulationSpec, stable_key
from repro.telemetry import Telemetry, TelemetryContext
from repro.telemetry.ledger import Ledger, RunRecord, result_headline

#: Environment hook for fault-injecting the harness itself (CI smoke tests
#: and the test suite): ``MODE[:RATE]``, where ``hang`` and ``slow`` also
#: take ``:SECONDS``.  Each fault is a pure function of the point and its
#: attempt number (:meth:`ChaosPlan.fault`; docs/robustness.md has them).
CHAOS_ENV = "REPRO_SWEEP_CHAOS"

#: Every chaos mode and its SECONDS default (None: it takes only RATE).
_CHAOS_MODES = {"raise": None, "exit": None, "hang": 3600.0, "exit-once": None,
                "kill9": None, "stall-heartbeat": None, "torn-write": None,
                "slow": 0.75}


def chaos_coin(key: str, attempt: int) -> float:
    """Deterministic uniform coin for one (point, attempt) pair."""
    digest = hashlib.sha256(f"{key}#{attempt}".encode("utf-8")).hexdigest()
    return int(digest[:8], 16) / float(0xFFFFFFFF)


@dataclass(frozen=True)
class ChaosPlan:
    """A parsed ``REPRO_SWEEP_CHAOS`` recipe."""

    mode: str
    rate: float = 1.0
    seconds: float | None = None

    @classmethod
    def from_env(cls) -> "ChaosPlan | None":
        """The recipe in ``REPRO_SWEEP_CHAOS`` (None when unset); raises
        :class:`ValueError` on one that does not fit its mode."""
        recipe = os.environ.get(CHAOS_ENV, "").strip()
        if not recipe:
            return None
        mode, *args = recipe.split(":")
        seconds = _CHAOS_MODES.get(mode)
        try:
            if mode not in _CHAOS_MODES or len(args) > 1 + (seconds is not None):
                raise ValueError(recipe)
            plan = cls(mode, float(args[0]) if args else 1.0,
                       float(args[1]) if args[1:] else seconds)
            if not (0.0 <= plan.rate <= 1.0 and (plan.seconds or 0.0) >= 0.0):
                raise ValueError(recipe)
        except ValueError:
            raise ValueError(
                f"invalid {CHAOS_ENV} recipe {recipe!r}: expected MODE[:RATE] "
                f"or hang/slow[:RATE[:SECONDS]], RATE in [0, 1], MODE one of "
                f"{', '.join(_CHAOS_MODES)}") from None
        return plan

    def fault(self, key: str, attempt: int) -> str | None:
        """What this recipe does to attempt ``attempt`` (from 1) at point
        ``key``: its mode, or None when the coin spares the attempt.  The
        simulation-guard modes draw the point's coin (``exit-once`` spares
        all but attempt 1).  kill9 names where it kills, picked from the
        same coin: after the claim, after publishing, or after ``done``."""
        if self.mode not in ("raise", "exit", "hang", "exit-once"):
            coin = chaos_coin(key, attempt)
        elif self.mode != "exit-once" or attempt == 1:
            coin = int(key[:8], 16) / float(0xFFFFFFFF)
        else:
            return None
        if coin >= self.rate:
            return None
        if self.mode == "kill9":
            return ("kill9-claimed", "kill9-published",
                    "kill9-done")[min(2, int(3 * coin / self.rate))]
        return self.mode


def _simulate_guarded(spec: SimulationSpec, tel_ctx: TelemetryContext | None = None,
                      chaos: ChaosPlan | None = None, attempt: int = 1):
    """Worker entry point: run one spec, never let an exception escape.

    Returns ``("ok", result, seconds, payload)`` or ``("err", message,
    traceback, seconds, payload)`` -- the scheduler turns the latter into a
    retry or a :class:`FailedPoint` with the worker-side traceback attached.
    ``payload`` is the worker's drained :meth:`Telemetry.payload` (its spans
    and metrics, shipped back for the parent to absorb), or ``None`` when
    the sweep runs uninstrumented.  ``chaos`` may fault attempt ``attempt``.
    """
    tel = Telemetry.from_context(tel_ctx)
    start = time.perf_counter()
    try:
        if chaos is not None:
            fault = chaos.fault(spec.cache_key(), attempt)
            if fault == "raise":
                raise RuntimeError("chaos: injected simulation fault")
            if fault == "hang":
                time.sleep(chaos.seconds)
            elif fault in ("exit", "exit-once"):
                os._exit(17)
        result = simulate(spec, telemetry=tel)
    except Exception as exc:
        elapsed = time.perf_counter() - start
        payload = tel.payload() if tel is not None else None
        return ("err", f"{type(exc).__name__}: {exc}", _tb.format_exc(),
                elapsed, payload)
    elapsed = time.perf_counter() - start
    payload = tel.payload() if tel is not None else None
    return ("ok", result, elapsed, payload)


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
    #: Per-attempt event trail (parallel sweeps): dicts with at least an
    #: ``event`` ("claim"/"error"/"expired"/...) and a ``worker``, so a
    #: failed point is diagnosable from the terminal.
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
        """One line per recorded attempt event (empty for serial sweeps)."""
        lines = []
        for entry in self.history:
            event = entry.get("event", "?")
            worker = entry.get("worker", "?")
            if event == "claim":
                lines.append(f"leased to {worker} "
                             f"(attempt {entry.get('attempt', '?')})")
            elif event == "expired" and entry.get("reason") == "timeout":
                lines.append(f"{worker} killed past point_timeout")
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
    resumed: int = 0  # cache hits read back from the cache directory
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

    ``workers=1`` (the default) runs serially; ``workers>1`` runs the
    points on the lease fabric with up to that many forked local workers,
    through a private queue directory removed when the run ends.  A
    ``fabric`` (:class:`~repro.exec.fabric.FabricConfig`) runs them on its
    queue directory and worker count instead, so external ``repro worker``
    processes can join.  ``cache=None`` gives the runner a
    private in-memory cache; pass a shared :class:`ResultCache` to reuse
    results across runners, benchmarks and CLI invocations.  ``progress``
    (if given) is called as ``progress(done, total, point, outcome)`` the
    moment each point completes -- cache hits first (in input order),
    simulated and failed points in completion order -- with ``outcome``
    one of ``"cached"``, ``"simulated"`` or ``"failed"`` (``point`` is a
    :class:`FailedPoint` for failures), so a progress bar can render
    failures as they happen.

    ``telemetry`` (a :class:`~repro.telemetry.Telemetry` bundle) adds a
    ``sweep`` span with one child ``point`` span per unique simulated spec,
    absorbs each worker's spans/metrics under its point span, and fills the
    ``sweep_*`` counters plus the ``sweep_point_sim_seconds`` histogram and
    ``result_cache_*`` gauges.  ``None`` (the default) costs nothing.

    Failure policy: a point that raises is retried up to ``max_retries``
    times; one whose local worker holds it past ``point_timeout`` seconds
    (the worker is killed) or dies is charged an attempt and retried
    likewise, at once.  Points that exhaust their attempts are reported
    on ``SweepReport.failures`` instead of poisoning the sweep.  Serial
    runs cannot preempt a hung simulation, so ``point_timeout`` is only
    enforced on parallel runs.  An explicit ``fabric`` config keeps its
    own ``quarantine_after`` in place of ``max_retries``.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | None = None,
        progress: Callable[[int, int, object, str], None] | None = None,
        max_retries: int = 0,
        point_timeout: float | None = None,
        telemetry: Telemetry | None = None,
        ledger: Ledger | None = None,
        ledger_label: str | None = None,
        ledger_kind: str = "sweep",
        fabric=None,
    ):
        # an explicit FabricConfig carries its own local worker count,
        # so `workers=0` is then legal (external workers only)
        if fabric is not None:
            if workers < 0:
                raise ValueError("workers must be >= 0 in fabric mode")
        elif workers < 1:
            raise ValueError("workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if point_timeout is not None and point_timeout <= 0:
            raise ValueError("point_timeout must be positive (or None)")
        self.workers = workers
        self.cache = cache if cache is not None else ResultCache()
        self.progress = progress
        self.max_retries = max_retries
        self.point_timeout = point_timeout
        self.telemetry = telemetry
        # every run leaves one RunRecord in the ledger (None: the default
        # env-configured ledger; Ledger.disabled() opts a runner out)
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
        # a malformed chaos recipe is refused before any point is dispatched
        chaos = ChaosPlan.from_env()
        self._stop.clear()
        specs = list(specs)
        total = len(specs)
        keys = [spec.cache_key() for spec in specs]
        # a sweep is identified by the content hashes of its points: the
        # fabric adopts a queue directory and the ledger files its record
        # under this fingerprint
        fingerprint = stable_key(tuple(keys))

        tel = self.telemetry
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
            # opens the point span too, so a fabric point's span starts
            # at the first event the coordinator folds for it (its claim)
            if tel is not None:
                tel.absorb(payload, point_span(key).id)

        # the callback present now serves the whole run, whenever it was
        # assigned
        progress = self.progress

        def notify(done: int, total: int, point, outcome: str) -> None:
            if progress is not None:
                progress(done, total, point, outcome)

        points: dict[int, SweepPoint] = {}
        failures: dict[int, FailedPoint] = {}
        pending: dict[str, list[int]] = {}  # key -> input indices needing it
        hits = 0
        done = 0
        # checkpoints an earlier process wrote to the cache directory
        disk_hits = self.cache.counters.disk_hits
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
        resumed = self.cache.counters.disk_hits - disk_hits

        unique = [(key, specs[indices[0]]) for key, indices in pending.items()]
        deduplicated = sum(len(ix) - 1 for ix in pending.values())
        succeeded: set[str] = set()

        def complete(key: str, result: SimulationResult, elapsed: float,
                     payload=None, published: bool = False) -> None:
            nonlocal done
            # checkpoint: resumable immediately (a fabric worker that
            # wrote the result into our cache directory already made it so)
            if published:
                self.cache.remember(key, result)
            else:
                self.cache.put(key, result)
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
        # an explicit fabric runs in separate processes, even external ones
        parallel = bool(unique) and (self.fabric is not None
                                     or (self.workers > 1 and len(unique) > 1))
        if parallel:
            fabric_stats = self._run_fabric(unique, complete, fail, absorb,
                                            attempt_failed, tel, fingerprint)
        else:
            self._run_serial(unique, complete, fail, worker_ctx,
                             absorb, attempt_failed, chaos)

        interrupted = self._stop.is_set() and done < total

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
            resumed=resumed,
            interrupted=interrupted,
            fabric=fabric_stats,
        )
        report.run_record = self._record_run(
            report, specs, keys, fingerprint, tel,
            time.process_time() - cpu_start,
        )
        return report

    def _record_run(self, report: SweepReport, specs, keys, fingerprint: str,
                    tel, cpu_s: float) -> RunRecord | None:
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
        # runs are unambiguous about what actually executed them; an auto
        # spec resolves once per distinct capability requirement
        backends = set()
        by_need: dict = {}
        for spec in specs:
            if spec.backend != "auto":
                backends.add(spec.backend)
                continue
            need = required_capabilities(spec)
            if need not in by_need:
                by_need[need] = spec.resolved_backend()
            backends.add(by_need[need])
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
            fingerprint=fingerprint,
        )

    # ------------------------------------------------------------------
    def _run_fabric(self, unique, complete, fail, absorb, attempt_failed,
                    tel, fingerprint):
        """Run the points on the lease-based work-queue fabric.

        Without an explicit ``fabric`` config the run gets a private
        queue: a temporary directory removed on every way out, with one
        local worker per point up to ``workers`` and a circuit breaker
        at ``max_retries + 1`` failed attempts.  The fingerprint covers
        the *full* spec list, so a resume whose pending set has shrunk
        still adopts an explicit queue directory.
        """
        from repro.exec.fabric import FabricConfig, FabricCoordinator

        config, private = self.fabric, None
        if config is None:
            private = tempfile.mkdtemp(prefix="repro-queue-")
            config = FabricConfig(queue_dir=private,
                                  workers=min(self.workers, len(unique)),
                                  quarantine_after=self.max_retries + 1)
        try:
            coordinator = FabricCoordinator(config, telemetry=tel,
                                            point_timeout=self.point_timeout,
                                            private=private is not None)
            return coordinator.execute(
                unique, self.cache, self._stop, fingerprint,
                complete=complete, fail=fail, absorb=absorb,
                attempt_failed=attempt_failed)
        finally:
            if private is not None:
                shutil.rmtree(private, ignore_errors=True)

    def _run_serial(self, unique, complete, fail, worker_ctx,
                    absorb, attempt_failed, chaos) -> None:
        # in-process execution cannot preempt a hung simulation, so
        # point_timeout is not enforced here; exceptions are still
        # isolated and retried per point, at once (a point is
        # deterministic, so waiting would change nothing)
        for key, spec in unique:
            if self._stop.is_set():
                return  # graceful drain: unfinished points stay pending
            attempts = 0
            while True:
                attempts += 1
                status = _simulate_guarded(spec, worker_ctx(key, attempts),
                                           chaos, attempts)
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


__all__ = ["FailedPoint", "SweepPoint", "SweepReport", "SweepRunner", "CHAOS_ENV"]
