"""The experiment service engine: coalesced, budgeted spec evaluation.

:class:`ExperimentService` is the transport-free core behind the
``repro serve`` HTTP front door (:mod:`repro.service.http`) and the
``repro submit --local`` parity path.  One instance owns:

- a shared :class:`~repro.exec.cache.ResultCache` -- the content-addressed
  store every submission is answered from;
- a **singleflight table**: for each cache key at most one computation is
  ever in flight, arbitrated by :meth:`ResultCache.get_or_begin` claims
  (cross-process) plus an in-process event table (cross-thread), so N
  concurrent identical submissions cost exactly one simulation;
- the existing execution engine: claimed specs are batched through a
  :class:`~repro.exec.runner.SweepRunner` (in-process, or the sweep
  fabric when ``workers > 1``), which also writes the run ledger -- service
  runs file under ``kind="service"`` with the client identity as the
  label;
- per-client admission (:class:`~repro.service.budget.ClientAccounts`)
  and the ``service_*`` metrics series.

Everything here is stdlib-only and thread-safe; HTTP handler threads
call straight into it.
"""

from __future__ import annotations

import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.exec.cache import ResultCache
from repro.exec.runner import SweepRunner
from repro.noc.backends import get_backend
from repro.noc.spec import SimulationSpec, WireFormatError, spec_from_wire
from repro.service.budget import (
    CLOCK_HZ,
    SERVICE_COUNTER_HELP,
    SERVICE_GAUGE_HELP,
    BudgetExhausted,
    ClientAccounts,
    RateLimited,
)
from repro.telemetry.ledger import Ledger, RunRecord
from repro.telemetry.metrics import MetricsRegistry

#: How often the service polls the keys *external* claim holders (other
#: processes computing the same keys) hold, all of them from one thread.
EXTERNAL_POLL_S = 0.05

#: Executor threads per service: they bound concurrent batch executions.
EXECUTOR_THREADS = 4

#: How many tickets a service keeps: inserting one more drops the oldest,
#: whose sweep id then answers like an unknown one (its results stay
#: fetchable by key).
MAX_TICKETS = 10_000


class _Inflight:
    """One in-process computation: waiters block on the event."""

    __slots__ = ("event", "error")

    def __init__(self):
        self.event = threading.Event()
        self.error: str | None = None


@dataclass(frozen=True)
class SweepTicket:
    """The handle a batch submission returns (``POST /v1/sweeps`` body)."""

    sweep_id: str
    client: str
    keys: tuple[str, ...]       # one per submitted spec, input order
    new: int                    # claimed by this submission
    coalesced: int              # joined an identical in-flight computation
    cached: int                 # answered straight from the cache
    created_ts: float = 0.0

    def to_dict(self) -> dict:
        return {
            "sweep_id": self.sweep_id,
            "client": self.client,
            "keys": list(self.keys),
            "total": len(self.keys),
            "new": self.new,
            "coalesced": self.coalesced,
            "cached": self.cached,
            "created_ts": self.created_ts,
        }


class ExperimentService:
    """Accept wire-format specs, evaluate each unique one exactly once.

    ``workers`` is the process fan-out each claimed batch is executed
    with (on a private fabric queue when above 1).  ``accounts``
    carries the per-client admission policy; the default is permissive
    (no budget, generous rate).
    """

    def __init__(
        self,
        cache: ResultCache | None = None,
        workers: int = 1,
        accounts: ClientAccounts | None = None,
        registry: MetricsRegistry | None = None,
        ledger: Ledger | None = None,
    ):
        self.cache = cache if cache is not None else ResultCache()
        self.workers = workers
        self.accounts = accounts if accounts is not None else ClientAccounts()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.ledger = ledger if ledger is not None else Ledger()
        # MetricsRegistry is not thread-safe; every touch goes through
        # this lock (handler threads + executor charge-back race it)
        self._metrics_lock = threading.Lock()
        with self._metrics_lock:
            self.registry.preregister(SERVICE_COUNTER_HELP,
                                      gauges=SERVICE_GAUGE_HELP)
        self._lock = threading.Lock()
        self._inflight: dict[str, _Inflight] = {}
        self._errors: dict[str, str] = {}
        self._tickets: dict[str, SweepTicket] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=EXECUTOR_THREADS, thread_name_prefix="repro-service"
        )
        # keys another process holds: key -> (spec, client, deadline),
        # polled by one thread that runs while any is left
        self._external: dict[str, tuple] = {}
        self._poller: threading.Thread | None = None
        self._halt = threading.Event()
        self._closed = False

    # ------------------------------------------------------------------
    # metrics plumbing
    # ------------------------------------------------------------------
    def _count(self, name: str, n: int = 1, **labels) -> None:
        with self._metrics_lock:
            self.registry.counter(name).inc(n)
            if labels:
                self.registry.counter(name, **labels).inc(n)

    def metrics_text(self) -> str:
        """The Prometheus exposition body (pull-style gauges refreshed)."""
        with self._lock:
            inflight = len(self._inflight)
        with self._metrics_lock:
            self.registry.gauge("service_inflight").set(inflight)
            self.cache.export_metrics(self.registry)
            self.accounts.export_metrics(self.registry)
            return self.registry.render_prometheus()

    def counter_value(self, name: str, **labels):
        with self._metrics_lock:
            return self.registry.value(name, **labels)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def decode(self, payload) -> SimulationSpec:
        """Wire document -> validated spec (raises on any malformation).

        A backend name arrives from outside the program, so an
        unregistered one is refused here (a ``ValueError``, answered as a
        400 ``validation`` body), not later inside a worker process.
        """
        try:
            spec = spec_from_wire(payload)
        except WireFormatError:
            self._count("service_wire_errors_total")
            raise
        get_backend(spec.resolved_backend())
        return spec

    def submit(self, payloads, client: str = "anonymous") -> SweepTicket:
        """Admit and dispatch one batch of wire-format specs.

        Every payload is decoded and validated *before* any is admitted
        or executed -- a batch is all-or-nothing at the front door.
        Returns a :class:`SweepTicket`; results land in the cache and
        are awaited per-key (:meth:`wait`) or per-ticket
        (:meth:`sweep_status`).
        """
        if self._closed:
            raise RuntimeError("service is closed")
        specs = [self.decode(payload) for payload in payloads]
        try:
            self.accounts.admit(client, max(1, len(specs)))
        except RateLimited:
            self._count("service_rate_limited_total", client=client)
            raise
        except BudgetExhausted:
            self._count("service_budget_refusals_total", client=client)
            raise
        self._count("service_specs_total", len(specs), client=client)

        keys = [spec.cache_key() for spec in specs]
        to_run: dict[str, SimulationSpec] = {}
        claims: dict[str, object] = {}
        new = coalesced = cached = 0
        for spec, key in zip(specs, keys):
            if key in to_run:
                coalesced += 1  # duplicate within this very batch
                continue
            # check and insert in one critical section: a same-process
            # loser joins the winner's entry instead of replacing it
            entry = _Inflight()
            with self._lock:
                if self._inflight.setdefault(key, entry) is not entry:
                    coalesced += 1
                    continue
            try:
                value, claim = self.cache.get_or_begin(key)
            except BaseException as err:  # noqa: BLE001 -- joiners must wake
                self._resolve(key, error=f"{type(err).__name__}: {err}")
                raise
            if value is not None:
                cached += 1
                self._resolve(key)  # wakes anyone who joined meanwhile
                continue
            with self._lock:
                self._errors.pop(key, None)
            if claim is not None:
                to_run[key] = spec
                claims[key] = claim
                new += 1
            else:
                # another *process* holds the claim: wait on its result,
                # taking the key over if the holder orphans it
                coalesced += 1
                self._watch_external(spec, key, client)
        self._count("service_cache_served_total", cached)
        self._count("service_coalesced_total", coalesced)
        if to_run:
            self._pool.submit(
                self._execute_batch, list(to_run.values()), claims, client
            )
        ticket = SweepTicket(
            sweep_id=uuid.uuid4().hex[:16],
            client=client,
            keys=tuple(keys),
            new=new,
            coalesced=coalesced,
            cached=cached,
            created_ts=time.time(),
        )
        with self._lock:
            self._tickets[ticket.sweep_id] = ticket
            while len(self._tickets) > MAX_TICKETS:  # oldest first
                del self._tickets[next(iter(self._tickets))]
        return ticket

    # ------------------------------------------------------------------
    # execution (executor threads)
    # ------------------------------------------------------------------
    def _execute_batch(self, specs, claims, client: str) -> None:
        try:
            runner = SweepRunner(
                workers=self.workers,
                cache=self.cache,
                ledger=self.ledger,
                ledger_label=client,
                ledger_kind="service",
            )
            report = runner.run(specs)
        except BaseException as err:  # noqa: BLE001 -- waiter threads must wake
            for key, claim in claims.items():
                claim.release()
                self._resolve(key, error=f"{type(err).__name__}: {err}")
            self._count("service_failures_total", len(claims))
            return
        simulated = [p for p in report.points if not p.cached]
        spent = self.accounts.charge(
            client,
            sum(p.result.cycles_run for p in simulated) / CLOCK_HZ,
        )
        self._count("service_simulations_total", len(simulated))
        if report.failures:
            self._count("service_failures_total", len(report.failures))
        with self._metrics_lock:
            self.registry.gauge(
                "service_budget_spent_seconds", client=client
            ).set(round(spent, 6))
        failed = {point.key: point.error for point in report.failures}
        for key, claim in claims.items():
            # the runner already published each value crash-atomically
            claim.release()
            self._resolve(key, error=failed.get(key))

    def _watch_external(self, spec, key: str, client: str) -> None:
        """Hand a key another process holds to the claim poller (started
        here when none runs; one started after close() resolves the key
        at once)."""
        from repro.exec.cache import DEFAULT_CLAIM_TTL_S  # as of this call

        # get_or_begin takes over a claim file older than the claim TTL,
        # and the holder's file predates this wait: one TTL from now this
        # service holds the key unless another process claimed it anew
        # meanwhile, which the second TTL allows for
        deadline = time.monotonic() + 2 * DEFAULT_CLAIM_TTL_S
        with self._lock:
            self._external[key] = (spec, client, deadline)
            if self._poller is None:
                self._poller = threading.Thread(
                    target=self._poll_external, daemon=True,
                    name="repro-service-claims")
                self._poller.start()

    def _poll_external(self) -> None:
        """Poll every externally held key until none is left (or close).

        A key whose holder published resolves; the keys whose holder
        released them unpublished (crash or failure) are taken over and
        go to the executor as one batch per client.
        """
        while not self._halt.is_set():
            with self._lock:
                watched = list(self._external.items())
            batches: dict[str, tuple[list, dict]] = {}
            for key, (spec, client, deadline) in watched:
                try:
                    value, claim = self.cache.get_or_begin(key)
                except Exception as err:  # noqa: BLE001 -- waiters must wake
                    claim, error = None, f"{type(err).__name__}: {err}"
                else:
                    if value is None and claim is None \
                            and time.monotonic() < deadline:
                        continue  # still held elsewhere
                    error = (None if value is not None else
                             "timed out waiting for an external claim holder")
                with self._lock:
                    del self._external[key]
                if claim is not None:
                    specs, claims = batches.setdefault(client, ([], {}))
                    specs.append(spec)
                    claims[key] = claim
                else:
                    self._resolve(key, error=error)
            for client, (specs, claims) in batches.items():
                self._pool.submit(self._execute_batch, specs, claims, client)
            with self._lock:
                if not self._external:
                    self._poller = None
                    return
            self._halt.wait(EXTERNAL_POLL_S)
        # closing: wake every waiter still parked on an external key
        with self._lock:
            keys = list(self._external)
            self._external.clear()
            self._poller = None
        for key in keys:
            self._resolve(key, error="service closed")

    def _resolve(self, key: str, error: str | None = None) -> None:
        with self._lock:
            entry = self._inflight.pop(key, None)
            if error is not None:
                self._errors[key] = error
        if entry is not None:
            entry.error = error
            entry.event.set()

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def status(self, key: str) -> str:
        """``"done"`` | ``"failed"`` | ``"running"`` | ``"unknown"``."""
        if key in self.cache:
            return "done"
        with self._lock:
            if key in self._errors:
                return "failed"
            if key in self._inflight:
                return "running"
        if self.cache.has_claim(key):
            return "running"  # another process is computing it
        return "unknown"

    def error(self, key: str) -> str | None:
        with self._lock:
            return self._errors.get(key)

    def wait(self, key: str, timeout_s: float | None = None):
        """Block until ``key`` resolves; the result, or ``None``.

        ``None`` means failed, still running at timeout, or never
        submitted -- disambiguate with :meth:`status`.
        """
        with self._lock:
            entry = self._inflight.get(key)
        if entry is not None:
            entry.event.wait(timeout_s)
        return self.cache.get(key)

    def result(self, key: str):
        """The cached value for ``key`` (no blocking), or ``None``."""
        return self.cache.get(key)

    def ledger_lookup(self, key: str) -> RunRecord | None:
        """The durable fallback: the newest run whose points include key."""
        return self.ledger.latest_with_point(key)

    def run_record(self, ref: str) -> RunRecord | None:
        return self.ledger.get(ref)

    def sweep_status(self, sweep_id: str) -> dict | None:
        """The ticket's progress document (``GET /v1/sweeps/{id}``)."""
        with self._lock:
            ticket = self._tickets.get(sweep_id)
        if ticket is None:
            return None
        done = failed = running = 0
        errors: dict[str, str] = {}
        for key in set(ticket.keys):
            state = self.status(key)
            if state == "done":
                done += 1
            elif state == "failed":
                failed += 1
                errors[key] = self.error(key) or "failed"
            else:
                running += 1
        doc = ticket.to_dict()
        doc.update({
            "done": done,
            "failed": failed,
            "running": running,
            "complete": running == 0,
        })
        if errors:
            doc["errors"] = errors
        return doc

    def close(self) -> None:
        """Stop the claim poller, waking its waiters, and drain the
        executor; idempotent."""
        self._closed = True
        self._halt.set()
        with self._lock:
            poller = self._poller
        if poller is not None:
            poller.join()
        self._pool.shutdown(wait=True)


__all__ = ["EXTERNAL_POLL_S", "MAX_TICKETS", "ExperimentService", "SweepTicket"]
