"""Durable, lease-based sweep fabric: elastic workers that survive churn.

This is how a sweep runs on more than one process.  It decouples
*scheduling* from *execution* through a filesystem-backed work queue,
the same durability idiom as the run ledger (O_APPEND JSONL events +
atomic ``os.replace`` snapshots):

- a **coordinator** (:class:`FabricCoordinator`, driven by
  ``SweepRunner(workers=N)`` on a private queue directory, or by
  ``SweepRunner(fabric=...)`` / ``repro sweep --fabric DIR`` on a named
  one) persists the sweep's pending point set into a *queue directory*
  and supervises it: forking local workers and respawning dead ones,
  killing a local worker that holds a lease past ``point_timeout``,
  reclaiming expired leases, quarantining poisoned points, and folding
  completed results (and each attempt's telemetry) back into the
  ordinary :class:`~repro.exec.runner.SweepReport`;
- **workers** (:func:`worker_main`: the coordinator's forked local
  workers, or the ``repro worker --queue DIR`` subcommand) claim points
  under time-bounded leases, heartbeat while simulating, write results
  crash-atomically into the shared :class:`~repro.exec.cache.ResultCache`,
  and append a ``done`` event.  Any number may join or leave mid-sweep,
  from any process.

Queue directory layout::

    queue.json      sweep definition (keys, fingerprint, settings) [atomic]
    specs.pkl       pickled key -> SimulationSpec map            [atomic]
    events.jsonl    append-only event log (claim/done/error/...) [O_APPEND]
    leases/K.json   live lease for point K (O_EXCL create = claim)
    results/        default shared ResultCache directory
    telemetry/      one payload per instrumented attempt, until harvested
    workers/        per-worker log files

Failure semantics (at-least-once, recorded exactly once):

- a worker that is SIGKILLed, hangs, or partitions simply stops
  heartbeating; its lease deadline passes and the coordinator *reclaims*
  the lease, making the point claimable again;
- duplicate execution is therefore possible by design -- a presumed-dead
  worker may still finish.  It is harmless: results are content-addressed
  (identical by construction), the first ``done`` event wins the
  accounting, and later duplicates are only counted
  (``fabric_done_duplicates_total``);
- a point with ``quarantine_after`` failed attempts (an ``error``
  event or an expired lease each count, whichever worker held it) is
  closed (a circuit breaker for poisoned specs) and surfaced as a
  :class:`~repro.exec.runner.FailedPoint` with its full attempt history:
  of kind ``error``, ``crash`` or ``timeout`` after a single failed
  attempt (:func:`attempt_cause`), ``quarantined`` after two or more;
- :func:`audit_queue` replays the event log and proves the invariants:
  every seeded point is done or quarantined, every done point has a
  loadable result, no lease outlives the sweep.

The event log is read in exactly one way, :class:`QueueLog`: the
coordinator, every worker, the audit and ``repro watch`` all take their
verdicts and counts from that one fold, so they agree event for event.

Chaos modes (``REPRO_SWEEP_CHAOS``, on top of the ``raise``/``exit``/
``hang``/``exit-once`` recipes handled inside the simulation guard):

- ``kill9[:DELAY[:JITTER]]``   -- every worker SIGKILLs itself DELAY +
  U(0,JITTER) seconds after starting (default 0.5+0.5), whatever it is
  doing: constant worker churn;
- ``stall-heartbeat[:RATE[:SECONDS]]`` -- with per-(point, attempt)
  probability RATE the worker stops heartbeating and stalls before
  simulating, so its lease expires and the point is re-leased while the
  stalled worker is fenced out;
- ``torn-write[:RATE]``        -- the worker writes a truncated result
  directly to the cache slot (bypassing the crash-atomic writer) and
  SIGKILLs itself: the corrupt-entry path must swallow it;
- ``slow[:RATE[:SECONDS]]``    -- the worker sleeps before simulating
  while *keeping* its heartbeat: leases must be extended, not expired.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import signal
import sys
import threading
import time
import traceback
import uuid
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec.cache import ResultCache
from repro.exec.runner import CHAOS_ENV, _simulate_guarded
from repro.telemetry import TelemetryContext
from repro.telemetry.live import shard_of
from repro.util.durable import (
    append_line,
    create_exclusive,
    read_json,
    read_lines,
    write_atomic,
)

QUEUE_META = "queue.json"
SPECS_FILE = "specs.pkl"
EVENTS_FILE = "events.jsonl"
LEASES_DIR = "leases"
RESULTS_DIR = "results"
TELEMETRY_DIR = "telemetry"
WORKERS_DIR = "workers"

#: Coordinator and worker scan period, seconds.
POLL_S = 0.01
#: Grace for in-flight points once a drain is requested, seconds.
DRAIN_TIMEOUT_S = 30.0
#: Content-derived buckets the live views group points into.
SHARDS = 8

#: Fabric metric names pre-registered on every instrumented coordinator
#: run, so a churn-free sweep still renders them (as zeros).
FABRIC_COUNTER_HELP = {
    "fabric_lease_claims_total": "Lease claims appended to the queue.",
    "fabric_lease_expired_total": "Leases reclaimed after their deadline.",
    "fabric_requeued_total": "Points made claimable again after a lease "
                             "expiry.",
    "fabric_done_duplicates_total": "Duplicate completions (at-least-once "
                                    "execution), deduplicated.",
    "fabric_worker_errors_total": "Point attempts that raised inside a "
                                  "fabric worker.",
    "fabric_worker_spawns_total": "Local worker processes launched.",
    "fabric_worker_deaths_total": "Local worker processes that died "
                                  "without draining.",
    "fabric_quarantined_total": "Points quarantined after repeated "
                                "worker deaths.",
    "fabric_recovered_total": "Points recovered from an orphaned result "
                              "(done event lost with its worker).",
}

#: Fabric gauges, pre-registered alongside the counters so they render
#: (as zeros) before their first ``set`` -- without this a churn-free
#: sweep's snapshot is missing the series a churny one has, and merged
#: snapshots change shape run to run.
FABRIC_GAUGE_HELP = {
    "fabric_workers_alive": "Live local fabric worker processes.",
    "fabric_leases_active": "Leases currently held by workers.",
}


class QueueError(RuntimeError):
    """The queue directory is absent, foreign, or belongs to another sweep."""


@dataclass(frozen=True)
class FabricConfig:
    """Knobs for one fabric sweep (``SweepRunner(fabric=...)``; a runner
    with ``workers > 1`` and no config builds a private one)."""

    queue_dir: str
    workers: int = 2                  # local worker processes (0: external only)
    lease_ttl_s: float = 10.0         # heartbeat-extended claim lifetime
    quarantine_after: int = 3         # failed attempts per point

    def __post_init__(self):
        if self.workers < 0:
            raise ValueError("fabric workers must be >= 0")
        if self.lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------
def chaos_coin(key: str, attempt: int) -> float:
    """Deterministic uniform coin for one (point, attempt) pair."""
    digest = hashlib.sha256(f"{key}#{attempt}".encode("utf-8")).hexdigest()
    return int(digest[:8], 16) / float(0xFFFFFFFF)


@dataclass(frozen=True)
class ChaosPlan:
    """Parsed ``REPRO_SWEEP_CHAOS`` recipe (fabric-level modes only)."""

    mode: str
    args: tuple[str, ...] = ()

    @classmethod
    def from_env(cls) -> "ChaosPlan | None":
        recipe = os.environ.get(CHAOS_ENV, "").strip()
        if not recipe:
            return None
        parts = recipe.split(":")
        return cls(parts[0], tuple(parts[1:]))

    def num(self, index: int, default: float) -> float:
        try:
            return float(self.args[index])
        except (IndexError, ValueError):
            return default


# ----------------------------------------------------------------------
# the lease table: the queue directory's durable state
# ----------------------------------------------------------------------
def _write_json_atomic(path: Path, payload, fsync: bool = True) -> None:
    """Publish ``payload`` as key-sorted JSON (old file or new, never torn)."""
    write_atomic(path, json.dumps(payload, sort_keys=True).encode("utf-8"),
                 fsync)


class LeaseTable:
    """The durable state of one queue directory.

    Stateless between calls except for the loaded queue metadata: any
    number of :class:`LeaseTable` instances (one per worker process, one
    in the coordinator) operate on the same directory concurrently.
    Events are appended with a single ``write(2)`` on an ``O_APPEND``
    descriptor (whole lines, never interleaved bytes); leases and
    snapshots are atomic ``os.replace`` writes.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.meta: dict | None = None

    # paths ------------------------------------------------------------
    @property
    def meta_path(self) -> Path:
        return self.directory / QUEUE_META

    @property
    def events_path(self) -> Path:
        return self.directory / EVENTS_FILE

    @property
    def leases_dir(self) -> Path:
        return self.directory / LEASES_DIR

    def lease_path(self, key: str) -> Path:
        return self.leases_dir / f"{key}.json"

    def payload_path(self, key: str, nonce: str) -> Path:
        """Where the attempt under lease ``nonce`` leaves its telemetry."""
        return self.directory / TELEMETRY_DIR / f"{key}.{nonce}.pkl"

    # queue lifecycle ---------------------------------------------------
    def seed(self, pending: list[tuple[str, object]], *, fingerprint: str,
             results_dir: str, settings: dict) -> bool:
        """Create the queue, or adopt an existing one for the same sweep.

        Returns ``True`` when an existing queue was adopted (a resume
        after a dead coordinator).  A queue directory holding a
        *different* sweep raises :class:`QueueError` instead of silently
        mixing two point sets.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        self.leases_dir.mkdir(exist_ok=True)
        (self.directory / WORKERS_DIR).mkdir(exist_ok=True)
        (self.directory / TELEMETRY_DIR).mkdir(exist_ok=True)
        existing = read_json(self.meta_path)
        if existing is not None:
            if existing.get("fingerprint") != fingerprint:
                raise QueueError(
                    f"queue {self.directory} already holds a different sweep "
                    f"(fingerprint {existing.get('fingerprint')!r}); use a "
                    f"fresh --fabric directory"
                )
            self.meta = existing
            self._extend_specs(pending)
            return True
        specs = {key: spec for key, spec in pending}
        durable = settings.get("durable", True)
        write_atomic(self.directory / SPECS_FILE, pickle.dumps(specs), durable)
        self.meta = {
            "version": 1,
            "fingerprint": fingerprint,
            "keys": [key for key, _ in pending],
            "total": len(pending),
            "results_dir": os.path.abspath(results_dir),
            "settings": settings,
            "created": time.time(),
        }
        _write_json_atomic(self.meta_path, self.meta, durable)
        self.append({"ev": "seed", "total": len(pending)})
        return False

    def _extend_specs(self, pending: list[tuple[str, object]]) -> None:
        """On adoption: make sure every currently-pending spec is present."""
        specs = self.specs()
        missing = [(k, s) for k, s in pending if k not in specs]
        if missing:
            specs.update(dict(missing))
            write_atomic(self.directory / SPECS_FILE, pickle.dumps(specs),
                         True)
            keys = list(self.meta.get("keys", ()))
            keys.extend(k for k, _ in missing if k not in keys)
            self.meta = dict(self.meta, keys=keys, total=len(keys))
            _write_json_atomic(self.meta_path, self.meta)

    def load(self) -> dict:
        """Read the queue metadata (raises :class:`QueueError` if absent)."""
        meta = read_json(self.meta_path)
        if meta is None or "keys" not in meta:
            raise QueueError(f"no sweep queue at {self.directory} "
                             f"(missing or unreadable {QUEUE_META})")
        self.meta = meta
        return meta

    def specs(self) -> dict:
        """The pickled key -> spec map seeded by the coordinator."""
        try:
            with open(self.directory / SPECS_FILE, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError) as err:
            raise QueueError(f"unreadable {SPECS_FILE} in {self.directory}: "
                             f"{err}") from err

    @property
    def settings(self) -> dict:
        return (self.meta or {}).get("settings", {})

    def shard(self, key: str) -> int:
        """The content-derived shard id of one point (for live views)."""
        return shard_of(key, int(self.settings.get("shards") or 0))

    # event log ---------------------------------------------------------
    def append(self, event: dict) -> None:
        """Append one event as a whole line (O_APPEND, single write)."""
        payload = dict(event)
        payload.setdefault("ts", round(time.time(), 4))
        append_line(self.events_path, payload)

    def read_events(self, offset: int = 0) -> tuple[list[dict], int]:
        """Complete events after byte ``offset``, plus the new offset.

        Tolerates a torn tail (a writer caught mid-append): only lines
        terminated by a newline are parsed; the offset never advances
        past an incomplete line.
        """
        return read_lines(self.events_path, offset)

    # leases -------------------------------------------------------------
    def claim(self, key: str, worker: str, attempt: int) -> dict | None:
        """Claim ``key`` under a time-bounded lease; None when already held."""
        ttl = float(self.settings.get("lease_ttl_s", 10.0))
        now = time.time()
        payload = {
            "key": key,
            "worker": worker,
            "attempt": attempt,
            "nonce": uuid.uuid4().hex[:12],
            "claimed": now,
            "deadline": now + ttl,
        }
        try:
            if not create_exclusive(self.lease_path(key),
                                    json.dumps(payload).encode("utf-8")):
                return None
        except OSError:
            return None
        self.append({"ev": "claim", "key": key, "worker": worker,
                     "attempt": attempt, "nonce": payload["nonce"],
                     "shard": self.shard(key)})
        return payload

    def read_lease(self, key: str) -> dict | None:
        return read_json(self.lease_path(key))

    def lease_exists(self, key: str) -> bool:
        return self.lease_path(key).exists()

    def heartbeat(self, key: str, worker: str, nonce: str) -> bool:
        """Extend our lease; ``False`` when fenced out (lease reclaimed
        or re-claimed by another worker)."""
        current = self.read_lease(key)
        if (not current or current.get("worker") != worker
                or current.get("nonce") != nonce):
            return False
        ttl = float(self.settings.get("lease_ttl_s", 10.0))
        current["deadline"] = time.time() + ttl
        try:
            _write_json_atomic(self.lease_path(key), current, fsync=False)
        except OSError:
            return False
        return True

    def release(self, key: str, worker: str, nonce: str) -> None:
        """Drop our lease (a no-op when it is no longer ours)."""
        current = self.read_lease(key)
        if (current and current.get("worker") == worker
                and current.get("nonce") == nonce):
            try:
                os.unlink(self.lease_path(key))
            except OSError:
                pass

    def lease_files(self) -> list[os.DirEntry]:
        """The lease files currently under ``leases/``."""
        try:
            with os.scandir(self.leases_dir) as entries:
                return [entry for entry in entries
                        if entry.name.endswith(".json")]
        except OSError:
            return []

    def _expire(self, entry: os.DirEntry, lease: dict, **extra) -> dict:
        """Append an ``expired`` event for ``lease`` and drop its file."""
        self.append({"ev": "expired", "key": lease["key"],
                     "worker": lease.get("worker", "unknown"),
                     "attempt": lease.get("attempt", 0),
                     "nonce": lease.get("nonce", ""), **extra})
        try:
            os.unlink(entry.path)
        except OSError:
            pass
        return lease

    def reclaim_expired(self, now: float | None = None,
                        finished: frozenset = frozenset()) -> list[dict]:
        """Expire every lease whose deadline has passed, and at once every
        lease on a ``finished`` key (coordinator only).

        An unreadable lease file (a claimer killed mid-write) is expired
        by its mtime.  Each reclamation appends an ``expired`` event and
        unlinks the lease, making the point claimable again.
        """
        now = time.time() if now is None else now
        ttl = float(self.settings.get("lease_ttl_s", 10.0))
        reclaimed = []
        for entry in self.lease_files():
            key = entry.name[:-len(".json")]
            lease = read_json(entry.path)
            if lease is None:
                try:
                    if (entry.stat().st_mtime + ttl > now
                            and key not in finished):
                        continue  # probably mid-write: give it a grace ttl
                except OSError:
                    continue
                lease = {"key": key,
                         "worker": "unknown", "attempt": 0, "nonce": "torn"}
            elif (float(lease.get("deadline", 0.0)) > now
                  and key not in finished):
                continue
            reclaimed.append(self._expire(entry, lease))
        return reclaimed

    def reclaim_worker(self, worker: str,
                       timed_out: str | None = None) -> list[dict]:
        """Immediately expire every lease held by a worker known to be
        dead (the coordinator reaped its process), without waiting for
        the deadline.  The lease whose nonce is ``timed_out`` is the one
        the coordinator killed the worker over: its ``expired`` event
        carries ``reason: "timeout"``."""
        reclaimed = []
        for entry in self.lease_files():
            lease = read_json(entry.path)
            if lease and lease.get("worker") == worker:
                extra = ({"reason": "timeout"} if timed_out is not None
                         and lease.get("nonce") == timed_out else {})
                reclaimed.append(self._expire(entry, lease, fast=True,
                                              **extra))
        return reclaimed

    def active_leases(self) -> int:
        return len(self.lease_files())


# ----------------------------------------------------------------------
# the event-log fold
# ----------------------------------------------------------------------
def attempt_cause(event: dict) -> str:
    """The failure kind of one failed attempt: ``error`` for an ``error``
    event, ``timeout`` for a lease whose worker the coordinator killed
    past ``point_timeout``, ``crash`` for any other expired lease (its
    worker died or stalled)."""
    if event.get("ev") == "error":
        return "error"
    return "timeout" if event.get("reason") == "timeout" else "crash"


class QueueLog:
    """The one fold of a queue's ``events.jsonl``.

    The coordinator, every worker, :func:`audit_queue` and ``repro
    watch`` read their verdicts and counts from this fold, by these rules:

    1. a point closes at its first ``done`` or at its quarantine,
       whichever the log holds first; a later ``done`` is a duplicate;
    2. every ``error``, and every ``expired`` lease on an open point, is
       one failed attempt (verdict ``retry``), and the
       ``quarantine_after``-th closes the point as quarantined (an
       explicit ``quarantine`` event, which older coordinators wrote,
       closes it too);
    3. ``drain`` and ``shutdown`` bind only the coordinator that wrote
       them: an adopting coordinator's ``resume`` clears them and sets
       its own ``quarantine_after``;
    4. ``lost`` -- the coordinator found no loadable result behind a
       closing ``done`` -- reopens the point.

    Churn counts cover the whole log, earlier coordinators' events
    included.  With ``keys`` given, events of points never seeded are
    ignored (their completions are collected in ``foreign``).
    """

    def __init__(self, keys=None, quarantine_after: int = 3):
        self.keys = None if keys is None else frozenset(keys)
        self.quarantine_after = int(quarantine_after)
        self.offset = 0
        self.counts = Counter()               # event kind -> events folded
        self.done: dict[str, dict] = {}       # key -> the done that closed it
        self.quarantined: set[str] = set()
        self.attempts = Counter()             # key -> claims seen
        self.failures: dict[str, list] = {}   # key -> its failed attempts
        self.history: dict[str, list] = {}    # key -> FailedPoint.history
        self.foreign: set[str] = set()
        self.total = self.requeued = self.duplicates = 0
        self.draining = self.shut_down = False

    @classmethod
    def of(cls, table: LeaseTable) -> "QueueLog":
        """An empty fold over ``table``'s seeded keys and threshold."""
        meta = table.meta if table.meta is not None else table.load()
        return cls(meta["keys"], table.settings.get("quarantine_after") or 3)

    def read(self, table: LeaseTable) -> list[tuple[dict, str | None]]:
        """Fold every event appended since the last read; returns each
        with its :meth:`fold` verdict."""
        events, self.offset = table.read_events(self.offset)
        return [(event, self.fold(event)) for event in events]

    def is_open(self, key: str) -> bool:
        return key not in self.done and key not in self.quarantined

    @property
    def halted(self) -> bool:
        """Workers stop claiming: the coordinator drains or has finished."""
        return self.draining or self.shut_down

    def recovered(self) -> int:
        """Points closed by an orphaned or already-cached result."""
        return sum(1 for event in self.done.values()
                   if event.get("recovered") or event.get("cached"))

    def per_worker(self) -> Counter:
        """Points closed by each worker's ``done``."""
        return Counter(event.get("worker", "?")
                       for event in self.done.values())

    def fold(self, event: dict) -> str | None:
        """Apply one event; returns its verdict on a point: ``done`` or
        ``quarantined`` when it closes one, ``retry`` for a failed attempt
        that leaves it open."""
        kind, key = event.get("ev"), event.get("key")
        if key is not None and self.keys is not None and key not in self.keys:
            if kind == "done":
                self.foreign.add(key)
            return None
        self.counts[kind] += 1
        if kind == "seed":
            self.total = max(self.total, int(event.get("total") or 0))
        elif kind == "drain":
            self.draining = True
        elif kind == "shutdown":
            self.shut_down = True
        elif kind == "resume":
            self.draining = self.shut_down = False
            self.quarantine_after = int(event.get("quarantine_after")
                                        or self.quarantine_after)
        if key is None:
            return None
        if kind == "done" and not self.is_open(key):
            self.duplicates += 1
            return None
        if kind in ("claim", "done", "error", "expired", "abandon"):
            entry = {name: event[name]
                     for name in ("attempt", "error", "tb", "reason")
                     if name in event}
            entry.update(event=kind, worker=event.get("worker", "?"),
                         ts=event.get("ts"))
            self.history.setdefault(key, []).append(entry)
        if kind == "claim":
            self.attempts[key] += 1
        elif kind == "done":
            self.done[key] = event
            return "done"
        elif kind == "lost":
            self.done.pop(key, None)
        elif kind == "quarantine" and self.is_open(key):
            self.quarantined.add(key)
            return "quarantined"
        elif kind in ("error", "expired") and self.is_open(key):
            failed = self.failures.setdefault(key, [])
            failed.append(event)
            if len(failed) >= self.quarantine_after:
                self.quarantined.add(key)
                return "quarantined"
            self.requeued += kind == "expired"
            return "retry"
        return None


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------
def _arm_kill9(chaos: ChaosPlan) -> None:
    """Chaos: schedule this worker's own SIGKILL (constant churn)."""
    delay = chaos.num(0, 0.5) + chaos.num(1, 0.5) * random.random()
    timer = threading.Timer(
        delay, lambda: os.kill(os.getpid(), signal.SIGKILL))
    timer.daemon = True
    timer.start()


class _Heartbeat:
    """Background lease renewal while a point simulates.

    Stops renewing the moment the lease is no longer ours -- the
    coordinator reclaimed it and the point may be running elsewhere.
    """

    def __init__(self, table: LeaseTable, lease: dict, interval_s: float):
        self.table = table
        self.lease = lease
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            if not self.table.heartbeat(self.lease["key"],
                                        self.lease["worker"],
                                        self.lease["nonce"]):
                return

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()


def _torn_write(cache: ResultCache, key: str) -> None:
    """Chaos: emulate a pre-atomic writer dying mid-write, then die."""
    if cache.directory is None:
        os.kill(os.getpid(), signal.SIGKILL)
    path = os.path.join(cache.directory, f"{key}.pkl")
    with open(path, "wb") as handle:
        handle.write(pickle.dumps({"torn": True})[:7])  # truncated pickle
        handle.flush()
    os.kill(os.getpid(), signal.SIGKILL)


def worker_main(queue_dir: str, worker_id: str | None = None,
                poll_s: float = POLL_S, wait_s: float = 10.0,
                log=None, generation: int = 0) -> int:
    """The fabric worker loop (``repro worker --queue DIR``, and the body
    of every forked local worker).

    Joins the queue (waiting up to ``wait_s`` for a coordinator to seed
    it), then repeatedly claims an unleased, unfinished point, simulates
    it under a heartbeat-extended lease, writes the result
    crash-atomically to the shared cache and appends a ``done`` event.
    When the queue settings carry a ``sample_interval`` (the sweep is
    instrumented), each attempt's telemetry payload is left for the
    coordinator to absorb.  Exits 0 once the queue is drained / shut
    down, 2 when no queue appears.  SIGINT/SIGTERM drain gracefully: the
    in-flight point is finished and recorded before exiting.
    """
    emit = (log or print)
    table = LeaseTable(queue_dir)
    deadline = time.monotonic() + wait_s
    while True:
        try:
            meta = table.load()
            specs = table.specs()
            break
        except QueueError as err:
            if time.monotonic() >= deadline:
                emit(f"worker: {err}")
                return 2
            time.sleep(min(0.1, poll_s))
    worker = worker_id or f"w{os.getpid()}"
    cache = ResultCache(directory=meta["results_dir"])
    chaos = ChaosPlan.from_env()
    if chaos is not None and chaos.mode == "kill9":
        _arm_kill9(chaos)
    ttl = float(table.settings.get("lease_ttl_s", 10.0))

    stop = threading.Event()

    def _graceful(signum, frame):
        stop.set()

    restore = {}
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            restore[signum] = signal.signal(signum, _graceful)
    except ValueError:
        restore = {}  # not the main thread (in-process tests)

    table.append({"ev": "worker-start", "worker": worker, "pid": os.getpid(),
                  "generation": int(generation)})
    keys = list(meta["keys"])
    if keys:  # scan from a worker-specific offset to spread claim attempts
        start = int(hashlib.sha256(worker.encode()).hexdigest()[:8], 16)
        start %= len(keys)
        keys = keys[start:] + keys[:start]
    log = QueueLog.of(table)
    completed = 0
    while not stop.is_set():
        log.read(table)
        if log.halted:
            break
        outstanding = [key for key in keys if log.is_open(key)]
        if not outstanding:
            break
        claimed = None
        for key in outstanding:
            if table.lease_exists(key):
                continue
            claimed = table.claim(key, worker, log.attempts[key] + 1)
            if claimed is not None:
                break
        if claimed is None:
            time.sleep(poll_s)
            continue
        # every closing event is appended before its lease is dropped, so
        # a point that closed while we claimed it shows up in this read
        log.read(table)
        if not log.is_open(claimed["key"]):
            table.release(claimed["key"], worker, claimed["nonce"])
            continue
        completed += _run_point(table, cache, specs, claimed, chaos, ttl)
    for signum, handler in restore.items():
        signal.signal(signum, handler)
    reason = ("signal" if stop.is_set()
              else "halted" if log.halted else "drained")
    table.append({"ev": "worker-exit", "worker": worker,
                  "points": completed, "reason": reason})
    emit(f"worker {worker} exiting ({reason}): {completed} point(s) done")
    return 0


def _run_point(table: LeaseTable, cache: ResultCache, specs: dict,
               lease: dict, chaos: ChaosPlan | None, ttl: float) -> int:
    """Execute one leased point end to end; returns 1 on a ``done``."""
    key, worker, attempt = lease["key"], lease["worker"], lease["attempt"]
    nonce = lease["nonce"]
    shard = table.shard(key)

    # stall-heartbeat chaos: no renewals + a stall longer than the ttl,
    # so the lease expires mid-flight and the worker must find itself
    # fenced out instead of double-reporting.
    if (chaos is not None and chaos.mode == "stall-heartbeat"
            and chaos_coin(key, attempt) < chaos.num(0, 1.0)):
        time.sleep(chaos.num(1, 2.5 * ttl))
        current = table.read_lease(key)
        if (not current or current.get("nonce") != nonce):
            table.append({"ev": "abandon", "key": key, "worker": worker,
                          "attempt": attempt, "reason": "fenced"})
            return 0
        # lease survived (nobody reclaimed yet): carry on normally

    heartbeat = _Heartbeat(table, lease, ttl / 3.0)  # three renewals a ttl
    heartbeat.start()
    try:
        # a prior holder may have written the result and died before its
        # `done` event: recover the orphaned result instead of re-running
        orphan = cache.get(key)
        if orphan is not None:
            # cache-hit provenance: the result pre-existed (an orphaned
            # write, or a shared cache warmed by another sweep)
            table.append({"ev": "done", "key": key, "worker": worker,
                          "attempt": attempt, "elapsed": 0.0,
                          "recovered": True, "cached": True,
                          "shard": shard})
            return 1
        if chaos is not None and chaos.mode == "slow":
            if chaos_coin(key, attempt) < chaos.num(0, 1.0):
                time.sleep(chaos.num(1, 0.75))
        if chaos is not None and chaos.mode == "torn-write":
            if chaos_coin(key, attempt) < chaos.num(0, 1.0):
                _torn_write(cache, key)  # does not return
        interval = table.settings.get("sample_interval")
        context = None if interval is None else TelemetryContext(
            sample_interval=interval, id_prefix=f"{key[:12]}.{nonce}.")
        status = _simulate_guarded(specs[key], context)
        if status[-1] is not None:  # the attempt's spans and metrics
            write_atomic(table.payload_path(key, nonce),
                         pickle.dumps(status[-1]), fsync=False)
        if status[0] == "ok":
            _, result, elapsed, _payload = status
            if table.settings.get("durable", True):
                cache.put(key, result)  # crash-atomic: whole entry or nothing
            else:  # a private queue's own results: atomic, never fsync'd
                write_atomic(os.path.join(cache.directory, f"{key}.pkl"),
                             pickle.dumps(result), fsync=False)
            table.append({"ev": "done", "key": key, "worker": worker,
                          "attempt": attempt, "nonce": nonce,
                          "elapsed": round(elapsed, 6),
                          "shard": shard})
            return 1
        _, message, traceback_text, _elapsed, _payload = status
        table.append({"ev": "error", "key": key, "worker": worker,
                      "attempt": attempt, "nonce": nonce, "error": message,
                      "tb": traceback_text, "shard": shard})
        return 0
    finally:
        heartbeat.stop()
        table.release(key, worker, nonce)


def _forked_worker(queue_dir: str, worker_id: str, generation: int,
                   log_path: str) -> None:
    """Body of a forked local worker: :func:`worker_main` writing to its
    own log file, so nothing it prints reaches the coordinator's output.
    It leaves with ``os._exit``: nothing inherited from the coordinator
    (atexit hooks, buffered streams) runs twice."""
    with open(log_path, "a", buffering=1) as log:
        os.dup2(log.fileno(), 1)
        os.dup2(log.fileno(), 2)
        sys.stdout = sys.stderr = log
        code = 1
        try:
            code = worker_main(queue_dir, worker_id=worker_id, wait_s=30.0,
                               generation=generation)
        except Exception:
            traceback.print_exc()  # into the log: the exit code says the rest
        finally:
            log.flush()
            os._exit(code)


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
@dataclass
class FabricStats:
    """Churn accounting for one fabric-mode sweep.

    ``workers_spawned``/``worker_deaths`` count this coordinator's local
    processes; every other field is read from the queue's
    :class:`QueueLog`, which counts the whole log -- for a resumed queue,
    the churn of earlier coordinators too.
    """

    workers_spawned: int = 0
    worker_deaths: int = 0
    claims: int = 0
    expired: int = 0
    requeued: int = 0
    duplicates: int = 0
    errors: int = 0
    quarantined: int = 0
    recovered: int = 0
    per_worker: dict = field(default_factory=dict)  # worker -> points done

    def summary(self) -> str:
        workers = (f"{self.workers_spawned} local worker(s) spawned"
                   + (f", {self.worker_deaths} died" if self.worker_deaths
                      else ""))
        leases = (f"leases: {self.claims} claimed / {self.expired} expired "
                  f"/ {self.requeued} requeued")
        extras = []
        if self.duplicates:
            extras.append(f"{self.duplicates} duplicate completion(s) "
                          f"deduplicated")
        if self.recovered:
            extras.append(f"{self.recovered} orphaned result(s) recovered")
        if self.quarantined:
            extras.append(f"{self.quarantined} point(s) quarantined")
        line = f"fabric: {workers}; {leases}"
        if extras:
            line += "; " + ", ".join(extras)
        return line


class FabricCoordinator:
    """Seed, supervise and harvest one queue directory.

    Driven by :meth:`SweepRunner.run` for every parallel sweep:
    ``execute`` blocks until every pending point is done or failed (or a
    drain was requested via ``stop``), feeding completions, failed
    attempts and each attempt's telemetry into the runner's accounting
    closures, so every parallel sweep produces the same
    :class:`~repro.exec.runner.SweepReport`.  ``point_timeout`` (seconds)
    bounds how long a local worker may hold one lease, counted from the
    claim; external workers cannot be killed, so only their lease ttl
    bounds them.  ``private`` marks a queue directory the runner made
    for this run alone and removes afterwards: when it also holds the
    results (the runner's cache is memory-only), nothing in it is
    fsync'd (queue setting ``durable: false``).
    """

    def __init__(self, config: FabricConfig, telemetry=None,
                 point_timeout: float | None = None, private: bool = False):
        self.config = config
        self.telemetry = telemetry
        self.point_timeout = point_timeout
        self.private = private
        self.stats = FabricStats()

    # -- metrics helpers -------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name).inc(amount)

    def _gauge(self, name: str, value, help_text: str = "", **labels) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.gauge(name, help_text, **labels).set(value)

    # -- worker process management --------------------------------------
    def _spawn_worker(self, slot: int, generation: int) -> dict:
        """Fork one local worker into :func:`worker_main`.

        Forked rather than launched: the worker starts in milliseconds with
        the simulator already imported, where a fresh interpreter pays
        about 0.3 s to import it.
        """
        import multiprocessing

        queue = self.config.queue_dir
        worker_id = f"w{slot}g{generation}"
        log_path = os.path.join(queue, WORKERS_DIR, f"{worker_id}.log")
        proc = multiprocessing.get_context("fork").Process(
            target=_forked_worker,
            args=(queue, worker_id, generation, log_path), daemon=True)
        proc.start()
        self.stats.workers_spawned += 1
        self._count("fabric_worker_spawns_total")
        return {"proc": proc, "id": worker_id, "slot": slot,
                "generation": generation, "timed_out": None}

    def _kill_overdue(self, table: LeaseTable, workers: list) -> None:
        """SIGKILL every local worker holding a lease claimed more than
        ``point_timeout`` seconds ago; reaping it expires that lease as a
        timeout."""
        local = {info["id"]: info for info in workers}
        now = time.time()
        for entry in table.lease_files():
            lease = read_json(entry.path)
            info = local.get(lease.get("worker")) if lease else None
            if (info is None or info["timed_out"] is not None
                    or now - float(lease.get("claimed", now))
                    <= self.point_timeout):
                continue
            info["proc"].kill()
            info["proc"].join()
            info["timed_out"] = lease.get("nonce")

    @staticmethod
    def _stop_workers(workers: list) -> None:
        """Drain every live local worker (SIGTERM); SIGKILL stragglers."""
        for info in workers:
            if info["proc"].exitcode is None:
                info["proc"].terminate()
        deadline = time.monotonic() + 5.0
        for info in workers:
            proc = info["proc"]
            proc.join(max(0.1, deadline - time.monotonic()))
            if proc.exitcode is None:
                proc.kill()
                proc.join()
            proc.close()

    def _payload(self, table: LeaseTable, event: dict):
        """Take the telemetry payload a ``done``/``error`` attempt left
        (None when the sweep is uninstrumented or the attempt left none)."""
        if (self.telemetry is None or event.get("ev") not in ("done", "error")
                or "nonce" not in event):
            return None
        path = table.payload_path(event["key"], event["nonce"])
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            os.unlink(path)
        except (OSError, pickle.UnpicklingError, EOFError):
            return None
        return payload

    # -- main loop -------------------------------------------------------
    def execute(self, pending, cache, stop, fingerprint: str, *, complete,
                fail, absorb, attempt_failed) -> FabricStats:
        """Run every ``(key, spec)`` in ``pending`` through the fabric.

        ``complete(key, result, elapsed, payload, published)``, ``fail(key,
        kind, error, tb, attempts, payload=..., history=...)``,
        ``absorb(key, payload)`` and ``attempt_failed(kind, retrying=...)``
        are the runner's accounting closures; ``stop`` is a
        :class:`threading.Event` requesting a graceful drain (finish
        in-flight leases, then return with the remainder unrun).
        ``fingerprint`` must identify the *whole* sweep (the runner passes
        its checkpoint-manifest fingerprint), not just the still-pending
        subset -- that is what lets a resumed sweep, whose pending set has
        shrunk, adopt the same queue directory.
        """
        config = self.config
        table = LeaseTable(config.queue_dir)
        keys = [key for key, _ in pending]
        results_dir = cache.directory or str(Path(config.queue_dir) / RESULTS_DIR)
        settings = {"lease_ttl_s": config.lease_ttl_s,
                    "quarantine_after": config.quarantine_after,
                    "shards": SHARDS}
        if self.private and cache.directory is None:
            settings["durable"] = False
        if self.telemetry is not None:
            settings["sample_interval"] = self.telemetry.sample_interval
        adopted = table.seed(pending, fingerprint=fingerprint,
                             results_dir=results_dir, settings=settings)
        if adopted:
            # the dead coordinator's drain or shutdown bound only it
            table.append({"ev": "resume",
                          "quarantine_after": config.quarantine_after})
        log = QueueLog.of(table)
        transport = ResultCache(directory=table.meta["results_dir"])
        # a worker publishing into the runner's own cache directory has
        # already checkpointed the point: its result is handed over unwritten
        published = (cache.directory is not None and
                     os.path.abspath(cache.directory) == transport.directory)
        if self.telemetry is not None:
            self.telemetry.metrics.preregister(FABRIC_COUNTER_HELP,
                                               gauges=FABRIC_GAUGE_HELP)
        open_keys = set(keys)  # pending points not yet completed or failed

        def harvest() -> None:
            """Fold new events; hand the runner each failed attempt, each
            attempt's telemetry and the points the events close."""
            for event, verdict in log.read(table):
                kind, key = event.get("ev"), event.get("key")
                if key not in open_keys:
                    continue
                if (verdict in ("retry", "quarantined")
                        and kind != "quarantine"):
                    attempt_failed(attempt_cause(event),
                                   retrying=verdict == "retry")
                payload = self._payload(table, event)
                if verdict == "quarantined":
                    open_keys.discard(key)
                    self._fail(key, log, fail, payload)
                    continue
                if verdict == "done":
                    result = transport.get(key)
                    if result is not None:
                        open_keys.discard(key)
                        elapsed = float(event.get("elapsed") or 0.0)
                        complete(key, result, elapsed, payload, published)
                        continue
                    # torn or deleted behind its done: reopen the point
                    # for every reader, so a worker runs it again
                    table.append({"ev": "lost", "key": key})
                absorb(key, payload)

        harvest()
        if adopted:
            # stale leases (whose holders are long gone) would otherwise
            # block re-leasing for a full ttl, and a worker killed between
            # its `done` append and its release left a live lease on a
            # closed point that no worker claims again
            table.reclaim_expired(
                finished=frozenset(log.done).union(log.quarantined))
        workers = [self._spawn_worker(slot, 0)
                   for slot in range(config.workers)]
        draining = False
        drain_deadline = None
        try:
            while True:
                harvest()
                if self.point_timeout is not None:
                    self._kill_overdue(table, workers)

                # reap local workers; fast-reclaim their leases; respawn
                alive = []
                for info in workers:
                    code = info["proc"].exitcode
                    if code is None:
                        alive.append(info)
                        continue
                    info["proc"].close()
                    if code != 0:
                        self.stats.worker_deaths += 1
                        self._count("fabric_worker_deaths_total")
                        table.reclaim_worker(info["id"], info["timed_out"])
                    if not draining and open_keys and not stop.is_set():
                        alive.append(self._spawn_worker(
                            info["slot"], info["generation"] + 1))
                workers = alive

                table.reclaim_expired()

                self._gauge("fabric_workers_alive", len(workers),
                            "Live local fabric worker processes.")
                self._gauge("fabric_leases_active", table.active_leases(),
                            "Leases currently held by workers.")

                if not open_keys:
                    table.append({"ev": "shutdown"})
                    break
                if stop.is_set():
                    if not draining:
                        draining = True
                        table.append({"ev": "drain"})
                        drain_deadline = time.monotonic() + DRAIN_TIMEOUT_S
                    if not workers and table.active_leases() == 0:
                        break
                    if time.monotonic() >= drain_deadline:
                        break
                time.sleep(POLL_S)
            harvest()  # completions that landed while we were leaving
        finally:
            self._stop_workers(workers)
            self._tally(log)
        return self.stats

    @staticmethod
    def _fail(key: str, log: QueueLog, fail, payload) -> None:
        """Report a point the fold closed as failed, with its attempt trail.

        A point closed after one failed attempt reports that attempt's
        cause (:func:`attempt_cause`); one the circuit breaker closed
        after two or more is ``quarantined``.
        """
        failures = log.failures.get(key, [])
        last_error = next((event for event in reversed(failures)
                           if event.get("ev") == "error"), None)
        if len(failures) == 1:
            kind = attempt_cause(failures[0])
            worker = failures[0].get("worker", "?")
            error = {"error": last_error and last_error.get("error"),
                     "crash": f"{worker} died or stalled holding the lease",
                     "timeout": f"{worker} held the lease past point_timeout "
                                f"and was killed"}[kind]
        else:
            kind = "quarantined"
            workers = {event.get("worker", "?") for event in failures}
            detail = (f": last error {last_error['error']}" if last_error
                      else "")
            error = (f"{len(failures)} failed attempt(s) on "
                     f"{len(workers)} distinct worker(s){detail}")
        fail(key, kind, error, last_error.get("tb") if last_error else None,
             len(failures), payload=payload, history=log.history.get(key, []))

    def _tally(self, log: QueueLog) -> None:
        """Copy the fold's churn counts into the stats and the metrics."""
        stats, counts = self.stats, log.counts
        stats.claims, stats.expired = counts["claim"], counts["expired"]
        stats.errors, stats.requeued = counts["error"], log.requeued
        stats.duplicates, stats.quarantined = (log.duplicates,
                                               len(log.quarantined))
        stats.recovered, stats.per_worker = log.recovered(), log.per_worker()
        for name, value in (
            ("fabric_lease_claims_total", stats.claims),
            ("fabric_lease_expired_total", stats.expired),
            ("fabric_requeued_total", stats.requeued),
            ("fabric_done_duplicates_total", stats.duplicates),
            ("fabric_worker_errors_total", stats.errors),
            ("fabric_quarantined_total", stats.quarantined),
            ("fabric_recovered_total", stats.recovered),
        ):
            self._count(name, value)
        for worker, points in stats.per_worker.items():
            self._gauge("fabric_worker_points", points,
                        "Points completed, per fabric worker.",
                        worker=worker)


# ----------------------------------------------------------------------
# invariant checker
# ----------------------------------------------------------------------
@dataclass
class FabricAudit:
    """Replay of a queue's event log against its results on disk."""

    total: int
    done: int
    quarantined: int
    duplicates: int
    expired: int
    active_leases: int
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict:
        """The machine-readable verdict (``repro fabric audit --json``)."""
        return {
            "ok": self.ok,
            "total": self.total,
            "done": self.done,
            "quarantined": self.quarantined,
            "duplicates": self.duplicates,
            "expired": self.expired,
            "active_leases": self.active_leases,
            "problems": list(self.problems),
        }

    def summary(self) -> str:
        lines = [
            f"fabric audit: {self.total} point(s), {self.done} done, "
            f"{self.quarantined} quarantined",
            f"  churn: {self.expired} lease expiries, "
            f"{self.duplicates} duplicate completion(s) (deduplicated)",
        ]
        if self.problems:
            lines.append(f"  VIOLATIONS ({len(self.problems)}):")
            lines.extend(f"    - {problem}" for problem in self.problems)
        else:
            lines.append("  invariants hold: every point done or "
                         "quarantined exactly once, no live leases, "
                         "every result loadable")
        return "\n".join(lines)


def audit_queue(queue_dir: str | Path,
                expect_complete: bool = True) -> FabricAudit:
    """Prove the fabric's invariants for one queue directory.

    Folds ``events.jsonl`` (:class:`QueueLog`) and checks, per seeded
    point: it is done or quarantined (never lost), it is counted at most
    once (duplicates are tolerated but tallied), its result is actually
    loadable from the results cache, and no lease survived the sweep.
    Raises :class:`QueueError` when the directory is not a queue.
    """
    table = LeaseTable(queue_dir)
    meta = table.load()
    keys = list(meta["keys"])
    log = QueueLog.of(table)
    log.read(table)
    problems: list[str] = []
    if log.counts["seed"] != 1:
        problems.append(f"queue seeded {log.counts['seed']} times (expected "
                        f"exactly once)")
    results_dir = meta.get("results_dir")
    for key in keys:
        if log.is_open(key) and expect_complete:
            problems.append(f"point {key[:12]} lost: neither done nor "
                            f"quarantined")
        if key in log.done and results_dir:
            path = os.path.join(results_dir, f"{key}.pkl")
            try:
                with open(path, "rb") as handle:
                    pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ValueError):
                problems.append(f"point {key[:12]} done but its result is "
                                f"missing or unreadable in {results_dir}")
    if log.foreign:
        problems.append(f"{len(log.foreign)} completion(s) for keys never "
                        f"seeded")
    active = table.active_leases()
    if active and expect_complete:
        problems.append(f"{active} lease(s) still active after completion")
    return FabricAudit(
        total=len(keys),
        done=len(log.done),
        quarantined=len(log.quarantined),
        duplicates=log.duplicates,
        expired=log.counts["expired"],
        active_leases=active,
        problems=problems,
    )


__all__ = [
    "ChaosPlan",
    "FABRIC_COUNTER_HELP",
    "FABRIC_GAUGE_HELP",
    "FabricAudit",
    "FabricConfig",
    "FabricCoordinator",
    "FabricStats",
    "LeaseTable",
    "QueueError",
    "QueueLog",
    "attempt_cause",
    "audit_queue",
    "chaos_coin",
    "worker_main",
]
