"""Durable, lease-based sweep fabric: elastic workers that survive churn.

The process-pool fan-out in :mod:`repro.exec.runner` tops out at one
parent and its forked children: a worker that dies takes its future with
it, and nobody outside the parent process can help finish the sweep.
This module decouples *scheduling* from *execution* through a
filesystem-backed work queue, the same durability idiom as the run
ledger (O_APPEND JSONL events + atomic ``os.replace`` snapshots):

- a **coordinator** (:class:`FabricCoordinator`, driven by
  ``SweepRunner(fabric=...)`` / ``repro sweep --fabric DIR``) persists
  the sweep's pending point set into a *queue directory* and supervises
  it: reclaiming expired leases, quarantining poisoned points,
  respawning dead local workers, and folding completed results back
  into the ordinary :class:`~repro.exec.runner.SweepReport`;
- **workers** (:func:`worker_main`, the ``repro worker --queue DIR``
  subcommand) claim points under time-bounded leases, heartbeat while
  simulating, write results crash-atomically into the shared
  :class:`~repro.exec.cache.ResultCache`, and append a ``done`` event.
  Any number may join or leave mid-sweep, from any process.

Queue directory layout::

    queue.json      sweep definition (keys, fingerprint, settings) [atomic]
    specs.pkl       pickled key -> SimulationSpec map            [atomic]
    events.jsonl    append-only event log (claim/done/error/...) [O_APPEND]
    leases/K.json   live lease for point K (O_EXCL create = claim)
    results/        default shared ResultCache directory
    workers/        per-worker log files
    state.json      last coordinator snapshot                    [atomic]

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
  quarantined (a circuit breaker for poisoned specs) and surfaced as a
  :class:`~repro.exec.runner.FailedPoint` with its full attempt history;
- :func:`audit_queue` replays the event log and proves the invariants:
  every seeded point is done or quarantined, every done point has a
  loadable result, no lease outlives the sweep.

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

import dataclasses
import hashlib
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.exec.cache import ResultCache
from repro.exec.runner import CHAOS_ENV, _simulate_guarded
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
WORKERS_DIR = "workers"
STATE_FILE = "state.json"

#: Coordinator and worker scan period, seconds.
POLL_S = 0.05
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
    """Knobs for one fabric-mode sweep (``SweepRunner(fabric=...)``)."""

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

    def for_batch(self, fingerprint: str) -> "FabricConfig":
        """The same knobs bound to a per-batch queue subdirectory.

        A fabric queue directory belongs to exactly one sweep (the
        coordinator stamps and audits it), so a long-lived owner -- the
        service front door dispatching many batches over one configured
        fabric -- derives a fresh queue per batch from the batch's
        content fingerprint instead of reusing one directory serially.
        """
        return dataclasses.replace(
            self, queue_dir=os.path.join(self.queue_dir, f"batch-{fingerprint[:16]}")
        )


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
        write_atomic(self.directory / SPECS_FILE, pickle.dumps(specs), True)
        self.meta = {
            "version": 1,
            "fingerprint": fingerprint,
            "keys": [key for key, _ in pending],
            "total": len(pending),
            "results_dir": os.path.abspath(results_dir),
            "settings": settings,
            "created": time.time(),
        }
        _write_json_atomic(self.meta_path, self.meta)
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
        payload = {
            "key": key,
            "worker": worker,
            "attempt": attempt,
            "nonce": uuid.uuid4().hex[:12],
            "deadline": time.time() + ttl,
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

    def reclaim_worker(self, worker: str) -> list[dict]:
        """Immediately expire every lease held by a worker known to be
        dead (the coordinator reaped its process), without waiting for
        the deadline."""
        reclaimed = []
        for entry in self.lease_files():
            lease = read_json(entry.path)
            if lease and lease.get("worker") == worker:
                reclaimed.append(self._expire(entry, lease, fast=True))
        return reclaimed

    def active_leases(self) -> int:
        return len(self.lease_files())


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

    Stops renewing (and flags ``fenced``) the moment the lease is no
    longer ours -- the coordinator reclaimed it and the point may be
    running elsewhere.
    """

    def __init__(self, table: LeaseTable, lease: dict, interval_s: float):
        self.table = table
        self.lease = lease
        self.interval_s = interval_s
        self.fenced = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            if not self.table.heartbeat(self.lease["key"],
                                        self.lease["worker"],
                                        self.lease["nonce"]):
                self.fenced.set()
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
    """The fabric worker loop (``repro worker --queue DIR``).

    Joins the queue (waiting up to ``wait_s`` for a coordinator to seed
    it), then repeatedly claims an unleased, unfinished point, simulates
    it under a heartbeat-extended lease, writes the result
    crash-atomically to the shared cache and appends a ``done`` event.
    Exits 0 once the queue is drained / shut down, 2 when no queue
    appears.  SIGINT/SIGTERM drain gracefully: the in-flight point is
    finished and recorded before exiting.
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
    done: set[str] = set()
    quarantined: set[str] = set()
    claims_seen: dict[str, int] = {}
    offset = 0
    completed = 0
    halted = False
    while not stop.is_set() and not halted:
        events, offset = table.read_events(offset)
        for event in events:
            kind = event.get("ev")
            if kind == "done":
                done.add(event["key"])
            elif kind == "quarantine":
                quarantined.add(event["key"])
            elif kind == "claim":
                claims_seen[event["key"]] = claims_seen.get(event["key"], 0) + 1
            elif kind in ("drain", "shutdown"):
                halted = True
        if halted:
            break
        outstanding = [key for key in keys
                       if key not in done and key not in quarantined]
        if not outstanding:
            break
        claimed = None
        for key in outstanding:
            if table.lease_exists(key):
                continue
            attempt = claims_seen.get(key, 0) + 1
            claimed = table.claim(key, worker, attempt)
            if claimed is not None:
                break
        if claimed is None:
            time.sleep(poll_s)
            continue
        completed += _run_point(table, cache, specs, claimed, chaos, ttl)
    for signum, handler in restore.items():
        signal.signal(signum, handler)
    reason = ("signal" if stop.is_set()
              else "halted" if halted else "drained")
    table.append({"ev": "worker-exit", "worker": worker,
                  "points": completed, "reason": reason})
    emit(f"worker {worker} exiting ({reason}): {completed} point(s) done")
    return 0


def _run_point(table: LeaseTable, cache: ResultCache, specs: dict,
               lease: dict, chaos: ChaosPlan | None, ttl: float) -> int:
    """Execute one leased point end to end; returns 1 on a ``done``."""
    key, worker, attempt = lease["key"], lease["worker"], lease["attempt"]
    shard = table.shard(key)

    # stall-heartbeat chaos: no renewals + a stall longer than the ttl,
    # so the lease expires mid-flight and the worker must find itself
    # fenced out instead of double-reporting.
    if (chaos is not None and chaos.mode == "stall-heartbeat"
            and chaos_coin(key, attempt) < chaos.num(0, 1.0)):
        time.sleep(chaos.num(1, 2.5 * ttl))
        current = table.read_lease(key)
        if (not current or current.get("nonce") != lease["nonce"]):
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
        status = _simulate_guarded(specs[key])
        if status[0] == "ok":
            _, result, elapsed, _payload = status
            cache.put(key, result)  # crash-atomic: whole entry or nothing
            table.append({"ev": "done", "key": key, "worker": worker,
                          "attempt": attempt,
                          "elapsed": round(elapsed, 6),
                          "shard": shard})
            return 1
        _, message, traceback_text, _elapsed, _payload = status
        table.append({"ev": "error", "key": key, "worker": worker,
                      "attempt": attempt, "error": message,
                      "tb": traceback_text, "shard": shard})
        return 0
    finally:
        heartbeat.stop()
        table.release(key, worker, lease["nonce"])


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
@dataclass
class FabricStats:
    """Churn accounting for one fabric-mode sweep."""

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

    Driven by :meth:`SweepRunner.run` in fabric mode: ``execute`` blocks
    until every pending point is done or quarantined (or a drain was
    requested via ``stop``), feeding completions and failures into the
    runner's ordinary accounting closures so fabric sweeps produce the
    same :class:`~repro.exec.runner.SweepReport` as pool sweeps.
    """

    def __init__(self, config: FabricConfig, telemetry=None):
        self.config = config
        self.telemetry = telemetry
        self.stats = FabricStats()

    # -- metrics helpers -------------------------------------------------
    def _count(self, name: str, amount: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name).inc(amount)

    def _gauge(self, name: str, value, help_text: str = "", **labels) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.gauge(name, help_text, **labels).set(value)

    # -- worker process management --------------------------------------
    def _spawn_worker(self, slot: int, generation: int):
        queue = self.config.queue_dir
        worker_id = f"w{slot}g{generation}"
        log_path = Path(queue) / WORKERS_DIR / f"{worker_id}.log"
        log_path.parent.mkdir(parents=True, exist_ok=True)
        log = open(log_path, "ab")
        import repro

        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = package_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", "--queue", str(queue),
             "--id", worker_id, "--wait", "30",
             "--generation", str(generation)],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
        self.stats.workers_spawned += 1
        self._count("fabric_worker_spawns_total")
        return {"proc": proc, "id": worker_id, "log": log, "slot": slot,
                "generation": generation}

    # -- main loop -------------------------------------------------------
    def execute(self, pending, cache, complete, fail, stop,
                fingerprint: str | None = None) -> FabricStats:
        """Run every ``(key, spec)`` in ``pending`` through the fabric.

        ``complete(key, result, elapsed)`` / ``fail(key, kind, error, tb,
        attempts, history=...)`` are the runner's accounting closures;
        ``stop`` is a :class:`threading.Event` requesting a graceful
        drain (finish in-flight leases, then return with the remainder
        unrun).  ``fingerprint`` must identify the *whole* sweep (the
        runner passes its checkpoint-manifest fingerprint), not just the
        still-pending subset -- that is what lets a resumed sweep, whose
        pending set has shrunk, adopt the same queue directory.
        """
        config = self.config
        table = LeaseTable(config.queue_dir)
        from repro.noc.spec import stable_key

        keys = [key for key, _ in pending]
        results_dir = cache.directory or str(Path(config.queue_dir) / RESULTS_DIR)
        adopted = table.seed(
            pending,
            fingerprint=fingerprint or stable_key(tuple(sorted(keys))),
            results_dir=results_dir,
            settings={
                "lease_ttl_s": config.lease_ttl_s,
                "heartbeat_s": None,
                "quarantine_after": config.quarantine_after,
                "shards": SHARDS,
            },
        )
        if adopted:
            # a previous coordinator died: stale leases (whose holders are
            # long gone) would otherwise block re-leasing for a full ttl,
            # and a worker killed between its `done` append and its
            # release left a live lease on a finished point that no
            # worker claims again, so it would outlive the sweep
            events, _ = table.read_events(0)
            table.reclaim_expired(finished=frozenset(
                event["key"] for event in events if event.get("ev") == "done"))
        transport = ResultCache(directory=table.meta["results_dir"])
        if self.telemetry is not None:
            self.telemetry.metrics.preregister(FABRIC_COUNTER_HELP,
                                               gauges=FABRIC_GAUGE_HELP)

        pending_keys = set(keys)
        completed: set[str] = set()
        failed: set[str] = set()
        history: dict[str, list] = {key: [] for key in keys}
        # the worker behind each failed attempt (error or expired lease)
        failed_on: dict[str, list] = {key: [] for key in keys}
        offset = 0
        workers = [self._spawn_worker(slot, 0)
                   for slot in range(config.workers)]
        draining = False
        drain_deadline = None

        def attempt_failed(key: str, worker: str) -> None:
            """Count one failed attempt; quarantine at the threshold."""
            if key in completed or key in failed:
                return
            failed_on[key].append(worker)
            if len(failed_on[key]) < config.quarantine_after:
                return
            workers_failed = sorted(set(failed_on[key]))
            table.append({"ev": "quarantine", "key": key,
                          "workers": workers_failed})
            failed.add(key)
            self.stats.quarantined += 1
            self._count("fabric_quarantined_total")
            last_error = next((entry for entry in reversed(history[key])
                               if entry["event"] == "error"), None)
            detail = (f": last error {last_error['error']}"
                      if last_error else "")
            fail(key, "quarantined",
                 f"{len(failed_on[key])} failed attempt(s) on "
                 f"{len(workers_failed)} distinct worker(s){detail}",
                 last_error.get("tb") if last_error else None,
                 len(failed_on[key]), history=history[key])

        def ingest(event: dict) -> None:
            kind = event.get("ev")
            key = event.get("key")
            worker = event.get("worker", "?")
            if key is not None and key not in pending_keys:
                return  # an earlier incarnation's point, already served
            if kind == "claim":
                self.stats.claims += 1
                self._count("fabric_lease_claims_total")
                history[key].append({"event": "claim", "worker": worker,
                                     "attempt": event.get("attempt", 0),
                                     "ts": event.get("ts")})
            elif kind == "done":
                if key in completed:
                    self.stats.duplicates += 1
                    self._count("fabric_done_duplicates_total")
                    return
                result = transport.get(key)
                if result is None:
                    # done event without a loadable result (torn by chaos
                    # or a foreign writer): leave the point claimable
                    history[key].append({"event": "done-unreadable",
                                         "worker": worker,
                                         "ts": event.get("ts")})
                    return
                completed.add(key)
                if event.get("recovered"):
                    self.stats.recovered += 1
                    self._count("fabric_recovered_total")
                self.stats.per_worker[worker] = (
                    self.stats.per_worker.get(worker, 0) + 1)
                history[key].append({"event": "done", "worker": worker,
                                     "ts": event.get("ts")})
                complete(key, result, float(event.get("elapsed") or 0.0))
            elif kind == "error":
                self.stats.errors += 1
                self._count("fabric_worker_errors_total")
                history[key].append({"event": "error", "worker": worker,
                                     "error": event.get("error"),
                                     "tb": event.get("tb"),
                                     "ts": event.get("ts")})
                attempt_failed(key, worker)
            elif kind == "expired":
                self.stats.expired += 1
                self._count("fabric_lease_expired_total")
                history[key].append({"event": "expired", "worker": worker,
                                     "ts": event.get("ts")})
                if key not in completed and key not in failed:
                    self.stats.requeued += 1
                    self._count("fabric_requeued_total")
                attempt_failed(key, worker)
            elif kind == "abandon":
                history[key].append({"event": "abandon", "worker": worker,
                                     "ts": event.get("ts")})

        try:
            while True:
                events, offset = table.read_events(offset)
                for event in events:
                    ingest(event)

                # reap local workers; fast-reclaim their leases; respawn
                alive = []
                for info in workers:
                    code = info["proc"].poll()
                    if code is None:
                        alive.append(info)
                        continue
                    info["log"].close()
                    if code != 0:
                        self.stats.worker_deaths += 1
                        self._count("fabric_worker_deaths_total")
                        table.reclaim_worker(info["id"])
                    work_left = pending_keys - completed - failed
                    if not draining and work_left and not stop.is_set():
                        alive.append(self._spawn_worker(
                            info["slot"], info["generation"] + 1))
                workers = alive

                table.reclaim_expired()

                self._gauge("fabric_workers_alive", len(workers),
                            "Live local fabric worker processes.")
                self._gauge("fabric_leases_active", table.active_leases(),
                            "Leases currently held by workers.")

                if pending_keys <= completed | failed:
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
            # final harvest: completions that landed while we were leaving
            events, offset = table.read_events(offset)
            for event in events:
                ingest(event)
        finally:
            for info in workers:
                proc = info["proc"]
                if proc.poll() is None:
                    proc.terminate()
            deadline = time.monotonic() + 5.0
            for info in workers:
                proc = info["proc"]
                try:
                    proc.wait(timeout=max(0.1, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                try:
                    info["log"].close()
                except OSError:
                    pass
            for worker, points in self.stats.per_worker.items():
                self._gauge("fabric_worker_points", points,
                            "Points completed, per fabric worker.",
                            worker=worker)
            try:
                _write_json_atomic(
                    Path(config.queue_dir) / STATE_FILE,
                    {
                        "completed": len(completed),
                        "quarantined": sorted(failed),
                        "stats": {
                            k: v for k, v in vars(self.stats).items()
                            if k != "per_worker"
                        },
                        "per_worker": self.stats.per_worker,
                        "updated": time.time(),
                    },
                )
            except OSError:
                pass
        return self.stats


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

    Replays ``events.jsonl`` and checks, per seeded point: it is done or
    quarantined (never lost), it is counted at most once (duplicates are
    tolerated but tallied), its result is actually loadable from the
    results cache, and no lease survived the sweep.  Raises
    :class:`QueueError` when the directory is not a queue.
    """
    table = LeaseTable(queue_dir)
    meta = table.load()
    keys = list(meta["keys"])
    events, _ = table.read_events(0)
    seeds = 0
    done_counts: dict[str, int] = {}
    quarantined: set[str] = set()
    expired = 0
    for event in events:
        kind = event.get("ev")
        if kind == "seed":
            seeds += 1
        elif kind == "done":
            done_counts[event["key"]] = done_counts.get(event["key"], 0) + 1
        elif kind == "quarantine":
            quarantined.add(event["key"])
        elif kind == "expired":
            expired += 1
    problems: list[str] = []
    if seeds != 1:
        problems.append(f"queue seeded {seeds} times (expected exactly once)")
    results_dir = meta.get("results_dir")
    for key in keys:
        is_done = key in done_counts
        if not is_done and key not in quarantined and expect_complete:
            problems.append(f"point {key[:12]} lost: neither done nor "
                            f"quarantined")
        if is_done and results_dir:
            path = os.path.join(results_dir, f"{key}.pkl")
            try:
                with open(path, "rb") as handle:
                    pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ValueError):
                problems.append(f"point {key[:12]} done but its result is "
                                f"missing or unreadable in {results_dir}")
    foreign = set(done_counts) - set(keys)
    if foreign:
        problems.append(f"{len(foreign)} completion(s) for keys never seeded")
    active = table.active_leases()
    if active and expect_complete:
        problems.append(f"{active} lease(s) still active after completion")
    return FabricAudit(
        total=len(keys),
        done=sum(1 for key in keys if key in done_counts),
        quarantined=len(quarantined & set(keys)),
        duplicates=sum(count - 1 for count in done_counts.values()
                       if count > 1),
        expired=expired,
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
    "audit_queue",
    "chaos_coin",
    "worker_main",
]
