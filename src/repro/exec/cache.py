"""Content-addressed result cache for simulation sweeps.

Two layers: an in-memory dict for the lifetime of a process, and an
optional on-disk directory of pickle files so repeated sweeps across
processes (CLI invocations, benchmark re-runs) never re-simulate a point.
Keys are the canonical content hashes produced by
:func:`repro.noc.spec.stable_key`, so any change to a topology, traffic
spec, ``NoCConfig`` field, routing algorithm or simulation window yields a
different key -- a cache hit is a guarantee of an identical run.

The cache never evicts silently mid-sweep; :meth:`ResultCache.clear`
empties the memory layer explicitly.  A *corrupt* on-disk entry (torn
write, truncation, foreign bytes) is counted, deleted, and treated as a
miss -- the sweep re-simulates the point instead of raising mid-run.
Hit/miss/corruption/byte counters live on :class:`CacheStats`
(``cache.counters`` accumulates in place, :meth:`ResultCache.stats`
returns a frozen snapshot) and feed the sweep observability report and
the telemetry metrics registry.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time
from dataclasses import dataclass, field

from repro.util.durable import create_exclusive, read_json, write_atomic

#: Gauge names exported by :meth:`ResultCache.export_metrics`,
#: pre-registered on instrumented sweeps so a hit-free run still renders
#: the full series (zeros), keeping snapshot merges shape-stable.
CACHE_GAUGE_HELP = {
    "result_cache_hits": "Result-cache lookups served from cache.",
    "result_cache_misses": "Result-cache lookups that missed.",
    "result_cache_stores": "Results written to the cache.",
    "result_cache_corrupt_entries": "Unreadable on-disk entries dropped "
                                    "and re-run.",
    "result_cache_bytes_read": "Pickle bytes served from disk.",
    "result_cache_bytes_written": "Pickle bytes persisted to disk.",
    "result_cache_hit_rate": "Fraction of lookups served from cache.",
}


@dataclass
class CacheStats:
    """Hit/miss/byte counters for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    corrupt: int = 0  # unreadable on-disk entries (counted, deleted, re-run)
    bytes_read: int = 0  # pickle bytes served from disk
    bytes_written: int = 0  # pickle bytes persisted to disk

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            stores=self.stores,
            memory_hits=self.memory_hits,
            disk_hits=self.disk_hits,
            corrupt=self.corrupt,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
        )


#: A claim file untouched for this long is presumed orphaned (its holder
#: crashed before releasing) and may be taken over by the next claimant.
DEFAULT_CLAIM_TTL_S = 600.0


@dataclass
class CacheClaim:
    """The exclusive right to compute one cache key.

    Returned by :meth:`ResultCache.get_or_begin` to exactly one claimant
    per key at a time, so request coalescing can never race two writers
    for the same slot.  The holder ends the claim with :meth:`release`:
    after publishing the value with :meth:`ResultCache.put` (or having a
    sweep runner publish it), or without a value when the computation
    failed, so another claimant may retry the key.
    """

    cache: "ResultCache"
    key: str
    _ended: bool = field(default=False, repr=False)

    def release(self) -> None:
        """End the claim; idempotent after the first call."""
        if self._ended:
            return
        self._ended = True
        self.cache._release_claim(self.key)


@dataclass
class ResultCache:
    """In-memory + optional on-disk store of simulation results by key.

    ``directory=None`` keeps the cache purely in memory.  With a directory,
    entries are pickled to ``<directory>/<key>.pkl`` (written atomically via
    a temp file + rename) and disk hits are promoted into memory.
    """

    directory: str | None = None
    counters: CacheStats = field(default_factory=CacheStats)
    _memory: dict = field(default_factory=dict, repr=False)
    _claims: set = field(default_factory=set, repr=False, compare=False)
    _claims_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.directory is not None:
            os.makedirs(self.directory, exist_ok=True)

    def stats(self) -> CacheStats:
        """A point-in-time snapshot of the hit/miss/bytes counters."""
        return self.counters.snapshot()

    def export_metrics(self, registry) -> CacheStats:
        """Set the ``result_cache_*`` gauges on a metrics registry.

        Returns the :class:`CacheStats` snapshot the gauges were read
        from, so callers (the sweep runner, the watch exporter) reuse
        one consistent reading instead of sampling twice.
        """
        stats = self.stats()
        registry.preregister(gauges=CACHE_GAUGE_HELP)
        gauge = registry.gauge
        gauge("result_cache_hits").set(stats.hits)
        gauge("result_cache_misses").set(stats.misses)
        gauge("result_cache_stores").set(stats.stores)
        gauge("result_cache_corrupt_entries").set(stats.corrupt)
        gauge("result_cache_bytes_read").set(stats.bytes_read)
        gauge("result_cache_bytes_written").set(stats.bytes_written)
        gauge("result_cache_hit_rate").set(round(stats.hit_rate, 6))
        return stats

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"{key}.pkl")

    def get(self, key: str):
        """The cached value for ``key``, or ``None`` on a miss.

        A corrupt disk entry is *not* an error: it is counted on
        ``counters.corrupt``, deleted so the slot can be rewritten, and
        reported as a miss -- the caller simply re-simulates the point.
        """
        if key in self._memory:
            self.counters.hits += 1
            self.counters.memory_hits += 1
            return self._memory[key]
        if self.directory is not None:
            path = self._path(key)
            if os.path.exists(path):
                try:
                    with open(path, "rb") as handle:
                        blob = handle.read()
                    value = pickle.loads(blob)
                except Exception:
                    # torn write / truncation / foreign bytes: a pickle of
                    # hostile provenance can raise nearly anything, so the
                    # broad except is deliberate -- count, drop, re-run
                    self.counters.corrupt += 1
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                else:
                    self._memory[key] = value
                    self.counters.hits += 1
                    self.counters.disk_hits += 1
                    self.counters.bytes_read += len(blob)
                    return value
        self.counters.misses += 1
        return None

    def put(self, key: str, value) -> None:
        """Store a value under ``key`` in every layer.

        The disk write is *crash-atomic*: the pickle is written to a temp
        file in the same directory, flushed and fsynced, then published
        with ``os.replace``.  A writer killed (even SIGKILLed) at any
        instant leaves either the previous entry or the complete new one
        -- never a truncated pickle for the corrupt-entry counter to
        find.  An unwritable disk degrades to memory-only (the sweep
        continues); non-I/O errors (an unpicklable value) propagate.
        """
        self._memory[key] = value
        self.counters.stores += 1
        if self.directory is not None:
            blob = pickle.dumps(value)
            try:
                write_atomic(self._path(key), blob, fsync=True)
            except OSError:
                return
            self.counters.bytes_written += len(blob)

    def remember(self, key: str, value) -> None:
        """Hold ``value`` in memory only: another process (a fabric
        worker) already published it to this cache's directory."""
        self._memory[key] = value

    # ------------------------------------------------------------------
    # JSON side-records, outside the hit/miss accounting.
    # ``perfbench/layers.py`` (frozen with the repository benchmark) binds
    # these two names to time the ``cache.manifest`` layer.  Nothing in
    # the product calls them any more -- a sweep's checkpoints are its
    # cached results -- so that layer reads zero.
    # ------------------------------------------------------------------
    def get_json(self, name: str):
        """A JSON side-record by name, or ``None`` when absent/unreadable."""
        memo_key = f"__json__:{name}"
        if memo_key in self._memory:
            return self._memory[memo_key]
        if self.directory is not None:
            value = read_json(os.path.join(self.directory, f"{name}.json"))
            if value is not None:
                self._memory[memo_key] = value
            return value
        return None

    def put_json(self, name: str, value) -> None:
        """Store a JSON side-record (crash-atomically when disk-backed,
        same temp-file + fsync + ``os.replace`` discipline as :meth:`put`)."""
        self._memory[f"__json__:{name}"] = value
        if self.directory is not None:
            text = json.dumps(value, indent=1, sort_keys=True)
            try:
                write_atomic(os.path.join(self.directory, f"{name}.json"),
                             text.encode("utf-8"), fsync=True)
            except OSError:
                pass

    # ------------------------------------------------------------------
    # claims (singleflight): at most one computer per key at a time
    # ------------------------------------------------------------------
    def _claim_path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, f"{key}.claim")

    def get_or_begin(self, key: str) -> tuple:
        """Look up ``key``; on a miss, try to claim the right to compute it.

        Three-way return contract:

        - ``(value, None)`` -- cache hit, nothing to compute;
        - ``(None, claim)`` -- miss and *this caller* won the
          :class:`CacheClaim`: compute and :meth:`put` the value, then
          ``claim.release()`` (release without a value on failure);
        - ``(None, None)`` -- miss but another claimant (thread or
          process) already holds the claim: poll :meth:`get` / re-call
          ``get_or_begin`` until the value lands or the claim clears.

        Disk-backed caches arbitrate across processes with an
        ``O_CREAT | O_EXCL`` claim file (the same primitive as the sweep
        fabric's leases); memory-only caches, and disk-backed ones whose
        directory refuses the claim file, arbitrate across threads with
        an internal set, as :meth:`put` degrades to memory.  A claim file
        older than ``DEFAULT_CLAIM_TTL_S`` (read at each call) is
        presumed orphaned by a crashed holder and is taken over.
        """
        value = self.get(key)
        if value is not None:
            return value, None
        claim = (self._begin_memory_claim(key) if self.directory is None
                 else self._begin_disk_claim(key))
        if claim is None:
            return None, None
        # close the miss -> claim window: a competitor may have completed
        # (and released) between our miss and our claim win
        value = self.get(key)
        if value is not None:
            claim.release()
            return value, None
        return None, claim

    def _begin_memory_claim(self, key: str):
        with self._claims_lock:
            if key in self._claims:
                return None
            self._claims.add(key)
        return CacheClaim(self, key)

    def _begin_disk_claim(self, key: str):
        path = self._claim_path(key)
        stamp = json.dumps({"pid": os.getpid(), "ts": time.time()})
        for attempt in (0, 1):
            try:
                won = create_exclusive(path, stamp.encode("utf-8"))
            except OSError:
                # unwritable directory: arbitrate in-process, as put()
                # degrades to memory
                return self._begin_memory_claim(key)
            if won:
                with self._claims_lock:
                    self._claims.add(key)
                return CacheClaim(self, key)
            try:
                age = time.time() - os.path.getmtime(path)
            except OSError:
                continue  # released between open and stat: retry once
            if attempt == 0 and age > DEFAULT_CLAIM_TTL_S:
                # orphaned claim (holder crashed): take it over
                try:
                    os.unlink(path)
                except OSError:
                    pass
                continue
            return None
        return None

    def _release_claim(self, key: str) -> None:
        with self._claims_lock:
            self._claims.discard(key)
        if self.directory is not None:
            try:
                os.unlink(self._claim_path(key))
            except OSError:
                pass

    def has_claim(self, key: str) -> bool:
        """True while some claimant (any thread/process) holds ``key``."""
        with self._claims_lock:
            if key in self._claims:
                return True
        return (self.directory is not None
                and os.path.exists(self._claim_path(key)))

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self.directory is not None and os.path.exists(self._path(key))

    def __len__(self) -> int:
        return len(self._memory)

    def clear(self) -> None:
        """Drop the in-memory layer (on-disk entries are kept)."""
        self._memory.clear()


__all__ = [
    "CACHE_GAUGE_HELP",
    "CacheClaim",
    "CacheStats",
    "DEFAULT_CLAIM_TTL_S",
    "ResultCache",
]
