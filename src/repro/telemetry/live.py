"""Live sweep observability: one streaming view over a running sweep.

``repro report`` is strictly post-hoc and the fabric's ``events.jsonl``
is raw; this module is the piece in between -- a streaming aggregator
that feeds the fabric's torn-tail-tolerant event stream (via
:meth:`repro.exec.fabric.LeaseTable.read_events` offsets, so a watcher
never skips or double-counts an event across partial lines) through the
coordinator's own fold, :class:`repro.exec.fabric.QueueLog`, into one
:class:`SweepView` snapshot:

- per-worker and per-shard throughput (rolling-window points/s),
- lease health (live / expiring / reclaimed / quarantined),
- retry and chaos counters (errors, expiries, duplicates, recoveries),
- :class:`~repro.exec.cache.ResultCache` hit rate,
- an ETA from a least-squares regression of the completion rate.

The view is surfaced three ways, all stdlib-only:

- :func:`render_terminal` -- the ``repro watch QUEUE_DIR`` ANSI
  dashboard (``--once`` / ``--json`` for scripts and CI);
- :func:`render_html` / :func:`write_html_atomic` -- a self-refreshing
  single-file HTML dashboard written atomically next to the queue;
- :class:`MetricsServer` + :class:`LiveMetricsExporter` -- a long-lived
  Prometheus exposition endpoint (``repro watch --serve :PORT``) built
  on ``http.server`` and the existing
  :class:`~repro.telemetry.metrics.MetricsRegistry` text render.

Everything here is read-only with respect to the queue directory: a
watcher can attach to any fabric sweep -- running, crashed, finished,
under chaos -- without perturbing it (the <2 % attach overhead is gated by
``benchmarks/bench_extension_fabric.py``).
"""

from __future__ import annotations

import html as _html
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.metrics import MetricsRegistry
from repro.util.durable import read_json, write_atomic
from repro.util.httpd import PROMETHEUS_CONTENT_TYPE, QuietHandler, ThreadedServer

#: Gauges exported by the watch surfaces, pre-registered so a scrape of
#: a freshly attached watcher renders every series (as zeros) instead of
#: omitting them -- an absent metric is indistinguishable from a broken
#: exporter, a zero is an answer.
WATCH_GAUGE_HELP = {
    "watch_points_total": "Points in the watched sweep.",
    "watch_points_done": "Points completed (first done event per key).",
    "watch_points_failed": "Points failed or quarantined.",
    "watch_points_pending": "Points neither done nor failed yet.",
    "watch_rate_points_per_second": "Rolling-window completion rate.",
    "watch_eta_seconds": "Estimated seconds until the sweep completes "
                         "(-1 when unknown).",
    "watch_leases_live": "Leases currently held and not near expiry.",
    "watch_leases_expiring": "Held leases within a third of their ttl.",
    "watch_workers_active": "Workers seen alive in the rolling window.",
    "watch_cache_hit_rate": "Fraction of completions served from cache "
                            "(recovered/orphaned results).",
    "watch_sweep_complete": "1 once the sweep has shut down, else 0.",
}

#: Cumulative event counts re-exported as counters on the scrape
#: endpoint (names shared with the coordinator's own telemetry, so one
#: Grafana board covers both in-process and attached monitoring).
WATCH_COUNTER_HELP = {
    "fabric_lease_claims_total": "Lease claims observed in the event log.",
    "fabric_lease_expired_total": "Lease expiries observed.",
    "fabric_requeued_total": "Expiries that re-queued an unfinished point.",
    "fabric_done_duplicates_total": "Duplicate completions observed.",
    "fabric_worker_errors_total": "Worker errors observed.",
    "fabric_worker_spawns_total": "worker-start events observed.",
    "fabric_quarantined_total": "Points quarantined.",
    "fabric_recovered_total": "Completions recovered from orphaned results.",
}


def shard_of(key: str, shards: int) -> int:
    """Stable content-derived shard id for one point key.

    Every party (workers emitting events, watchers replaying them)
    computes the same shard for the same key with no coordination; hex
    content-hash keys take the fast path, anything else falls back to a
    CRC so foreign key shapes still shard deterministically.
    """
    if shards <= 1:
        return 0
    try:
        return int(key[:8], 16) % shards
    except (ValueError, TypeError):
        return zlib.crc32(str(key).encode("utf-8")) % shards


def _fmt_duration(seconds: float | None) -> str:
    if seconds is None or seconds < 0:
        return "?"
    seconds = float(seconds)
    if seconds < 60:
        return f"{seconds:.0f}s"
    if seconds < 3600:
        return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"{int(seconds // 3600)}h{int(seconds % 3600 // 60):02d}m"


# ----------------------------------------------------------------------
# rate + ETA estimation
# ----------------------------------------------------------------------
class RateEstimator:
    """Completion-rate and ETA from a rolling window of (t, done) samples.

    The instantaneous rate is the least-squares slope of ``done`` against
    time over the trailing ``window_s`` seconds -- a regression, not a
    two-point difference, so bursty fabric completions (several workers
    landing at once) do not whipsaw the ETA.  The overall rate
    (first-to-last sample) is kept as a fallback for windows with too
    little signal.
    """

    def __init__(self, window_s: float = 30.0):
        self.window_s = float(window_s)
        self._samples: deque[tuple[float, int]] = deque()
        self._first: tuple[float, int] | None = None

    def observe(self, now: float, done: int) -> None:
        if self._first is None:
            self._first = (now, done)
        samples = self._samples
        if samples and samples[-1][0] >= now and samples[-1][1] >= done:
            return  # duplicate / out-of-order sample: nothing new
        samples.append((now, done))
        horizon = now - self.window_s
        while len(samples) > 2 and samples[1][0] <= horizon:
            samples.popleft()

    def rate(self) -> float:
        """Points per second over the rolling window (0.0 without signal)."""
        samples = self._samples
        if len(samples) < 2:
            return 0.0
        t_mean = sum(t for t, _ in samples) / len(samples)
        d_mean = sum(d for _, d in samples) / len(samples)
        var = sum((t - t_mean) ** 2 for t, _ in samples)
        if var <= 0.0:
            return 0.0
        cov = sum((t - t_mean) * (d - d_mean) for t, d in samples)
        return max(0.0, cov / var)

    def overall_rate(self) -> float:
        """Points per second from the first sample to the latest."""
        if self._first is None or not self._samples:
            return 0.0
        t0, d0 = self._first
        t1, d1 = self._samples[-1]
        if t1 <= t0:
            return 0.0
        return max(0.0, (d1 - d0) / (t1 - t0))

    def eta_s(self, remaining: int) -> float | None:
        """Seconds until ``remaining`` more points complete (None: unknown)."""
        if remaining <= 0:
            return 0.0
        slope = self.rate() or self.overall_rate()
        if slope <= 0.0:
            return None
        return remaining / slope


# ----------------------------------------------------------------------
# the view model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerView:
    """One worker's slice of a :class:`SweepView`."""

    name: str
    generation: int
    points: int
    rate_pps: float
    last_seen_s: float | None  # seconds since its last event (None: never)


@dataclass(frozen=True)
class ShardView:
    """One shard's slice of a :class:`SweepView`."""

    shard: int
    total: int
    done: int
    rate_pps: float


@dataclass(frozen=True)
class LeaseHealth:
    """Lease buckets at one instant plus cumulative churn."""

    live: int = 0
    expiring: int = 0       # within a third of the ttl of their deadline
    reclaimed: int = 0      # cumulative expired events
    quarantined: int = 0    # points written off by the circuit breaker


@dataclass(frozen=True)
class SweepView:
    """A frozen snapshot of one sweep's progress, renderer-agnostic.

    ``done``/``failed`` count unique point keys and come from the
    coordinator's own fold (:class:`repro.exec.fabric.QueueLog`) -- so a
    finished fabric sweep's view totals equal its
    :class:`~repro.exec.runner.SweepReport` and its audit, chaos or not.
    """

    source: str                      # always "fabric"
    queue_dir: str | None
    total: int
    done: int
    failed: int
    pending: int
    in_flight: int                   # leases currently held
    cache_hits: int                  # recovered / cache-served completions
    cache_hit_rate: float
    duplicates: int
    errors: int
    expired: int
    requeued: int
    claims: int
    worker_spawns: int
    worker_exits: int
    rate_pps: float
    overall_rate_pps: float
    eta_s: float | None
    elapsed_s: float
    complete: bool
    draining: bool
    leases: LeaseHealth = field(default_factory=LeaseHealth)
    workers: tuple[WorkerView, ...] = ()
    shards: tuple[ShardView, ...] = ()
    updated_ts: float = 0.0

    @property
    def quarantined(self) -> int:
        return self.leases.quarantined

    def to_dict(self) -> dict:
        """A JSON-ready rendering (``repro watch --json`` schema)."""
        return {
            "source": self.source,
            "queue_dir": self.queue_dir,
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "pending": self.pending,
            "in_flight": self.in_flight,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "duplicates": self.duplicates,
            "errors": self.errors,
            "expired": self.expired,
            "requeued": self.requeued,
            "claims": self.claims,
            "worker_spawns": self.worker_spawns,
            "worker_exits": self.worker_exits,
            "rate_pps": round(self.rate_pps, 4),
            "overall_rate_pps": round(self.overall_rate_pps, 4),
            "eta_s": (None if self.eta_s is None else round(self.eta_s, 2)),
            "elapsed_s": round(self.elapsed_s, 3),
            "complete": self.complete,
            "draining": self.draining,
            "leases": {
                "live": self.leases.live,
                "expiring": self.leases.expiring,
                "reclaimed": self.leases.reclaimed,
                "quarantined": self.leases.quarantined,
            },
            "workers": [
                {
                    "name": w.name,
                    "generation": w.generation,
                    "points": w.points,
                    "rate_pps": round(w.rate_pps, 4),
                    "last_seen_s": (None if w.last_seen_s is None
                                    else round(w.last_seen_s, 2)),
                }
                for w in self.workers
            ],
            "shards": [
                {"shard": s.shard, "total": s.total, "done": s.done,
                 "rate_pps": round(s.rate_pps, 4)}
                for s in self.shards
            ],
            "updated_ts": round(self.updated_ts, 4),
        }


# ----------------------------------------------------------------------
# the streaming aggregator
# ----------------------------------------------------------------------
class LiveAggregator:
    """Fold fabric events into :class:`SweepView`\\ s.

    Every count comes from the fold the coordinator itself runs
    (:class:`repro.exec.fabric.QueueLog`, ``log``), so a view agrees with
    the sweep's report and its audit.  The aggregator adds only what a
    watcher needs on top: per-worker and per-shard rates, the ETA and the
    lease scan.  The caller owns the ``read_events`` offset, so delivery
    is exactly-once by construction.
    """

    def __init__(self, *, total: int = 0, keys: tuple[str, ...] = (),
                 shards: int = 0, lease_ttl_s: float | None = None,
                 window_s: float = 30.0, queue_dir: str | None = None,
                 log=None):
        # lazy: avoid exec<->telemetry cycle
        from repro.exec.fabric import LEASE_TTL_S, QueueLog
        if log is None:
            log = QueueLog(keys or None)
        self.log = log
        self.queue_dir = queue_dir
        self.total = int(total)
        self.shards = int(shards)
        self.lease_ttl_s = float(lease_ttl_s or LEASE_TTL_S)
        self.window_s = float(window_s)
        self._shard_totals: dict[int, int] = {}
        for key in keys:
            shard = shard_of(key, self.shards)
            self._shard_totals[shard] = self._shard_totals.get(shard, 0) + 1
        self._per_worker: dict[str, dict] = {}
        self._shard_stamps: dict[int, deque] = {}
        self._lease_live = 0
        self._lease_expiring = 0
        self._first_ts: float | None = None
        self._last_ts: float | None = None
        self.estimator = RateEstimator(window_s=window_s)

    def _touch(self, ts: float) -> None:
        if self._first_ts is None or ts < self._first_ts:
            self._first_ts = ts
        if self._last_ts is None or ts > self._last_ts:
            self._last_ts = ts

    def _worker(self, name: str) -> dict:
        entry = self._per_worker.get(name)
        if entry is None:
            entry = {"generation": 0, "last_ts": None, "stamps": deque()}
            self._per_worker[name] = entry
        return entry

    def _stamp(self, stamps: deque, ts: float) -> None:
        stamps.append(ts)
        horizon = ts - self.window_s
        while stamps and stamps[0] < horizon:
            stamps.popleft()

    def _shard(self, key: str, event: dict) -> int:
        shard = event.get("shard")
        return shard_of(key, self.shards) if shard is None else int(shard)

    def fold(self, event: dict) -> None:
        """Ingest one event: the fold's verdicts plus rate stamps."""
        ts = float(event.get("ts") or time.time())
        self._touch(ts)
        worker = event.get("worker")
        if worker:
            self._worker(worker)["last_ts"] = ts
        if event.get("ev") == "worker-start":
            self._worker(worker or "?")["generation"] = int(
                event.get("generation") or 0)
        if self.log.fold(event) == "done":
            self._stamp(self._worker(worker or "?")["stamps"], ts)
            shard = self._shard(event["key"], event)
            self._stamp(self._shard_stamps.setdefault(shard, deque()), ts)
            self.estimator.observe(ts, len(self.log.done))

    def fold_many(self, events) -> None:
        for event in events:
            self.fold(event)

    # -- lease health (fed by the watcher's lease scan) -----------------
    def lease_scan(self, leases, now: float | None = None) -> None:
        """Bucket the currently held leases into live vs expiring."""
        now = time.time() if now is None else now
        margin = self.lease_ttl_s / 3.0
        live = expiring = 0
        for lease in leases:
            deadline = float(lease.get("deadline") or 0.0)
            if deadline - now <= margin:
                expiring += 1
            else:
                live += 1
        self._lease_live = live
        self._lease_expiring = expiring

    # -- snapshot -------------------------------------------------------
    def snapshot(self, now: float | None = None) -> SweepView:
        now = time.time() if now is None else now
        log = self.log
        total = max(self.total, log.total)
        done, failed = len(log.done), len(log.quarantined)
        pending = max(0, total - done - failed)
        complete = log.shut_down or (total > 0 and pending == 0)
        elapsed = 0.0
        if self._first_ts is not None:
            last = self._last_ts if complete else max(
                self._last_ts or now, now)
            elapsed = max(0.0, last - self._first_ts)

        def _rate(stamps: deque) -> float:
            if len(stamps) < 2:
                return 0.0
            span = max(stamps[-1] - stamps[0], 1e-9)
            return (len(stamps) - 1) / span

        per_worker = log.per_worker()
        workers = tuple(
            WorkerView(
                name=name,
                generation=entry["generation"],
                points=per_worker.get(name, 0),
                rate_pps=_rate(entry["stamps"]),
                last_seen_s=(None if entry["last_ts"] is None
                             else max(0.0, now - entry["last_ts"])),
            )
            for name, entry in sorted(self._per_worker.items())
        )
        shard_done: dict[int, int] = {}
        for key, event in log.done.items():
            shard = self._shard(key, event)
            shard_done[shard] = shard_done.get(shard, 0) + 1
        shards = tuple(
            ShardView(
                shard=shard,
                total=self._shard_totals.get(shard, 0),
                done=shard_done.get(shard, 0),
                rate_pps=_rate(self._shard_stamps.get(shard, deque())),
            )
            for shard in sorted(set(self._shard_totals) | set(shard_done))
        )
        cache_hits = log.recovered()
        return SweepView(
            source="fabric",
            queue_dir=self.queue_dir,
            total=total,
            done=done,
            failed=failed,
            pending=pending,
            in_flight=self._lease_live + self._lease_expiring,
            cache_hits=cache_hits,
            cache_hit_rate=(cache_hits / done if done else 0.0),
            duplicates=log.duplicates,
            errors=log.counts["error"],
            expired=log.counts["expired"],
            requeued=log.requeued,
            claims=log.counts["claim"],
            worker_spawns=log.counts["worker-start"],
            worker_exits=log.counts["worker-exit"],
            rate_pps=self.estimator.rate(),
            overall_rate_pps=self.estimator.overall_rate(),
            eta_s=(0.0 if complete else self.estimator.eta_s(pending)),
            elapsed_s=elapsed,
            complete=complete,
            draining=log.draining,
            leases=LeaseHealth(
                live=self._lease_live,
                expiring=self._lease_expiring,
                reclaimed=log.counts["expired"],
                quarantined=failed,
            ),
            workers=workers,
            shards=shards,
            updated_ts=now,
        )


# ----------------------------------------------------------------------
# the queue watcher: LeaseTable tailing + lease scanning
# ----------------------------------------------------------------------
class QueueWatcher:
    """Incrementally tail one queue directory into live views.

    Read-only: tails ``events.jsonl`` from a persistent byte offset
    (torn tails never advance it -- the partial line is re-read whole on
    the next refresh) and scans the lease directory for health.  Safe to
    attach to a sweep in flight, from any process, at any time.
    """

    def __init__(self, queue_dir: str | Path, window_s: float = 30.0):
        from repro.exec.fabric import LeaseTable  # lazy: avoid exec<->telemetry cycle
        self.table = LeaseTable(queue_dir)
        self.window_s = window_s
        self.offset = 0
        self.aggregator: LiveAggregator | None = None

    def _load(self) -> LiveAggregator:
        from repro.exec.fabric import QueueLog

        meta = self.table.load()  # raises QueueError when no queue yet
        settings = meta.get("settings", {})
        self.aggregator = LiveAggregator(
            total=int(meta.get("total") or 0),
            keys=tuple(meta.get("keys", ())),
            shards=int(settings.get("shards") or 0),
            lease_ttl_s=self.table.lease_ttl_s,
            window_s=self.window_s,
            queue_dir=str(self.table.directory),
            log=QueueLog.of(self.table),
        )
        return self.aggregator

    def refresh(self, now: float | None = None) -> SweepView:
        """Ingest everything new and return the current view."""
        aggregator = self.aggregator or self._load()
        events, self.offset = self.table.read_events(self.offset)
        aggregator.fold_many(events)
        leases = [read_json(entry.path) for entry in self.table.lease_files()]
        aggregator.lease_scan([lease for lease in leases if lease is not None],
                              now)
        return aggregator.snapshot(now)


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
_ANSI_HOME = "\x1b[H\x1b[J"


def _bar(done: int, failed: int, total: int, width: int = 32) -> str:
    if total <= 0:
        return "." * width
    ok = int(width * done / total)
    bad = int(round(width * failed / total))
    bad = min(bad, width - ok)
    return "#" * ok + "x" * bad + "." * (width - ok - bad)


def render_terminal(view: SweepView, *, color: bool = True) -> str:
    """The multi-line text dashboard (no cursor control; caller repaints)."""

    def paint(text: str, code: str) -> str:
        return f"\x1b[{code}m{text}\x1b[0m" if color else text

    state = ("DONE" if view.complete
             else "DRAINING" if view.draining else "RUNNING")
    state = paint(state, "32" if view.complete and not view.failed
                  else "31" if view.failed else "33")
    where = view.queue_dir or "queue"
    lines = [
        f"sweep @ {where} -- {state}   "
        f"(updated {time.strftime('%H:%M:%S', time.localtime(view.updated_ts))})",
        f"  [{_bar(view.done, view.failed, view.total)}] "
        f"{view.done}/{view.total} done"
        + (f", {paint(str(view.failed) + ' failed', '31')}" if view.failed
           else "")
        + f", {view.pending} pending"
        + (f" ({view.in_flight} in flight)" if view.in_flight else ""),
        f"  rate  {view.rate_pps:.2f} pts/s (window), "
        f"{view.overall_rate_pps:.2f} pts/s overall, "
        f"eta {_fmt_duration(view.eta_s)}, elapsed {_fmt_duration(view.elapsed_s)}",
        f"  leases  {view.leases.live} live / {view.leases.expiring} expiring "
        f"/ {view.leases.reclaimed} reclaimed / "
        f"{view.leases.quarantined} quarantined",
        f"  churn  {view.claims} claims, {view.errors} errors, "
        f"{view.requeued} requeued, {view.duplicates} duplicates, "
        f"{view.cache_hits} cache hits ({100.0 * view.cache_hit_rate:.0f}%)",
        f"  workers  {view.worker_spawns} started / {view.worker_exits} exited",
    ]
    for worker in view.workers:
        if worker.points == 0 and worker.last_seen_s is None:
            continue
        seen = ("never" if worker.last_seen_s is None
                else f"{worker.last_seen_s:.1f}s ago")
        lines.append(
            f"    {worker.name:<12} gen {worker.generation:<3} "
            f"{worker.points:>4} done  {worker.rate_pps:6.2f} pts/s  "
            f"seen {seen}"
        )
    active_shards = [s for s in view.shards if s.total or s.done]
    if active_shards:
        lines.append("  shards")
        for shard in active_shards:
            lines.append(
                f"    s{shard.shard:<3} {shard.done:>4}/{shard.total:<4} "
                f"{shard.rate_pps:6.2f} pts/s"
            )
    return "\n".join(lines)


_HTML_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="{refresh}">
<title>repro watch -- {where}</title>
<style>
  body {{ font-family: -apple-system, "Segoe UI", sans-serif; margin: 2em;
         background: #fafafa; color: #1a1a1a; }}
  h1 {{ font-size: 1.25em; }}
  .state {{ padding: 2px 10px; border-radius: 4px; color: white;
           background: {state_color}; }}
  .bar {{ width: 100%; max-width: 640px; height: 22px; background: #e0e0e0;
         border-radius: 4px; overflow: hidden; display: flex; }}
  .bar .ok {{ background: #2e7d32; height: 100%; width: {ok_pct:.2f}%; }}
  .bar .bad {{ background: #c62828; height: 100%; width: {bad_pct:.2f}%; }}
  table {{ border-collapse: collapse; margin-top: 1em; }}
  th, td {{ text-align: left; padding: 3px 14px 3px 0;
           border-bottom: 1px solid #ddd; font-size: 0.9em; }}
  .muted {{ color: #777; }}
</style>
</head>
<body>
<h1>repro watch -- {where} <span class="state">{state}</span></h1>
<div class="bar"><div class="ok"></div><div class="bad"></div></div>
<p>{done}/{total} done{failed_text}, {pending} pending ({in_flight} in flight)
&middot; {rate:.2f} pts/s &middot; eta {eta} &middot; elapsed {elapsed}</p>
<p class="muted">leases: {lease_live} live / {lease_expiring} expiring /
{lease_reclaimed} reclaimed / {lease_quarantined} quarantined &middot;
{claims} claims, {errors} errors, {requeued} requeued, {duplicates} duplicates,
{cache_hits} cache hits ({cache_hit_rate:.0f}%)</p>
{worker_table}
{shard_table}
<p class="muted">updated {updated} &middot; written atomically by
<code>repro watch</code>; this page refreshes itself every
{refresh}&nbsp;s.</p>
</body>
</html>
"""


def _html_table(title: str, headers, rows) -> str:
    if not rows:
        return ""
    head = "".join(f"<th>{_html.escape(str(h))}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_html.escape(str(cell))}</td>"
                         for cell in row) + "</tr>"
        for row in rows
    )
    return (f"<h2 style='font-size:1em'>{_html.escape(title)}</h2>"
            f"<table><tr>{head}</tr>{body}</table>")


def render_html(view: SweepView, refresh_s: float = 2.0) -> str:
    """A self-contained, self-refreshing HTML dashboard (stdlib only)."""
    total = max(view.total, 1)
    state = ("done" if view.complete
             else "draining" if view.draining else "running")
    state_color = ("#c62828" if view.failed
                   else "#2e7d32" if view.complete else "#ef6c00")
    worker_rows = [
        (w.name, w.generation, w.points, f"{w.rate_pps:.2f}",
         "never" if w.last_seen_s is None else f"{w.last_seen_s:.1f}s ago")
        for w in view.workers if w.points or w.last_seen_s is not None
    ]
    shard_rows = [
        (f"s{s.shard}", f"{s.done}/{s.total}", f"{s.rate_pps:.2f}")
        for s in view.shards if s.total or s.done
    ]
    return _HTML_TEMPLATE.format(
        refresh=int(max(1, refresh_s)),
        where=_html.escape(view.queue_dir or "queue"),
        state=_html.escape(state),
        state_color=state_color,
        ok_pct=100.0 * view.done / total,
        bad_pct=100.0 * view.failed / total,
        done=view.done,
        total=view.total,
        failed_text=(f", <b style='color:#c62828'>{view.failed} failed</b>"
                     if view.failed else ""),
        pending=view.pending,
        in_flight=view.in_flight,
        rate=view.rate_pps,
        eta=_fmt_duration(view.eta_s),
        elapsed=_fmt_duration(view.elapsed_s),
        lease_live=view.leases.live,
        lease_expiring=view.leases.expiring,
        lease_reclaimed=view.leases.reclaimed,
        lease_quarantined=view.leases.quarantined,
        claims=view.claims,
        errors=view.errors,
        requeued=view.requeued,
        duplicates=view.duplicates,
        cache_hits=view.cache_hits,
        cache_hit_rate=100.0 * view.cache_hit_rate,
        worker_table=_html_table(
            "workers", ("worker", "gen", "done", "pts/s", "last seen"),
            worker_rows),
        shard_table=_html_table(
            "shards", ("shard", "done", "pts/s"), shard_rows),
        updated=time.strftime("%H:%M:%S", time.localtime(view.updated_ts)),
    )


def write_html_atomic(path: str | Path, text: str) -> None:
    """Publish the dashboard page with a whole-file ``os.replace``.

    A reader (the browser's refresh) never observes a torn page, the
    same discipline as every other snapshot file in the queue.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, text.encode("utf-8"), fsync=False)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class LiveMetricsExporter:
    """Project :class:`SweepView` snapshots into a scrapable registry.

    Pre-registers every ``watch_*`` gauge and the cumulative fabric
    counters at construction, so the very first scrape renders the full
    series set (zeros, not absences).  Thread-safe: :meth:`update` (the
    watch loop) and :meth:`render` (the HTTP handler) share one lock.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry or MetricsRegistry()
        self._lock = threading.Lock()
        self.registry.preregister(WATCH_COUNTER_HELP,
                                  gauges=WATCH_GAUGE_HELP)

    def update(self, view: SweepView) -> None:
        with self._lock:
            gauge = self.registry.gauge
            gauge("watch_points_total").set(view.total)
            gauge("watch_points_done").set(view.done)
            gauge("watch_points_failed").set(view.failed)
            gauge("watch_points_pending").set(view.pending)
            gauge("watch_rate_points_per_second").set(round(view.rate_pps, 6))
            gauge("watch_eta_seconds").set(
                -1.0 if view.eta_s is None else round(view.eta_s, 3))
            gauge("watch_leases_live").set(view.leases.live)
            gauge("watch_leases_expiring").set(view.leases.expiring)
            gauge("watch_workers_active").set(
                sum(1 for w in view.workers
                    if w.last_seen_s is not None
                    and w.last_seen_s <= _WORKER_LIVENESS_S))
            gauge("watch_cache_hit_rate").set(round(view.cache_hit_rate, 6))
            gauge("watch_sweep_complete").set(1 if view.complete else 0)
            for name, value in (
                ("fabric_lease_claims_total", view.claims),
                ("fabric_lease_expired_total", view.expired),
                ("fabric_requeued_total", view.requeued),
                ("fabric_done_duplicates_total", view.duplicates),
                ("fabric_worker_errors_total", view.errors),
                ("fabric_worker_spawns_total", view.worker_spawns),
                ("fabric_quarantined_total", view.leases.quarantined),
                ("fabric_recovered_total", view.cache_hits),
            ):
                counter = self.registry.counter(name)
                # cumulative event-log replays, not in-process increments:
                # publish the absolute count
                counter.value = value

    def render(self) -> str:
        with self._lock:
            return self.registry.render_prometheus()


#: A worker silent longer than this no longer counts as active.
_WORKER_LIVENESS_S = 30.0


class _MetricsHandler(QuietHandler):
    def do_GET(self):  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0].rstrip("/")
        if path == "/metrics":
            self.reply(200, self.server.owner._render().encode("utf-8"),
                       PROMETHEUS_CONTENT_TYPE)
        elif path == "":
            self.reply(200, b"repro watch metrics endpoint; scrape /metrics\n",
                       "text/plain; charset=utf-8")
        else:
            self.send_error(404)


class MetricsServer(ThreadedServer):
    """The ``repro watch --serve`` Prometheus endpoint.

    Only ``GET /metrics`` (and a bare ``/`` index pointing at it) exist
    -- this is an exposition endpoint, not a web app.
    """

    def __init__(self, render, host: str = "127.0.0.1", port: int = 0):
        self._render = render
        super().__init__(_MetricsHandler, host, port)


def parse_serve_address(text: str) -> tuple[str, int]:
    """``:9095`` / ``9095`` / ``0.0.0.0:9095`` -> (host, port)."""
    text = str(text).strip()
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = "", text
    try:
        port_num = int(port)
    except ValueError as err:
        raise ValueError(f"invalid --serve address {text!r} "
                         f"(expected [HOST]:PORT)") from err
    return (host or "127.0.0.1", port_num)


# ----------------------------------------------------------------------
# the sweep progress line (pool + fabric CLI sweeps)
# ----------------------------------------------------------------------
class ProgressLine:
    """A ``SweepRunner`` progress callback rendering rate + ETA in place.

    Accepts the 4-argument ``(done, total, point, outcome)`` contract,
    drives the same :class:`RateEstimator` as the watch dashboard, and
    repaints a single carriage-returned line (throttled to
    ``min_interval_s``) so large sweeps do not drown their own output.
    Call :meth:`finish` once the sweep returns to terminate the line.
    """

    def __init__(self, total: int | None = None, stream=None,
                 min_interval_s: float = 0.1, window_s: float = 30.0,
                 clock=time.monotonic):
        import sys

        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self.clock = clock
        self.total = total
        self.failed = 0
        self.estimator = RateEstimator(window_s=window_s)
        self._completed = 0
        self._last_paint = None
        self._dirty = False

    def __call__(self, done: int, total: int, point, outcome: str) -> None:
        now = self.clock()
        self.total = total
        if outcome == "failed":
            self.failed += 1
        else:
            self._completed += 1
            self.estimator.observe(now, self._completed)
        if (self._last_paint is not None
                and now - self._last_paint < self.min_interval_s
                and done < total):
            return
        self._last_paint = now
        rate = self.estimator.rate() or self.estimator.overall_rate()
        eta = (0.0 if done >= total
               else self.estimator.eta_s(total - done - self.failed))
        line = (f"  [{done}/{total}] {rate:.2f} pts/s, "
                f"eta {_fmt_duration(eta)}")
        if self.failed:
            line += f", {self.failed} failed"
        try:
            self.stream.write("\r\x1b[K" + line)
            self.stream.flush()
        except (OSError, ValueError):
            return
        self._dirty = True

    def finish(self) -> None:
        """End the in-place line (newline) if anything was painted."""
        if self._dirty:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except (OSError, ValueError):
                pass
            self._dirty = False


__all__ = [
    "LiveAggregator",
    "LiveMetricsExporter",
    "MetricsServer",
    "ProgressLine",
    "QueueWatcher",
    "RateEstimator",
    "ShardView",
    "SweepView",
    "LeaseHealth",
    "WorkerView",
    "WATCH_COUNTER_HELP",
    "WATCH_GAUGE_HELP",
    "parse_serve_address",
    "render_html",
    "render_terminal",
    "shard_of",
    "write_html_atomic",
]
