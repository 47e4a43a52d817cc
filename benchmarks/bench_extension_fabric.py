"""Extension: the lease-based sweep fabric under churn vs a serial run.

The fabric (docs/robustness.md) decouples scheduling from execution: the
coordinator persists the point set as a durable lease table and workers
-- forked local ones or externally joined ``repro worker`` processes --
claim points under heartbeat-renewed leases.  Every parallel sweep runs
on it.  This bench measures what that buys and what it costs:

- ``serial``    -- the in-process ``SweepRunner`` reference;
- ``fabric``    -- the same grid through the lease fabric (results must
  be bit-identical to the serial run);
- ``fabric+kill9`` -- the same fabric while every worker SIGKILLs itself
  0.2-0.4 s after starting: leases expire, points re-let, and the
  sweep still completes every point with the audit invariants holding;
- ``fabric+watch`` -- the clean fabric again with the full observability
  plane attached mid-flight (``QueueWatcher`` refresh loop + Prometheus
  exporter + HTML dashboard writes): the watcher's accumulated busy time
  must stay under 2% of the sweep wall (the live plane is read-only --
  event-log tailing and lease-dir scans -- so it must be near free), and
  its final view must agree with the ``SweepReport`` exactly.

Local workers are forked and start in milliseconds, but each point
still pays for its lease, its event appends and its fsync'd result, and
churn re-runs whatever a killed worker held; the gates here are about
survival (zero lost points, clean audit) and observability overhead,
not speed.  The table is mirrored to ``BENCH_fabric.json`` for CI to
archive.
"""

import json
import os
import tempfile
import threading
import time

from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.exec import FabricConfig, QueueError, ResultCache, SweepRunner, audit_queue
from repro.noc.spec import SimulationSpec, TrafficSpec
from repro.telemetry.live import (
    LiveMetricsExporter,
    MetricsServer,
    QueueWatcher,
    render_html,
    write_html_atomic,
)
from repro.util.tables import format_table

from benchmarks.common import once, report

CFG = NoCConfig()
OUTPUT = "BENCH_fabric.json"
LEVELS = (2, 4, 8, 16)
RATES = (0.1, 0.2, 0.3)


def _grid():
    specs = []
    for level in LEVELS:
        topo = SprintTopology.for_level(CFG.mesh_width, CFG.mesh_height, level)
        for rate in RATES:
            specs.append(SimulationSpec(
                topology=topo,
                traffic=TrafficSpec(tuple(topo.active_nodes), rate,
                                    CFG.packet_length_flits, "uniform", seed=0),
                config=CFG,
                routing="cdor" if level < 16 else "xy",
                warmup_cycles=200,
                measure_cycles=800,
                drain_cycles=1500,
                backend="reference",  # slow enough that kill-9 lands mid-lease
            ))
    return specs


class _Watcher:
    """The full live plane on a background thread, accounting its cost.

    Mirrors what ``repro watch --serve`` attaches to a running sweep:
    incremental event tailing, lease scans, Prometheus exposition, and
    atomic HTML dashboard rewrites.  ``busy_s`` accumulates only the
    time the thread spends *working* (not sleeping), so the <2% overhead
    gate is deterministic even when worker churn makes raw sweep walls
    noisy.
    """

    def __init__(self, queue_dir, html_path, interval_s=1.0):
        # interval_s matches the `repro watch` default refresh cadence
        self.queue_dir = queue_dir
        self.html_path = html_path
        self.interval_s = interval_s
        self.busy_s = 0.0
        self.refreshes = 0
        self.view = None
        self.scrapes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _refresh(self, watcher, exporter):
        begin = time.perf_counter()
        try:
            view = watcher.refresh()
        except QueueError:
            view = None  # coordinator has not seeded the queue yet
        if view is not None:
            exporter.update(view)
            write_html_atomic(self.html_path, render_html(view))
            self.view = view
            self.refreshes += 1
        self.busy_s += time.perf_counter() - begin
        return exporter

    def _run(self):
        exporter = LiveMetricsExporter()
        server = MetricsServer(exporter.render).start()
        watcher = QueueWatcher(self.queue_dir)
        try:
            import urllib.request
            while not self._stop.is_set():
                self._refresh(watcher, exporter)
                if self.refreshes and self.scrapes < 3:  # a live scraper
                    begin = time.perf_counter()
                    urllib.request.urlopen(
                        f"http://{server.address}/metrics", timeout=5).read()
                    self.scrapes += 1
                    self.busy_s += time.perf_counter() - begin
                self._stop.wait(self.interval_s)
            self._refresh(watcher, exporter)  # final post-sweep snapshot
        finally:
            server.stop()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=30)


def _fabric_run(specs, root, name, chaos=None, workers=4):
    previous = os.environ.pop("REPRO_SWEEP_CHAOS", None)
    if chaos is not None:
        os.environ["REPRO_SWEEP_CHAOS"] = chaos
    try:
        config = FabricConfig(queue_dir=os.path.join(root, name, "queue"),
                              workers=workers, lease_ttl_s=3.0,
                              quarantine_after=100)
        cache = ResultCache(directory=os.path.join(root, name, "cache"))
        runner = SweepRunner(workers=workers, fabric=config, cache=cache)
        start = time.perf_counter()
        rep = runner.run(specs)
        wall_s = time.perf_counter() - start
    finally:
        os.environ.pop("REPRO_SWEEP_CHAOS", None)
        if previous is not None:
            os.environ["REPRO_SWEEP_CHAOS"] = previous
    audit = audit_queue(config.queue_dir)
    return rep, wall_s, audit


def contest():
    specs = _grid()
    rows = []
    with tempfile.TemporaryDirectory(prefix="bench-fabric-") as root:
        runner = SweepRunner(workers=1, cache=ResultCache())
        start = time.perf_counter()
        serial = runner.run(specs)
        rows.append(("serial", serial, time.perf_counter() - start, None))

        clean, wall_s, audit = _fabric_run(specs, root, "clean")
        rows.append(("fabric", clean, wall_s, audit))

        churn, wall_s, audit = _fabric_run(specs, root, "churn",
                                           chaos="kill9:0.2:0.2")
        rows.append(("fabric+kill9", churn, wall_s, audit))

        # the same clean sweep with the live plane attached mid-flight
        watch_dir = os.path.join(root, "watched")
        os.makedirs(watch_dir, exist_ok=True)
        with _Watcher(os.path.join(watch_dir, "queue"),
                      os.path.join(watch_dir, "dashboard.html")) as watcher:
            watched, wall_s, audit = _fabric_run(specs, root, "watched")
        rows.append(("fabric+watch", watched, wall_s, audit))
        view = watcher.view
        watch_info = {
            "busy_s": round(watcher.busy_s, 4),
            "busy_pct": round(100.0 * watcher.busy_s / wall_s, 3),
            "refreshes": watcher.refreshes,
            "scrapes": watcher.scrapes,
            "wall_s": wall_s,
            "unwatched_wall_s": rows[1][2],
            "totals_match": (
                view is not None
                and view.total == watched.total_points
                and view.done == len(watched.points)
                and view.failed == len(watched.failures)
                and view.complete
            ),
        }

    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump({
            "grid": {"levels": LEVELS, "rates": RATES,
                     "points": len(specs), "backend": "reference"},
            "watch": watch_info,
            "modes": {
                name: {
                    "wall_s": wall_s,
                    "ok": rep.ok,
                    "points_done": len(rep.points),
                    "failures": len(rep.failures),
                    "fabric": None if rep.fabric is None else {
                        "workers_spawned": rep.fabric.workers_spawned,
                        "worker_deaths": rep.fabric.worker_deaths,
                        "claims": rep.fabric.claims,
                        "expired": rep.fabric.expired,
                        "requeued": rep.fabric.requeued,
                        "duplicates": rep.fabric.duplicates,
                    },
                    "audit_ok": None if audit is None else audit.ok,
                }
                for name, rep, wall_s, audit in rows
            },
        }, handle, indent=1, sort_keys=True)
    return rows, watch_info


def _render(rows):
    table = []
    for name, rep, wall_s, audit in rows:
        fab = rep.fabric
        table.append([
            name, wall_s, len(rep.points), len(rep.failures),
            "-" if fab is None else fab.workers_spawned,
            "-" if fab is None else fab.worker_deaths,
            "-" if fab is None else fab.requeued,
            "-" if audit is None else ("ok" if audit.ok else "VIOLATED"),
        ])
    return format_table(
        ["mode", "wall s", "done", "failed", "spawned", "deaths",
         "requeued", "audit"],
        table, float_format="{:.2f}",
    )


def test_extension_sweep_fabric(benchmark):
    rows, watch_info = once(benchmark, contest)
    report("Extension: lease-based sweep fabric vs serial", _render(rows))
    report(
        "Extension: live observability plane overhead",
        f"watcher busy {watch_info['busy_s']:.3f}s over "
        f"{watch_info['wall_s']:.2f}s sweep wall "
        f"({watch_info['busy_pct']:.2f}%), {watch_info['refreshes']} "
        f"refreshes, {watch_info['scrapes']} scrapes, totals_match="
        f"{watch_info['totals_match']}",
    )
    results = {name: rep for name, rep, _, _ in rows}
    audits = {name: audit for name, _, _, audit in rows}
    total = len(LEVELS) * len(RATES)

    # every mode completes the full grid with zero lost points
    for name, rep in results.items():
        assert rep.ok, f"{name}: {rep.summary()}"
        assert rep.total_points == total, name
        assert len(rep.points) == total and not rep.failures, name

    # the fabric changes scheduling, never results: bit-for-bit parity
    # (watched or not -- the live plane is read-only)
    serial = results["serial"].points
    for mode in ("fabric", "fabric+watch"):
        for mine, theirs in zip(results[mode].points, serial):
            assert mine.result == theirs.result

    # churn really happened, and the lease ledger still balances: a lease
    # only requeues when it expired, and every point records done once
    fab = results["fabric+kill9"].fabric
    assert fab.workers_spawned >= 4
    assert fab.worker_deaths >= 1
    assert fab.requeued <= fab.expired
    for name in ("fabric", "fabric+kill9", "fabric+watch"):
        assert audits[name].ok, audits[name].summary()
        assert audits[name].done == total, name

    # the observability plane is near free: the watcher thread (tailing,
    # lease scans, HTML writes, Prometheus scrapes) spends <2% of the
    # sweep wall actually working, and its final view agrees with the
    # SweepReport exactly
    assert watch_info["refreshes"] >= 1
    assert watch_info["totals_match"], watch_info
    assert watch_info["busy_pct"] < 2.0, watch_info
