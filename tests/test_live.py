"""Tests for the live sweep observability plane (`repro.telemetry.live`).

Covers the streaming aggregator over fabric events, the rate/ETA
estimator, the incremental `read_events` tailing contract under torn
writes and reader restarts and the one event-log fold that the audit and
the watch share (both property-based), the three
surfaces (`repro watch` CLI, HTML dashboard, Prometheus endpoint), the
progress line, and the `fabric audit --json` machine verdict.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.exec import FabricConfig, ResultCache, SweepRunner, audit_queue
from repro.exec.fabric import LeaseTable, QueueLog
from repro.noc.spec import SimulationSpec, TrafficSpec
from repro.telemetry.live import (
    LiveAggregator,
    LiveMetricsExporter,
    MetricsServer,
    ProgressLine,
    QueueWatcher,
    RateEstimator,
    parse_serve_address,
    render_html,
    render_terminal,
    shard_of,
    write_html_atomic,
)
from repro.telemetry.metrics import MetricsRegistry

CFG = NoCConfig()


def small_spec(level=4, rate=0.1, seed=0, **overrides) -> SimulationSpec:
    topo = SprintTopology.for_level(4, 4, level)
    kwargs = dict(
        topology=topo,
        traffic=TrafficSpec(tuple(topo.active_nodes), rate,
                            CFG.packet_length_flits, "uniform", seed=seed),
        config=CFG,
        routing="cdor" if level < 16 else "xy",
        warmup_cycles=100,
        measure_cycles=300,
        drain_cycles=600,
        backend="vectorized",
    )
    kwargs.update(overrides)
    return SimulationSpec(**kwargs)


class TestShardOf:
    def test_hex_keys_shard_deterministically(self):
        key = "deadbeef" * 8
        assert shard_of(key, 8) == shard_of(key, 8)
        assert 0 <= shard_of(key, 8) < 8

    def test_non_hex_keys_fall_back_to_crc(self):
        assert 0 <= shard_of("not-hex!", 8) < 8
        assert shard_of("not-hex!", 8) == shard_of("not-hex!", 8)

    def test_degenerate_shard_counts_collapse_to_zero(self):
        assert shard_of("deadbeef", 0) == 0
        assert shard_of("deadbeef", 1) == 0


class TestRateEstimator:
    def test_linear_completions_recover_the_slope(self):
        est = RateEstimator(window_s=30.0)
        for i in range(10):
            est.observe(float(i), 2 * i)  # 2 points per second
        assert est.rate() == pytest.approx(2.0)
        assert est.overall_rate() == pytest.approx(2.0)
        assert est.eta_s(10) == pytest.approx(5.0)

    def test_no_signal_means_unknown_eta(self):
        est = RateEstimator()
        assert est.rate() == 0.0
        assert est.overall_rate() == 0.0
        assert est.eta_s(5) is None
        assert est.eta_s(0) == 0.0

    def test_duplicate_samples_are_ignored(self):
        est = RateEstimator()
        est.observe(1.0, 1)
        est.observe(1.0, 1)  # exact duplicate: dropped
        est.observe(2.0, 2)
        assert est.rate() == pytest.approx(1.0)

    def test_window_trims_old_samples(self):
        est = RateEstimator(window_s=5.0)
        est.observe(0.0, 0)
        for i in range(100, 110):
            est.observe(float(i), i)
        # the rolling rate reflects the recent 1 pt/s, not the long gap
        assert est.rate() == pytest.approx(1.0)


class TestLiveAggregator:
    def test_fabric_fold_accounts_like_the_coordinator(self):
        agg = LiveAggregator(shards=8, lease_ttl_s=9.0)
        agg.fold_many([
            {"ev": "seed", "total": 3, "ts": 1.0},
            {"ev": "worker-start", "worker": "w0", "generation": 1, "ts": 1.1},
            {"ev": "claim", "key": "k1", "worker": "w0", "ts": 1.2,
             "shard": 0},
            {"ev": "done", "key": "k1", "worker": "w0", "ts": 2.0,
             "shard": 0},
            {"ev": "done", "key": "k1", "worker": "w0", "ts": 2.1,
             "shard": 0},  # duplicate completion: deduplicated
            {"ev": "done", "key": "k2", "worker": "w0", "ts": 3.0,
             "shard": 1, "cached": True},
            {"ev": "expired", "key": "k3", "worker": "w0", "ts": 3.5},
            {"ev": "expired", "key": "k1", "worker": "w0", "ts": 3.6},
            {"ev": "quarantine", "key": "k3", "ts": 4.0},
            {"ev": "shutdown", "ts": 5.0},
        ])
        view = agg.snapshot(now=10.0)
        assert view.total == 3
        assert view.done == 2
        assert view.failed == 1  # k3 quarantined, never done
        assert view.pending == 0
        assert view.duplicates == 1
        assert view.cache_hits == 1
        assert view.expired == 2
        assert view.requeued == 1  # only the expiry of a not-yet-done key
        assert view.claims == 1
        assert view.worker_spawns == 1
        assert view.complete is True
        assert view.eta_s == 0.0
        assert view.quarantined == 1
        worker = dict((w.name, w) for w in view.workers)["w0"]
        assert worker.generation == 1 and worker.points == 2
        shards = {s.shard: s.done for s in view.shards}
        assert shards == {0: 1, 1: 1}

    def test_pending_zero_means_complete_without_shutdown(self):
        agg = LiveAggregator()
        agg.fold({"ev": "seed", "total": 1, "ts": 1.0})
        assert agg.snapshot(now=2.0).complete is False
        agg.fold({"ev": "done", "key": "k", "worker": "w", "ts": 2.0})
        assert agg.snapshot(now=3.0).complete is True

    def test_lease_scan_buckets_live_vs_expiring(self):
        agg = LiveAggregator(lease_ttl_s=9.0)  # expiring margin: 3s
        agg.lease_scan([
            {"deadline": 101.0},  # 1s left: expiring
            {"deadline": 108.0},  # 8s left: live
        ], now=100.0)
        view = agg.snapshot(now=100.0)
        assert view.leases.live == 1
        assert view.leases.expiring == 1
        assert view.in_flight == 2

    def test_to_dict_is_json_round_trippable(self):
        agg = LiveAggregator()
        agg.fold({"ev": "seed", "total": 2, "ts": 1.0})
        agg.fold({"ev": "done", "key": "k", "worker": "w", "ts": 2.0})
        payload = json.loads(json.dumps(agg.snapshot(now=3.0).to_dict()))
        for field in ("total", "done", "failed", "quarantined", "pending",
                      "complete", "cache_hits", "rate_pps", "eta_s",
                      "leases", "workers", "shards"):
            assert field in payload
        assert payload["total"] == 2 and payload["done"] == 1


class TestReadEventsTailing:
    """The watch contract: tailing `events.jsonl` incrementally delivers
    every complete event exactly once, in order, no matter how the byte
    stream is chunked by torn writes or how often the reader restarts."""

    @given(
        n=st.integers(min_value=1, max_value=12),
        cuts=st.lists(st.integers(min_value=0, max_value=10_000),
                      max_size=12),
        restarts=st.sets(st.integers(min_value=0, max_value=13)),
    )
    @settings(max_examples=60, deadline=None)
    def test_chunked_writes_deliver_exactly_once_in_order(
            self, n, cuts, restarts):
        lines = [
            json.dumps({"ev": "x", "id": i}).encode("utf-8") + b"\n"
            for i in range(n)
        ]
        blob = b"".join(lines)
        bounds = sorted({c % (len(blob) + 1) for c in cuts} | {len(blob)})
        with tempfile.TemporaryDirectory() as tmp:
            qdir = os.path.join(tmp, "queue")
            os.makedirs(qdir)
            table = LeaseTable(qdir)
            delivered = []
            offset = 0
            written = 0
            for step, bound in enumerate(bounds):
                with open(table.events_path, "ab") as handle:
                    handle.write(blob[written:bound])
                written = bound
                if step in restarts:  # a fresh reader resumes by offset
                    table = LeaseTable(qdir)
                events, offset = table.read_events(offset)
                delivered.extend(events)
            events, offset = table.read_events(offset)
            delivered.extend(events)
            assert [e["id"] for e in delivered] == list(range(n))
            assert offset == len(blob)

    def test_damaged_line_is_tolerated_without_stalling(self):
        with tempfile.TemporaryDirectory() as tmp:
            qdir = os.path.join(tmp, "queue")
            os.makedirs(qdir)
            table = LeaseTable(qdir)
            with open(table.events_path, "ab") as handle:
                handle.write(b'{"ev": "a"}\n')
                handle.write(b"%% not json %%\n")
                handle.write(b'{"ev": "b"}\n')
            events, offset = table.read_events(0)
            assert [e["ev"] for e in events] == ["a", "b"]
            more, _ = table.read_events(offset)
            assert more == []


class TestQueueLogFold:
    """One fold for every reader: any event log over a seeded queue reads
    the same through the audit, the watch and chunked tailing."""

    WORKERS = ("w0", "w1", "w2")
    KINDS = ("claim", "done", "cached", "error", "expired", "quarantine",
             "lost", "abandon", "drain", "shutdown", "resume")

    @staticmethod
    def event(kind: str, key: str, worker: str, number: int) -> dict:
        if kind in ("drain", "shutdown"):
            return {"ev": kind}
        if kind == "resume":
            return {"ev": kind, "quarantine_after": number}
        if kind == "cached":
            return {"ev": "done", "key": key, "worker": worker,
                    "recovered": True, "cached": True}
        return {"ev": kind, "key": key, "worker": worker, "attempt": number}

    @given(
        n_keys=st.integers(min_value=2, max_value=4),
        quarantine_after=st.integers(min_value=1, max_value=3),
        steps=st.lists(st.tuples(st.sampled_from(KINDS),
                                 st.integers(min_value=0, max_value=3),
                                 st.sampled_from(WORKERS),
                                 st.integers(min_value=1, max_value=3)),
                       max_size=40),
        cuts=st.lists(st.integers(min_value=0, max_value=100_000),
                      max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_audit_watch_and_chunked_fold_agree(self, n_keys,
                                                quarantine_after, steps,
                                                cuts):
        keys = [f"{index:02x}" * 32 for index in range(n_keys)]
        with tempfile.TemporaryDirectory() as tmp:
            table = LeaseTable(os.path.join(tmp, "queue"))
            table.seed([(key, None) for key in keys], fingerprint="fp",
                       results_dir=os.path.join(tmp, "results"),
                       settings={"lease_ttl_s": 10.0, "shards": 8,
                                 "quarantine_after": quarantine_after})
            for kind, index, worker, number in steps:
                table.append(self.event(kind, keys[index % n_keys], worker,
                                        number))
            audit = audit_queue(table.directory, expect_complete=False)
            assert audit.done + audit.quarantined <= audit.total
            view = QueueWatcher(table.directory).refresh()
            assert (view.done, view.failed, view.duplicates, view.expired) \
                == (audit.done, audit.quarantined, audit.duplicates,
                    audit.expired)

            whole = QueueLog.of(table)
            whole.read(table)
            blob = table.events_path.read_bytes()
            tail = LeaseTable(os.path.join(tmp, "tail"))
            os.makedirs(tail.directory)
            chunked = QueueLog(keys, quarantine_after)
            written = 0
            for bound in sorted({cut % (len(blob) + 1) for cut in cuts}
                                | {len(blob)}):
                with open(tail.events_path, "ab") as handle:
                    handle.write(blob[written:bound])
                written = bound
                chunked.read(tail)
            assert vars(chunked) == vars(whole)


class TestRenderers:
    def _view(self):
        agg = LiveAggregator(queue_dir="/tmp/q")
        agg.fold({"ev": "seed", "total": 2, "ts": 1.0})
        agg.fold({"ev": "done", "key": "aa", "worker": "w0", "ts": 2.0})
        return agg.snapshot(now=3.0)

    def test_terminal_render_plain_has_no_ansi(self):
        text = render_terminal(self._view(), color=False)
        assert "\x1b[" not in text
        assert "1/2 done" in text

    def test_html_render_and_atomic_write(self, tmp_path):
        html = render_html(self._view(), refresh_s=3.0)
        assert "<html" in html and 'http-equiv="refresh"' in html
        assert 'content="3' in html
        path = tmp_path / "dash.html"
        write_html_atomic(path, html)
        assert path.read_text(encoding="utf-8") == html
        assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


class TestMetricsSurface:
    def test_preregister_renders_zero_valued_series(self):
        reg = MetricsRegistry()
        reg.preregister({"demo_total": "a counter"},
                        gauges={"demo_gauge": "a gauge"})
        text = reg.render_prometheus()
        assert "demo_total 0" in text
        assert "demo_gauge 0" in text

    def test_exporter_and_server_serve_watch_series(self):
        agg = LiveAggregator()
        agg.fold({"ev": "seed", "total": 2, "ts": 1.0})
        agg.fold({"ev": "claim", "key": "aa", "worker": "w0", "ts": 1.5})
        agg.fold({"ev": "done", "key": "aa", "worker": "w0", "ts": 2.0})
        exporter = LiveMetricsExporter()
        exporter.update(agg.snapshot(now=3.0))
        server = MetricsServer(exporter.render).start()
        try:
            url = f"http://{server.address}"
            body = urllib.request.urlopen(
                f"{url}/metrics", timeout=10).read().decode("utf-8")
            assert "watch_points_total 2" in body
            assert "watch_points_done 1" in body
            assert "fabric_lease_claims_total 1" in body
            assert "watch_cache_hit_rate" in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{url}/other", timeout=10)
        finally:
            server.stop()

    def test_parse_serve_address(self):
        assert parse_serve_address(":9095") == ("127.0.0.1", 9095)
        assert parse_serve_address("9095") == ("127.0.0.1", 9095)
        assert parse_serve_address("0.0.0.0:80") == ("0.0.0.0", 80)
        with pytest.raises(ValueError):
            parse_serve_address("nope")


class TestProgressLine:
    def test_paints_rate_and_finishes_with_newline(self):
        stream = io.StringIO()
        clock = iter(float(i) for i in range(100))
        line = ProgressLine(total=3, stream=stream, min_interval_s=0.0,
                            clock=lambda: next(clock))
        for i in range(1, 4):
            line(i, 3, None, "simulated")
        line.finish()
        out = stream.getvalue()
        assert "\r\x1b[K" in out
        assert "[3/3]" in out and "pts/s" in out
        assert out.endswith("\n")

    def test_throttles_between_paints_but_always_paints_the_end(self):
        stream = io.StringIO()
        now = {"t": 0.0}
        line = ProgressLine(total=3, stream=stream, min_interval_s=100.0,
                            clock=lambda: now["t"])
        for i in range(1, 4):
            now["t"] += 0.01
            line(i, 3, None, "simulated")
        assert stream.getvalue().count("\r") == 2  # first + final

    def test_failures_are_surfaced(self):
        stream = io.StringIO()
        line = ProgressLine(total=2, stream=stream, min_interval_s=0.0,
                            clock=iter([1.0, 2.0]).__next__)
        line(1, 2, None, "failed")
        line(2, 2, None, "simulated")
        assert "1 failed" in stream.getvalue()

    def test_eta_counts_failed_points_once(self):
        # the runner's ``done`` includes failed points: five of ten
        # points remain after these five calls, at one point a second
        stream = io.StringIO()
        line = ProgressLine(total=10, stream=stream, min_interval_s=0.0,
                            clock=iter([1.0, 2.0, 3.0, 4.0, 5.0]).__next__)
        for done, outcome in enumerate(
                ("failed", "failed", "simulated", "simulated", "simulated"),
                start=1):
            line(done, 10, None, outcome)
        last = stream.getvalue().rsplit("\r\x1b[K", 1)[-1]
        assert last == "  [5/10] 1.00 pts/s, eta 5s, 2 failed"


class TestWatchCLI:
    def _run_fabric_sweep(self, tmp_path):
        specs = [small_spec(level=lv, rate=0.1) for lv in (2, 4)]
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=2,
                              lease_ttl_s=10.0)
        runner = SweepRunner(workers=2, fabric=config,
                             cache=ResultCache(directory=str(tmp_path / "c")))
        return str(tmp_path / "q"), runner.run(specs)

    def test_once_json_matches_the_sweep_report(self, tmp_path, capsys):
        qdir, report = self._run_fabric_sweep(tmp_path)
        rc = main(["watch", qdir, "--once", "--json"])
        view = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert view["total"] == report.total_points
        assert view["done"] == len(report.points)
        assert view["failed"] == len(report.failures)
        assert view["quarantined"] == sum(
            1 for f in report.failures if f.kind == "quarantined")
        assert view["complete"] is True
        audit = audit_queue(qdir)
        assert view["done"] == audit.done
        assert view["quarantined"] == audit.quarantined

    def test_once_writes_html_when_asked(self, tmp_path, capsys):
        qdir, _ = self._run_fabric_sweep(tmp_path)
        html_path = tmp_path / "dash.html"
        rc = main(["watch", qdir, "--once", "--json",
                   "--html", str(html_path)])
        capsys.readouterr()
        assert rc == 0
        assert "<html" in html_path.read_text(encoding="utf-8")

    def test_missing_queue_times_out_with_exit_2(self, tmp_path, capsys):
        rc = main(["watch", str(tmp_path / "nope"), "--once", "--json",
                   "--wait", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "watch:" in captured.err

    def test_queue_watcher_refresh_is_incremental(self, tmp_path):
        qdir, report = self._run_fabric_sweep(tmp_path)
        watcher = QueueWatcher(qdir)
        first = watcher.refresh()
        second = watcher.refresh()  # no new events: same accounting
        assert first.done == second.done == len(report.points)
        assert second.complete is True


class TestFabricAuditJSON:
    def test_audit_json_verdict(self, tmp_path, capsys):
        specs = [small_spec(level=2, rate=0.1)]
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=1,
                              lease_ttl_s=10.0)
        SweepRunner(workers=1, fabric=config).run(specs)
        rc = main(["fabric", "audit", str(tmp_path / "q"), "--json"])
        verdict = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert verdict["ok"] is True
        assert verdict["done"] == 1 and verdict["total"] == 1
        assert verdict["problems"] == []

    def test_audit_json_missing_queue_exits_2(self, tmp_path, capsys):
        rc = main(["fabric", "audit", str(tmp_path / "nope"), "--json"])
        verdict = json.loads(capsys.readouterr().out)
        assert rc == 2
        assert verdict["ok"] is False and "error" in verdict
