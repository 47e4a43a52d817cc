"""Tests for the lease-based sweep fabric: leases, churn, chaos, resume.

Covers the :mod:`repro.exec.fabric` primitives directly (lease table,
chaos coin, audit) and the full stack end to end: fabric sweeps equal to
serial sweeps bit for bit, kill-9 worker churn, poisoned-point
quarantine, external ``repro worker`` processes joining mid-sweep,
SIGKILL-the-coordinator resume, graceful SIGINT drain with the distinct
exit code, and the resumes the one event-log fold decides: after a
drain, after a lost result, and after a late completion.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.exec import (
    FabricConfig,
    QueueError,
    ResultCache,
    SweepRunner,
    audit_queue,
)
from repro.exec.fabric import ChaosPlan, LeaseTable, chaos_coin
from repro.noc.spec import SimulationSpec, TrafficSpec

CFG = NoCConfig()
REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def grid(levels=(2, 4), rates=(0.1, 0.2), **overrides):
    return [small_spec(level=lv, rate=r, **overrides)
            for lv in levels for r in rates]


def seeded_table(tmp_path, specs=None, ttl=5.0) -> LeaseTable:
    specs = specs if specs is not None else grid()
    table = LeaseTable(tmp_path / "queue")
    table.seed(
        [(s.cache_key(), s) for s in specs],
        fingerprint="fp-test",
        results_dir=str(tmp_path / "results"),
        settings={"lease_ttl_s": ttl, "quarantine_after": 3},
    )
    return table


def struck_attempts(specs, plan):
    """``(key, attempt, fault)`` for every attempt ``plan`` strikes: a
    point's attempts are struck until its coin first spares one, or until
    a kill after its ``done`` closes it."""
    struck = []
    for spec in specs:
        key, attempt = spec.cache_key(), 1
        while (fault := plan.fault(key, attempt)) is not None:
            struck.append((key, attempt, fault))
            if fault == "kill9-done":
                break
            attempt += 1
    return struck


def point_trail(events, key, kinds=("claim", "done", "expired")):
    """One point's events of the given kinds, in log order."""
    return [event for event in events
            if event.get("key") == key and event["ev"] in kinds]


def run_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_SWEEP_CHAOS", None)
    return env


class TestLeaseTable:
    def test_seed_load_specs_round_trip(self, tmp_path):
        specs = grid()
        table = seeded_table(tmp_path, specs)
        meta = LeaseTable(table.directory)
        assert meta.load()["total"] == len(specs)
        loaded = meta.specs()
        assert set(loaded) == {s.cache_key() for s in specs}
        assert loaded[specs[0].cache_key()] == specs[0]

    def test_adopt_same_fingerprint_reject_other(self, tmp_path):
        specs = grid()
        table = seeded_table(tmp_path, specs)
        pending = [(s.cache_key(), s) for s in specs]
        again = LeaseTable(table.directory)
        assert again.seed(pending, fingerprint="fp-test",
                          results_dir=str(tmp_path / "results"),
                          settings={}) is True  # adopted, not re-seeded
        with pytest.raises(QueueError):
            LeaseTable(table.directory).seed(
                pending, fingerprint="fp-other",
                results_dir=str(tmp_path / "results"), settings={})
        events, _ = table.read_events()
        assert sum(1 for e in events if e["ev"] == "seed") == 1

    def test_claim_is_exclusive_until_released(self, tmp_path):
        table = seeded_table(tmp_path)
        key = table.meta["keys"][0]
        lease = table.claim(key, "alpha", 1)
        assert lease is not None and lease["worker"] == "alpha"
        assert table.claim(key, "beta", 1) is None
        table.release(key, "alpha", lease["nonce"])
        assert table.claim(key, "beta", 1) is not None

    def test_heartbeat_extends_and_fences(self, tmp_path):
        table = seeded_table(tmp_path, ttl=2.0)
        key = table.meta["keys"][0]
        lease = table.claim(key, "alpha", 1)
        before = table.read_lease(key)["deadline"]
        time.sleep(0.05)
        assert table.heartbeat(key, "alpha", lease["nonce"])
        assert table.read_lease(key)["deadline"] > before
        # another worker's claim (after a reclaim) fences the old holder
        os.unlink(table.lease_path(key))
        other = table.claim(key, "beta", 2)
        assert not table.heartbeat(key, "alpha", lease["nonce"])
        assert table.read_lease(key)["nonce"] == other["nonce"]
        # a fenced release must not drop the new holder's lease
        table.release(key, "alpha", lease["nonce"])
        assert table.lease_exists(key)

    def test_reclaim_expired_and_by_worker(self, tmp_path):
        table = seeded_table(tmp_path, ttl=0.2)
        keys = table.meta["keys"]
        table.claim(keys[0], "alpha", 1)
        table.claim(keys[1], "beta", 1)
        assert table.reclaim_expired() == []  # nothing expired yet
        time.sleep(0.3)
        reclaimed = table.reclaim_expired()
        assert {lease["worker"] for lease in reclaimed} == {"alpha", "beta"}
        assert table.active_leases() == 0
        # fast reclaim by worker id, without waiting for the deadline
        table.claim(keys[0], "gamma", 2)
        assert [lease["key"] for lease in table.reclaim_worker("gamma")] == [keys[0]]
        events, _ = table.read_events()
        assert sum(1 for e in events if e["ev"] == "expired") == 3

    def test_read_events_tolerates_torn_tail(self, tmp_path):
        table = seeded_table(tmp_path)
        table.append({"ev": "claim", "key": "k", "worker": "w", "attempt": 1})
        whole, offset = table.read_events()
        with open(table.events_path, "ab") as fh:
            fh.write(b'{"ev": "done", "key": "k", "wor')  # torn mid-append
        events, new_offset = table.read_events(offset)
        assert events == [] and new_offset == offset
        with open(table.events_path, "ab") as fh:
            fh.write(b'ker": "w"}\n')  # the append completes
        events, _ = table.read_events(new_offset)
        assert [e["ev"] for e in events] == ["done"]
        assert len(whole) >= 2  # seed + claim


class TestChaos:
    def test_coin_deterministic_uniform(self):
        assert chaos_coin("k", 1) == chaos_coin("k", 1)
        assert chaos_coin("k", 1) != chaos_coin("k", 2)
        assert 0.0 <= chaos_coin("key", 3) <= 1.0

    def test_plan_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CHAOS", raising=False)
        assert ChaosPlan.from_env() is None
        for recipe, plan in [
            ("kill9:0.3", ChaosPlan("kill9", 0.3)),
            ("raise", ChaosPlan("raise", 1.0)),
            (" exit-once:0.99 ", ChaosPlan("exit-once", 0.99)),
            ("stall-heartbeat:0.6", ChaosPlan("stall-heartbeat", 0.6)),
            ("hang:0.5:60", ChaosPlan("hang", 0.5, 60.0)),
            ("hang", ChaosPlan("hang", 1.0, 3600.0)),
            ("slow:1", ChaosPlan("slow", 1.0, 0.75)),
        ]:
            monkeypatch.setenv("REPRO_SWEEP_CHAOS", recipe)
            assert ChaosPlan.from_env() == plan, recipe

    def test_faults_are_pure_functions_of_point_and_attempt(self):
        keys = [spec.cache_key() for spec in grid(levels=(2, 4, 8, 16),
                                                  rates=(0.1, 0.2, 0.3))]
        for key in keys:
            point_coin = int(key[:8], 16) / float(0xFFFFFFFF)
            for attempt in (1, 2, 3):
                coin = chaos_coin(key, attempt)
                # the simulation-guard modes pick points, exit-once only
                # on their first attempt
                assert ChaosPlan("raise", 0.5).fault(key, attempt) == (
                    "raise" if point_coin < 0.5 else None)
                assert ChaosPlan("exit-once", 0.5).fault(key, attempt) == (
                    "exit-once" if point_coin < 0.5 and attempt == 1
                    else None)
                # the fabric's modes pick attempts; kill9 dies at the step
                # the coin's third of [0, RATE) names
                assert ChaosPlan("torn-write", 0.5).fault(key, attempt) == (
                    "torn-write" if coin < 0.5 else None)
                step = ChaosPlan("kill9", 0.6).fault(key, attempt)
                assert step == (None if coin >= 0.6 else
                                "kill9-claimed" if coin < 0.2 else
                                "kill9-published" if coin < 0.4 else
                                "kill9-done")

    @pytest.mark.parametrize("recipe", [
        "kill9:0.2:0.2", "exit-once:0.5:DIR", "stall-heartbeat:0.6:3.0",
        "torn-write:0.5:1", "raise:1.5", "raise:", "slow:0.5:-1",
        "kill-9:0.5"])
    def test_malformed_recipe_refused_before_dispatch(self, recipe, tmp_path,
                                                      monkeypatch, capsys):
        # the first three are the old forms: a recipe is never
        # reinterpreted, whoever reads it
        from repro.cli import main

        monkeypatch.setenv("REPRO_SWEEP_CHAOS", recipe)
        with pytest.raises(ValueError, match="invalid REPRO_SWEEP_CHAOS"):
            ChaosPlan.from_env()
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=2)
        runner = SweepRunner(workers=2, fabric=config, cache=ResultCache(
            directory=str(tmp_path / "c")))
        with pytest.raises(ValueError, match="invalid REPRO_SWEEP_CHAOS"):
            runner.run(grid())
        # nothing was dispatched: no queue, no checkpoint, no ledger record
        assert not (tmp_path / "q").exists()
        assert not (tmp_path / "c").exists() or not os.listdir(tmp_path / "c")
        assert not (tmp_path / "ledger").exists()
        assert main(["sweep", "--levels", "2", "--rates", "0.1", "0.2",
                     "--workers", "2", "--backend", "vectorized",
                     "--fabric", str(tmp_path / "q")]) == 2
        assert main(["worker", "--queue", str(tmp_path / "q"),
                     "--wait", "0"]) == 2
        out = capsys.readouterr().out
        assert out.count(f"invalid REPRO_SWEEP_CHAOS recipe {recipe!r}") == 2
        assert not (tmp_path / "q").exists()


class TestConfigValidation:
    def test_rejects_bad_values(self, tmp_path):
        with pytest.raises(ValueError):
            FabricConfig(queue_dir=str(tmp_path), workers=-1)
        with pytest.raises(ValueError):
            FabricConfig(queue_dir=str(tmp_path), lease_ttl_s=0)
        with pytest.raises(ValueError):
            FabricConfig(queue_dir=str(tmp_path), quarantine_after=0)

    def test_runner_workers_zero_needs_fabric(self, tmp_path):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=0)
        assert SweepRunner(workers=0, fabric=config).workers == 0


class TestFabricSweep:
    def test_matches_serial_results_bit_for_bit(self, tmp_path):
        specs = grid()
        serial = SweepRunner(workers=1).run(specs)
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=2,
                              lease_ttl_s=10.0)
        runner = SweepRunner(workers=2, fabric=config,
                             cache=ResultCache(directory=str(tmp_path / "c")))
        report = runner.run(specs)
        assert report.ok and report.total_points == len(specs)
        assert report.fabric is not None
        assert report.fabric.workers_spawned >= 1
        for mine, theirs in zip(report.points, serial.points):
            assert mine.result == theirs.result
        audit = audit_queue(tmp_path / "q")
        assert audit.ok, audit.summary()
        assert audit.done == len(specs)

    def test_private_queue_removed_on_every_way_out(self, tmp_path,
                                                    monkeypatch):
        # completion, a drain and an exception out of the run all leave
        # no private queue directory behind
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        specs = grid(levels=(2, 4, 8, 16), rates=(0.1, 0.2, 0.3),
                     backend="reference", warmup_cycles=200,
                     measure_cycles=800, drain_cycles=1500)

        def leftovers():
            return list(tmp_path.glob("repro-queue-*"))

        assert SweepRunner(workers=2).run(specs).ok
        assert leftovers() == []
        runner = SweepRunner(workers=2)
        runner.progress = lambda done, total, point, outcome: runner.request_stop()
        assert runner.run(specs).interrupted
        assert leftovers() == []

        def explode(done, total, point, outcome):
            raise RuntimeError("progress callback failed")

        with pytest.raises(RuntimeError, match="progress callback failed"):
            SweepRunner(workers=2, progress=explode).run(specs)
        assert leftovers() == []

    @pytest.mark.parametrize("fabric", [False, True],
                             ids=["private-queue", "explicit-fabric"])
    def test_results_written_once(self, tmp_path, fabric):
        # workers publish straight into the runner's cache directory, so
        # the runner itself writes nothing, and the next run hits it all
        specs = grid()
        config = (FabricConfig(queue_dir=str(tmp_path / "q"), workers=2)
                  if fabric else None)
        report = SweepRunner(workers=2, fabric=config, cache=ResultCache(
            directory=str(tmp_path / "c"))).run(specs)
        assert report.ok and report.simulated == len(specs)
        assert report.cache_stats.bytes_written == 0
        again = SweepRunner(cache=ResultCache(
            directory=str(tmp_path / "c"))).run(specs)
        assert again.cache_hits == len(specs) and again.simulated == 0

    def test_quarantines_poisoned_point_with_history(self, tmp_path,
                                                     monkeypatch):
        # every attempt errors (chaos 'raise' fires inside the simulation
        # guard in each worker), so failed attempts pile up on the same
        # points until the circuit breaker trips
        monkeypatch.setenv("REPRO_SWEEP_CHAOS", "raise")
        specs = grid(levels=(2,), rates=(0.1,))
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=2,
                              lease_ttl_s=10.0, quarantine_after=2)
        report = SweepRunner(workers=2, fabric=config).run(specs)
        assert not report.ok
        assert report.total_points == len(specs)
        failure = report.failures[0]
        assert failure.kind == "quarantined"
        assert "2 failed attempt(s)" in failure.error
        events = [entry["event"] for entry in failure.history]
        assert "claim" in events and "error" in events
        lines = failure.history_lines()
        assert any("leased to" in line for line in lines)
        assert any("raised:" in line for line in lines)
        audit = audit_queue(tmp_path / "q")
        assert audit.ok and audit.quarantined == len(specs)

    def test_quarantines_point_failing_on_its_only_worker(self, tmp_path,
                                                          monkeypatch):
        # a worker that raises survives and claims the point again, so
        # with fewer workers than quarantine_after only a breaker that
        # counts failed attempts (not distinct workers) ends the sweep;
        # the watchdog turns a livelock into an interrupted report
        monkeypatch.setenv("REPRO_SWEEP_CHAOS", "raise")
        specs = grid(levels=(2,), rates=(0.1,))
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=1,
                              lease_ttl_s=10.0, quarantine_after=2)
        runner = SweepRunner(workers=1, fabric=config)
        watchdog = threading.Timer(20.0, runner.request_stop)
        watchdog.start()
        try:
            report = runner.run(specs)
        finally:
            watchdog.cancel()
        assert not report.interrupted
        assert [failure.kind for failure in report.failures] == ["quarantined"]
        failure = report.failures[0]
        assert failure.attempts == 2
        assert "2 failed attempt(s) on 1 distinct worker(s)" in failure.error

    def test_survives_kill9_worker_churn(self, tmp_path, monkeypatch):
        # a worker SIGKILLs itself on every attempt whose coin is below
        # the rate, at the step the coin picks; the sweep must still
        # complete every point exactly once, with exactly those deaths
        monkeypatch.setenv("REPRO_SWEEP_CHAOS", "kill9:0.5")
        specs = grid(levels=(2, 4, 8), rates=(0.1, 0.3),
                     backend="reference", warmup_cycles=200,
                     measure_cycles=800, drain_cycles=1500)
        deaths = struck_attempts(specs, ChaosPlan("kill9", 0.5))
        assert {fault for *_, fault in deaths} == {
            "kill9-claimed", "kill9-published", "kill9-done"}
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=3,
                              lease_ttl_s=3.0, quarantine_after=100)
        cache = ResultCache(directory=str(tmp_path / "c"))
        report = SweepRunner(workers=3, fabric=config, cache=cache).run(specs)
        assert report.ok, report.summary()
        assert report.total_points == len(specs)
        assert len(report.points) + len(report.failures) == len(specs)
        assert report.fabric.workers_spawned >= 3
        assert report.fabric.worker_deaths == len(deaths)
        audit = audit_queue(tmp_path / "q")
        assert audit.ok, audit.summary()
        assert audit.done == len(specs)
        assert audit.expired == len(deaths)  # one lease per death

    def test_external_worker_joins_and_drains(self, tmp_path):
        # coordinator with zero local workers: only an externally spawned
        # `repro worker` can finish the sweep, proving mid-sweep joins
        specs = grid()
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=0,
                              lease_ttl_s=10.0)
        runner = SweepRunner(workers=0, fabric=config)
        box = {}

        def coordinate():
            box["report"] = runner.run(specs)

        thread = threading.Thread(target=coordinate)
        thread.start()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--queue", str(tmp_path / "q"), "--id", "joiner", "--wait", "30"],
            env=run_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        out, _ = proc.communicate(timeout=120)
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert proc.returncode == 0, out
        report = box["report"]
        assert report.ok and report.total_points == len(specs)
        assert report.fabric.workers_spawned == 0
        assert report.fabric.per_worker.get("joiner") == len(specs)
        assert f"{len(specs)} point(s) done" in out

    def test_worker_gives_up_without_a_queue(self, tmp_path, capsys):
        from repro.exec import worker_main

        code = worker_main(str(tmp_path / "nowhere"), wait_s=0.2)
        assert code == 2
        assert "no sweep queue" in capsys.readouterr().out

    def test_worker_skips_a_point_closed_while_it_claimed(self, tmp_path,
                                                          monkeypatch):
        # the point closes between the worker's read of the log and its
        # claim (a coordinator expiring the last allowed attempt): the
        # worker must drop the lease instead of running a closed point
        from repro.exec import worker_main

        table = seeded_table(tmp_path, specs=grid(levels=(2,), rates=(0.1,)))
        key = table.load()["keys"][0]
        claim = LeaseTable.claim

        def claim_after_close(self, key, worker, attempt):
            self.append({"ev": "quarantine", "key": key})
            return claim(self, key, worker, attempt)

        monkeypatch.setattr(LeaseTable, "claim", claim_after_close)
        assert worker_main(str(table.directory), worker_id="w",
                           wait_s=1.0) == 0
        events, _ = table.read_events(0)
        assert [e["ev"] for e in events if e.get("key") == key] == [
            "quarantine", "claim"]
        assert table.active_leases() == 0


class TestChaosModes:
    def test_torn_write_is_survived(self, tmp_path, monkeypatch):
        # a worker emulates a pre-atomic writer: truncated pickle straight
        # into the cache slot, then SIGKILL.  The corrupt-entry path must
        # swallow it and the point must be re-leased and completed.
        monkeypatch.setenv("REPRO_SWEEP_CHAOS", "torn-write:0.5")
        specs = grid()
        torn = [s.cache_key() for s in specs
                if chaos_coin(s.cache_key(), 1) < 0.5]
        assert torn, "grid must contain at least one torn-write victim"
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=2,
                              lease_ttl_s=2.0, quarantine_after=100)
        report = SweepRunner(workers=2, fabric=config,
                             cache=ResultCache(directory=str(tmp_path / "c"))
                             ).run(specs)
        assert report.ok, report.summary()
        assert report.fabric.worker_deaths == len(
            struck_attempts(specs, ChaosPlan("torn-write", 0.5)))
        audit = audit_queue(tmp_path / "q")
        assert audit.ok, audit.summary()

    def test_stall_heartbeat_expires_and_relets(self, tmp_path, monkeypatch):
        # a stalled worker lets its lease lapse: the lease must expire, the
        # point must be re-leased elsewhere, and the staller must fence
        # itself out instead of double-reporting
        monkeypatch.setenv("REPRO_SWEEP_CHAOS", "stall-heartbeat:0.6")
        specs = grid()
        stalled = [s.cache_key() for s in specs
                   if chaos_coin(s.cache_key(), 1) < 0.6]
        assert stalled, "grid must contain at least one stalled victim"
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=2,
                              lease_ttl_s=1.0, quarantine_after=100)
        report = SweepRunner(workers=2, fabric=config).run(specs)
        assert report.ok, report.summary()
        assert report.fabric.expired >= 1
        audit = audit_queue(tmp_path / "q")
        assert audit.ok, audit.summary()
        assert audit.expired >= 1
        # one expiry and one `abandon` per attempt the coin picks, and no
        # worker dies
        stalls = struck_attempts(specs, ChaosPlan("stall-heartbeat", 0.6))
        events, _ = LeaseTable(tmp_path / "q").read_events()
        assert sorted(e["key"] for e in events if e["ev"] == "expired") == \
            sorted(e["key"] for e in events if e["ev"] == "abandon") == \
            sorted(key for key, _, _ in stalls)
        assert report.fabric.worker_deaths == 0

    def test_slow_worker_heartbeat_keeps_lease(self, tmp_path, monkeypatch):
        # a slow-but-alive worker sleeps well past the lease ttl while
        # heartbeating: the lease must be renewed, never expired
        monkeypatch.setenv("REPRO_SWEEP_CHAOS", "slow:1.0:2.5")
        specs = grid(levels=(2,), rates=(0.1, 0.2))
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=2,
                              lease_ttl_s=1.0, quarantine_after=3)
        report = SweepRunner(workers=2, fabric=config).run(specs)
        assert report.ok, report.summary()
        assert report.fabric.expired == 0
        assert audit_queue(tmp_path / "q").ok


class TestKill9Steps:
    """``kill9:RATE`` kills a struck attempt at the step its coin picks."""

    RATE = 0.6

    def churn(self, tmp_path, monkeypatch, step):
        """Sweep the grid under ``kill9:RATE``; returns the report, the
        event log and the (key, attempt) pairs killed at ``step``."""
        specs = grid()
        killed = [(key, attempt) for key, attempt, fault
                  in struck_attempts(specs, ChaosPlan("kill9", self.RATE))
                  if fault == step]
        assert killed, f"grid must contain a {step} victim"
        monkeypatch.setenv("REPRO_SWEEP_CHAOS", f"kill9:{self.RATE}")
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=2,
                              lease_ttl_s=3.0, quarantine_after=100)
        report = SweepRunner(workers=2, fabric=config, cache=ResultCache(
            directory=str(tmp_path / "c"))).run(specs)
        assert report.ok, report.summary()
        assert audit_queue(tmp_path / "q").ok
        events, _ = LeaseTable(tmp_path / "q").read_events()
        return report, events, killed

    def test_kill_after_claim_relets_the_point(self, tmp_path, monkeypatch):
        _, events, killed = self.churn(tmp_path, monkeypatch,
                                       "kill9-claimed")
        for key, attempt in killed:
            trail = point_trail(events, key)
            claims = [i for i, e in enumerate(trail) if e["ev"] == "claim"]
            claim = claims[attempt - 1]
            dead = trail[claim]["worker"]
            # the lease expires with its worker, then another takes it
            assert (trail[claim + 1]["ev"], trail[claim + 1]["worker"]) == (
                "expired", dead)
            assert trail[claims[attempt]]["worker"] != dead

    def test_kill_after_publish_leaves_a_result_to_recover(self, tmp_path,
                                                           monkeypatch):
        report, events, killed = self.churn(tmp_path, monkeypatch,
                                            "kill9-published")
        orphaned = {key for key, _ in killed}
        assert report.fabric.recovered == len(orphaned) >= 1
        for key in orphaned:
            done = point_trail(events, key, ("done",))[0]
            assert done.get("recovered") is True

    def test_kill_after_done_leaves_a_lease_to_reclaim(self, tmp_path,
                                                       monkeypatch):
        _, events, killed = self.churn(tmp_path, monkeypatch, "kill9-done")
        for key, _ in killed:
            trail = point_trail(events, key, ("done", "expired"))
            first = next(i for i, e in enumerate(trail) if e["ev"] == "done")
            # the coordinator expires the dead worker's live lease on the
            # closed point: no lease survives the sweep
            assert {"ev": "expired", "worker": trail[first]["worker"]} in [
                {"ev": e["ev"], "worker": e["worker"]}
                for e in trail[first + 1:]]
        audit = audit_queue(tmp_path / "q")
        assert audit.ok and audit.active_leases == 0, audit.summary()


class TestResumeAndDrain:
    WINDOWS = ("--warmup", "200", "--measure", "800", "--drain", "1500")
    # the windows the CI drain step uses: long enough that the sweep is
    # still running when a signal sent after its first checkpoint lands
    SLOW_WINDOWS = ("--warmup", "400", "--measure", "2000", "--drain", "5000")

    def sweep_cmd(self, tmp_path, extra=(), windows=WINDOWS):
        return [sys.executable, "-m", "repro", "sweep",
                "--levels", "2", "4", "8", "--rates", "0.1", "0.2", "0.3",
                "--backend", "reference", *windows,
                "--cache-dir", str(tmp_path / "cache"),
                "--ledger-dir", str(tmp_path / "ledger"), *extra]

    def ledger_runs(self, tmp_path):
        path = tmp_path / "ledger" / "runs.jsonl"
        if not path.exists():
            return []
        return [json.loads(line)
                for line in path.read_text().splitlines() if line.strip()]

    def test_sigkilled_fabric_sweep_resumes_with_zero_reruns(self, tmp_path):
        # kill -9 the whole sweep mid-flight, then re-run the identical
        # command: completed points must come back as cache hits (zero
        # re-simulations of finished work) and the queue must be adopted,
        # not rejected as a different sweep
        cmd = self.sweep_cmd(
            tmp_path, ["--workers", "2", "--fabric", str(tmp_path / "q"),
                       "--lease-ttl", "3"])
        proc = subprocess.Popen(cmd, env=run_env(), stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL,
                                start_new_session=True)
        deadline = time.monotonic() + 60
        cache_dir = tmp_path / "cache"
        while time.monotonic() < deadline:  # wait for >= 1 checkpointed point
            if cache_dir.is_dir() and any(
                    name.endswith(".pkl") for name in os.listdir(cache_dir)):
                break
            time.sleep(0.1)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        done_before = sum(1 for name in os.listdir(cache_dir)
                          if name.endswith(".pkl"))
        assert done_before >= 1
        second = subprocess.run(
            self.sweep_cmd(
                tmp_path, ["--workers", "2", "--fabric", str(tmp_path / "q"),
                           "--lease-ttl", "3", "--resume"]),
            env=run_env(), capture_output=True, text=True, timeout=240)
        assert second.returncode == 0, second.stdout + second.stderr
        assert f"resumed: {done_before} points" in second.stdout
        assert "invariants hold" in second.stdout
        # exactly one sweep record per completed run in the ledger (the
        # killed run never reached its record)
        runs = [r for r in self.ledger_runs(tmp_path) if r["kind"] == "sweep"]
        assert len(runs) == 1

    def test_resume_expires_a_lease_left_on_a_done_point(self, tmp_path,
                                                         capsys):
        # a worker killed between its `done` append and its lease release
        # leaves a live lease on a finished point; no worker claims that
        # point again, so the resumed coordinator must expire the lease
        # itself or the audit still finds it after completion
        from repro.cli import main

        queue, cache = tmp_path / "q", tmp_path / "cache"
        cmd = ["sweep", "--levels", "2", "4", "--rates", "0.1", "0.2",
               "--workers", "1", "--backend", "vectorized",
               "--warmup", "100", "--measure", "300", "--drain", "400",
               "--fabric", str(queue), "--cache-dir", str(cache)]
        assert main(cmd) == 0
        # rewind to the half-finished queue a killed coordinator leaves:
        # no shutdown event, and two points neither claimed nor done
        table = LeaseTable(queue)
        keys = table.load()["keys"]
        undone = set(keys[:2])
        events, _ = table.read_events(0)
        table.events_path.write_text("".join(
            json.dumps(event) + "\n" for event in events
            if event["ev"] != "shutdown" and event.get("key") not in undone))
        for key in undone:
            (cache / f"{key}.pkl").unlink()
        done_key = keys[-1]
        table.lease_path(done_key).write_text(json.dumps({
            "key": done_key, "worker": "w0g0", "attempt": 1,
            "nonce": "killed", "deadline": time.time() + 60}))
        capsys.readouterr()
        code = main(cmd + ["--resume"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "resumed: 2 points" in out
        assert audit_queue(queue).ok

    def test_sigint_drains_checkpoints_and_exits_5(self, tmp_path):
        proc = subprocess.Popen(
            self.sweep_cmd(tmp_path, ["--workers", "2"], self.SLOW_WINDOWS),
            env=run_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        deadline = time.monotonic() + 60
        cache_dir = tmp_path / "cache"
        while time.monotonic() < deadline:  # let >= 1 point checkpoint
            if cache_dir.is_dir() and any(
                    name.endswith(".pkl") for name in os.listdir(cache_dir)):
                break
            time.sleep(0.1)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 5, out + err
        assert "draining in-flight points" in out
        assert "INTERRUPTED" in out
        assert "resume with:" in out
        assert "--resume" in out
        assert "Traceback" not in err
        # the drained sweep resumes: finished points are recognized, the
        # remainder simulates, and the second run exits clean
        second = subprocess.run(
            self.sweep_cmd(tmp_path, ["--workers", "2", "--resume"],
                           self.SLOW_WINDOWS),
            env=run_env(), capture_output=True, text=True, timeout=240)
        assert second.returncode == 0, second.stdout + second.stderr
        assert "resumed:" in second.stdout

    @staticmethod
    def guarded_run(runner, specs):
        """Run with a watchdog, so a sweep that never ends fails instead."""
        watchdog = threading.Timer(20.0, runner.request_stop)
        watchdog.start()
        try:
            return runner.run(specs)
        finally:
            watchdog.cancel()

    @staticmethod
    def rewrite_log(table, keep, extra=()):
        """Replace the event log with the kept events plus ``extra``."""
        events, _ = table.read_events(0)
        table.events_path.write_text("".join(
            json.dumps(event) + "\n"
            for event in [*filter(keep, events), *extra]))

    def test_drained_fabric_sweep_resumes(self, tmp_path):
        # a drain (what SIGINT does) leaves `drain` in the log; the
        # adopting coordinator must clear it, or every worker it spawns
        # halts on the old drain and the sweep never finishes
        specs = grid(levels=(2, 4, 8, 16), rates=(0.1, 0.2, 0.3),
                     backend="reference", warmup_cycles=400,
                     measure_cycles=2000, drain_cycles=5000)
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=2,
                              lease_ttl_s=10.0)

        def runner():
            return SweepRunner(workers=2, fabric=config, cache=ResultCache(
                directory=str(tmp_path / "c")))

        first = runner()
        first.progress = lambda done, total, point, outcome: first.request_stop()
        assert self.guarded_run(first, specs).interrupted
        report = self.guarded_run(runner(), specs)
        assert not report.interrupted, report.summary()
        assert report.ok and report.total_points == len(specs)
        assert audit_queue(tmp_path / "q").ok

    def test_lost_result_is_simulated_again(self, tmp_path):
        # a `done` whose result is gone must reopen the point for the
        # workers too, or they skip it while the coordinator waits for it
        specs = grid()
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=1,
                              lease_ttl_s=10.0)

        def runner():
            return SweepRunner(workers=1, fabric=config, cache=ResultCache(
                directory=str(tmp_path / "c")))

        assert runner().run(specs).ok
        # rewind to what a killed coordinator leaves, then lose a result
        self.rewrite_log(LeaseTable(tmp_path / "q"),
                         lambda event: event["ev"] != "shutdown")
        (tmp_path / "c" / f"{specs[0].cache_key()}.pkl").unlink()
        report = self.guarded_run(runner(), specs)
        assert not report.interrupted, report.summary()
        assert report.ok and len(report.points) == len(specs)
        assert report.simulated == 1
        assert audit_queue(tmp_path / "q").ok

    def test_late_completion_after_quarantine_counts_once(self, tmp_path):
        # a stalled worker that finishes after its point was quarantined
        # appends a late `done`: the point closed at its quarantine, so
        # the report, the audit and the watch all count it failed, once
        from repro.telemetry.live import QueueWatcher

        specs = grid(levels=(2,), rates=(0.1, 0.2))
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=1,
                              lease_ttl_s=10.0, quarantine_after=2)
        assert SweepRunner(workers=1, fabric=config).run(specs).ok
        table = LeaseTable(tmp_path / "q")
        late = table.load()["keys"][1]
        self.rewrite_log(
            table,
            lambda event: (event["ev"] != "shutdown"
                           and event.get("key") != late),
            [{"ev": "claim", "key": late, "worker": "w0g0", "attempt": 1},
             {"ev": "expired", "key": late, "worker": "w0g0", "attempt": 1},
             {"ev": "claim", "key": late, "worker": "w0g1", "attempt": 2},
             {"ev": "expired", "key": late, "worker": "w0g1", "attempt": 2},
             {"ev": "quarantine", "key": late, "workers": ["w0g0", "w0g1"]},
             {"ev": "done", "key": late, "worker": "w0g0", "attempt": 1,
              "elapsed": 0.1}])
        runner = SweepRunner(workers=0, fabric=FabricConfig(
            queue_dir=str(tmp_path / "q"), workers=0, quarantine_after=2))
        report = self.guarded_run(runner, specs)
        assert not report.interrupted
        assert report.total_points == 2
        assert [failure.kind for failure in report.failures] == ["quarantined"]
        assert report.failures[0].key == late
        audit = audit_queue(tmp_path / "q")
        assert (audit.done, audit.quarantined, audit.total) == (1, 1, 2)
        assert audit.duplicates == 1
        view = QueueWatcher(tmp_path / "q").refresh()
        assert (view.done, view.failed) == (audit.done, audit.quarantined)
        assert view.complete

    def test_request_stop_interrupts_serial_run(self, tmp_path):
        specs = grid(levels=(2, 4), rates=(0.1, 0.2, 0.3))
        cache = ResultCache(directory=str(tmp_path / "c"))
        runner = SweepRunner(workers=1, cache=cache)

        def stop_after_first(done, total, point, outcome):
            runner.request_stop()

        runner.progress = stop_after_first
        report = runner.run(specs)
        assert report.interrupted
        assert len(report.points) < len(specs)
        assert "INTERRUPTED" in report.summary()
        manifest = [value for key, value in cache._memory.items()
                    if key.startswith("__json__:sweep-")]
        assert manifest and manifest[0]["interrupted"] is True
        # a fresh run with the same runner is not poisoned by the old stop
        runner.progress = None
        report = runner.run(specs)
        assert not report.interrupted and report.total_points == len(specs)


class TestCrashAtomicCache:
    def test_put_killed_midway_never_leaves_truncated_entry(self, tmp_path):
        # hammer put() in a child and SIGKILL it at a random moment: every
        # published entry must load; at worst a stray *.tmp file remains
        script = (
            "import os, sys\n"
            "from repro.exec import ResultCache\n"
            "cache = ResultCache(directory=sys.argv[1])\n"
            "blob = list(range(50_000))\n"
            "i = 0\n"
            "while True:\n"
            "    cache.put(f'key{i % 7}', (i, blob))\n"
            "    i += 1\n"
        )
        proc = subprocess.Popen([sys.executable, "-c", script,
                                 str(tmp_path / "cache")], env=run_env())
        time.sleep(1.5)
        proc.kill()
        proc.wait(timeout=30)
        entries = [name for name in os.listdir(tmp_path / "cache")
                   if name.endswith(".pkl")]
        assert entries, "child never published an entry"
        for name in entries:
            with open(tmp_path / "cache" / name, "rb") as fh:
                index, blob = pickle.load(fh)  # must never raise
            assert blob[-1] == 49_999

    def test_put_unpicklable_raises_and_leaks_no_tmp(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "cache"))
        with pytest.raises(Exception):
            cache.put("bad", lambda: None)
        leftovers = os.listdir(tmp_path / "cache")
        assert leftovers == []


class TestFabricCLI:
    def test_audit_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fabric", "audit", str(tmp_path / "missing")]) == 2
        assert "no sweep queue" in capsys.readouterr().out
        specs = grid(levels=(2,), rates=(0.1,))
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=1,
                              lease_ttl_s=10.0)
        report = SweepRunner(workers=1, fabric=config).run(specs)
        assert report.ok
        capsys.readouterr()
        assert main(["fabric", "audit", str(tmp_path / "q")]) == 0
        assert "invariants hold" in capsys.readouterr().out

    def test_sweep_fabric_flag_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["sweep", "--levels", "2", "--rates", "0.1", "0.2",
                     "--workers", "2", "--backend", "vectorized",
                     "--warmup", "100", "--measure", "300", "--drain", "400",
                     "--fabric", str(tmp_path / "q"),
                     "--cache-dir", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "fabric:" in out
        assert "invariants hold" in out

    def test_sweep_rejects_foreign_queue(self, tmp_path, capsys):
        from repro.cli import main

        first = main(["sweep", "--levels", "2", "--rates", "0.1",
                      "--backend", "vectorized", "--warmup", "100",
                      "--measure", "300", "--drain", "400",
                      "--fabric", str(tmp_path / "q")])
        assert first == 0
        capsys.readouterr()
        second = main(["sweep", "--levels", "4", "--rates", "0.3",
                       "--backend", "vectorized", "--warmup", "100",
                       "--measure", "300", "--drain", "400",
                       "--fabric", str(tmp_path / "q")])
        assert second == 2
        assert "different sweep" in capsys.readouterr().out


class TestFabricMetrics:
    def test_churn_counters_reach_registry(self, tmp_path, monkeypatch):
        from repro.telemetry import Telemetry

        monkeypatch.setenv("REPRO_SWEEP_CHAOS", "stall-heartbeat:0.6")
        telemetry = Telemetry(sample_interval=0)
        specs = grid()
        config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=2,
                              lease_ttl_s=1.0, quarantine_after=100)
        report = SweepRunner(workers=2, fabric=config,
                             telemetry=telemetry).run(specs)
        assert report.ok
        metrics = telemetry.metrics
        assert metrics.value("fabric_lease_claims_total") >= len(specs)
        assert metrics.value("fabric_lease_expired_total") >= 1
        assert metrics.value("fabric_requeued_total") >= 1
        # pre-registered counters render even when untouched
        text = metrics.render_prometheus()
        assert "fabric_quarantined_total 0" in text
        assert "fabric_workers_alive" in text
