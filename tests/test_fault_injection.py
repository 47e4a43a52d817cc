"""Fault injection end to end: spec, simulator, thermal retreat, harness."""

import dataclasses

import pytest

from repro.cmp import get_profile
from repro.config import NoCConfig
from repro.core.sprinting import RetreatPolicy, SprintController, SprintMode
from repro.core.topological import SprintTopology
from repro.exec import FabricConfig, ResultCache, SweepRunner, audit_queue
from repro.exec import runner as runner_mod
from repro.exec.fabric import LeaseTable
from repro.exec.runner import CHAOS_ENV
from repro.noc.sim import simulate
from repro.noc.spec import FaultEvent, FaultSchedule, SimulationSpec, TrafficSpec

CFG = NoCConfig()


def spec_with(faults=None, level=8, rate=0.2, seed=0, **overrides):
    topo = SprintTopology.for_level(4, 4, level)
    kwargs = dict(
        topology=topo,
        traffic=TrafficSpec(tuple(topo.active_nodes), rate,
                            CFG.packet_length_flits, "uniform", seed=seed),
        config=CFG,
        routing="cdor",
        warmup_cycles=200,
        measure_cycles=600,
        drain_cycles=2000,
    )
    if faults is not None:
        kwargs["faults"] = faults
    kwargs.update(overrides)
    return SimulationSpec(**kwargs)


def fields(result):
    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result) if f.name != "activity"}


def chaos_rate_failing(specs, count):
    """A chaos rate at which exactly ``count`` of ``specs`` fire."""
    coins = sorted(
        int(s.cache_key()[:8], 16) / float(0xFFFFFFFF) for s in specs
    )
    if count == 0:
        return 0.0
    if count == len(coins):
        return 1.0
    return (coins[count - 1] + coins[count]) / 2.0


class TestFaultSchedule:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(cycle=-1, node=5)
        with pytest.raises(ValueError):
            FaultEvent(cycle=10)  # router fault needs a node
        with pytest.raises(ValueError):
            FaultEvent(cycle=10, node=5, duration=0)
        with pytest.raises(ValueError):
            FaultEvent(cycle=10, kind="link")  # link fault needs a link
        with pytest.raises(ValueError):
            FaultEvent(cycle=10, kind="meteor", node=5)

    def test_schedule_queries(self):
        schedule = FaultSchedule(events=(
            FaultEvent(cycle=100, node=5, duration=50),
            FaultEvent(cycle=120, node=6),
            FaultEvent(cycle=130, kind="link", link=(2, 1)),
        ))
        assert len(schedule) == 3 and bool(schedule)
        assert schedule.boundaries() == [100, 120, 130, 150]
        assert schedule.faulty_routers_at(110) == frozenset({5})
        assert schedule.faulty_routers_at(160) == frozenset({6})  # 5 recovered
        assert schedule.faulty_links_at(140) == frozenset({(1, 2)})  # normalized
        assert not FaultSchedule()
        assert FaultSchedule().boundaries() == []

    def test_spec_rejects_faulty_master(self):
        with pytest.raises(ValueError):
            spec_with(FaultSchedule((FaultEvent(cycle=10, node=0),)))

    def test_spec_rejects_fault_outside_mesh(self):
        with pytest.raises(ValueError):
            spec_with(FaultSchedule((FaultEvent(cycle=10, node=99),)))

    def test_spec_rejects_non_adjacent_link(self):
        with pytest.raises(ValueError):
            spec_with(FaultSchedule((
                FaultEvent(cycle=10, kind="link", link=(0, 5)),
            )))

    def test_spec_rejects_adaptive_routing_with_faults(self):
        schedule = FaultSchedule((FaultEvent(cycle=10, node=5),))
        with pytest.raises(ValueError):
            spec_with(schedule, level=16, routing="west_first")


class TestCacheKeyCompatibility:
    def test_default_schedule_preserves_existing_keys(self):
        """Acceptance: adding the faults field must not move old keys."""
        assert spec_with().cache_key() == spec_with(FaultSchedule()).cache_key()

    def test_nonempty_schedule_changes_key(self):
        faulty = spec_with(FaultSchedule((FaultEvent(cycle=400, node=5),)))
        assert faulty.cache_key() != spec_with().cache_key()

    def test_distinct_schedules_distinct_keys(self):
        a = spec_with(FaultSchedule((FaultEvent(cycle=400, node=5),)))
        b = spec_with(FaultSchedule((FaultEvent(cycle=401, node=5),)))
        c = spec_with(FaultSchedule((FaultEvent(cycle=400, node=5,
                                                duration=100),)))
        assert len({a.cache_key(), b.cache_key(), c.cache_key()}) == 3


class TestSimulatorFaults:
    def test_fault_free_schedule_reproduces_baseline(self):
        """An empty FaultSchedule is bit-identical to no schedule at all."""
        assert fields(simulate(spec_with())) == fields(
            simulate(spec_with(FaultSchedule()))
        )

    def test_permanent_router_fault_degrades_and_reports(self):
        spec = spec_with(FaultSchedule((FaultEvent(cycle=400, node=5),)))
        result = simulate(spec)
        assert result.degraded and result.reconfigurations == 1
        assert result.min_region_level < 8
        assert result.packets_dropped + result.packets_retransmitted > 0
        assert not result.saturated  # the sweep still terminates cleanly
        assert result.packets_ejected <= result.packets_measured

    def test_fault_injection_is_deterministic(self):
        spec = spec_with(FaultSchedule((FaultEvent(cycle=400, node=5),)))
        assert fields(simulate(spec)) == fields(simulate(spec))

    def test_transient_fault_recovers_region(self):
        spec = spec_with(FaultSchedule((
            FaultEvent(cycle=400, node=5, duration=300),
        )))
        result = simulate(spec)
        # one reconfiguration into the fault, one back out of it
        assert result.reconfigurations == 2
        assert result.min_region_level < 8

    def test_link_fault_forces_reconfiguration(self):
        spec = spec_with(FaultSchedule((
            FaultEvent(cycle=400, kind="link", link=(1, 5)),
        )))
        result = simulate(spec)
        assert result.degraded
        assert result.min_region_level < 8

    def test_parallel_sweep_matches_serial_with_faults(self):
        specs = [
            spec_with(FaultSchedule((FaultEvent(cycle=400, node=5),)), rate=r)
            for r in (0.1, 0.2)
        ]
        serial = SweepRunner(workers=1).run(specs)
        parallel = SweepRunner(workers=2).run(specs)
        for a, b in zip(serial.results, parallel.results):
            assert fields(a) == fields(b)


class TestStagedThermalRetreat:
    def test_retreat_halves_level_then_holds_sustainable(self):
        controller = SprintController(retreat=RetreatPolicy())
        profile = get_profile("blackscholes")
        plan = controller.begin_sprint(profile)
        assert plan.level == 16
        sustained = controller.advance(30.0)
        assert sustained == pytest.approx(30.0)
        assert controller.mode is SprintMode.SPRINTING
        # 16 -> 8 -> 4 -> 2: one halving per crossed headroom threshold
        assert [(a, b) for _, a, b in controller.retreat_log] == [
            (16, 8), (8, 4), (4, 2),
        ]
        assert controller.plan_active.level == controller.sustainable_level()
        # the final level holds indefinitely
        assert controller.advance(100.0) == pytest.approx(100.0)
        assert controller.mode is SprintMode.SPRINTING

    def test_retreat_times_are_monotonic(self):
        controller = SprintController(retreat=RetreatPolicy())
        controller.begin_sprint(get_profile("blackscholes"))
        controller.advance(30.0)
        times = [t for t, _, _ in controller.retreat_log]
        assert times == sorted(times) and times[0] > 0

    def test_legacy_default_still_aborts(self):
        """Without a RetreatPolicy the all-or-nothing abort is unchanged."""
        controller = SprintController()
        controller.begin_sprint(get_profile("blackscholes"))
        controller.advance(30.0)
        assert controller.mode is SprintMode.COOLDOWN
        assert controller.plan_active is None
        assert controller.retreat_log == []

    def test_retreat_policy_validation(self):
        with pytest.raises(ValueError):
            RetreatPolicy(thresholds=(0.25, 0.5))  # not descending
        with pytest.raises(ValueError):
            RetreatPolicy(thresholds=(1.5,))

    def test_faulty_controller_avoids_node(self):
        controller = SprintController(faulty=frozenset({5}))
        plan = controller.plan(get_profile("blackscholes"))
        assert 5 not in plan.active_cores
        assert plan.level < 16  # node 5 shadows part of the mesh
        assert plan.expected_speedup > 1.0

    def test_run_staged_survives_where_run_aborts(self):
        from repro.thermal.transient_sprint import SprintTransient

        transient = SprintTransient()
        full = [8.0] * 16
        half = [8.0] * 8 + [0.0] * 8
        nominal = [2.0] + [0.0] * 15
        aborted = transient.run(full, duration_s=4.0)
        assert aborted.reached_limit_at_s is not None
        staged = transient.run_staged([full, half, nominal], duration_s=4.0)
        assert staged.reached_limit_at_s is None
        assert staged.retreats  # at least one stage drop
        assert staged.retreats[0][0] == pytest.approx(
            aborted.reached_limit_at_s
        )
        assert staged.duration_s > aborted.duration_s


class TestHarnessFailureIsolation:
    def make_specs(self):
        return [spec_with(level=4, rate=r, warmup_cycles=100,
                          measure_cycles=300, drain_cycles=600)
                for r in (0.05, 0.1, 0.15, 0.2)]

    def test_worker_exception_isolated_with_traceback(self, monkeypatch):
        specs = self.make_specs()
        rate = chaos_rate_failing(specs, 2)
        monkeypatch.setenv(CHAOS_ENV, f"raise:{rate}")
        report = SweepRunner(workers=2).run(specs)
        assert len(report.failures) == 2 and len(report.points) == 2
        assert not report.ok
        assert [p.index for p in report.points] == sorted(
            p.index for p in report.points
        )
        for failure in report.failures:
            assert failure.kind == "error"
            assert "chaos" in failure.error
            assert "RuntimeError" in failure.traceback
        # survivors match a clean run bit for bit
        monkeypatch.delenv(CHAOS_ENV)
        clean = SweepRunner().run(specs)
        for point in report.points:
            assert fields(point.result) == fields(
                clean.points[point.index].result
            )

    def test_worker_crash_isolated(self, monkeypatch):
        specs = self.make_specs()
        rate = chaos_rate_failing(specs, 1)
        monkeypatch.setenv(CHAOS_ENV, f"exit:{rate}")
        report = SweepRunner(workers=2).run(specs)
        assert [f.kind for f in report.failures] == ["crash"]
        assert len(report.points) == 3

    def test_crash_recovers_with_retry(self, monkeypatch, tmp_path):
        specs = self.make_specs()
        rate = chaos_rate_failing(specs, 2)
        monkeypatch.setenv(CHAOS_ENV, f"exit-once:{rate}")
        report = SweepRunner(workers=2, max_retries=1).run(specs)
        assert report.ok and len(report.points) == 4

    @pytest.mark.parametrize("fabric", [False, True],
                             ids=["serial", "fabric"])
    def test_exit_once_crashes_each_chosen_point_once(self, monkeypatch,
                                                      tmp_path, fabric):
        specs = self.make_specs()
        rate = chaos_rate_failing(specs, 2)
        chosen = sorted(s.cache_key() for s in specs
                        if int(s.cache_key()[:8], 16) / 0xFFFFFFFF < rate)
        monkeypatch.setenv(CHAOS_ENV, f"exit-once:{rate}")
        if fabric:
            config = FabricConfig(queue_dir=str(tmp_path / "q"), workers=2,
                                  quarantine_after=2)
            report = SweepRunner(workers=2, fabric=config).run(specs)
            assert report.fabric.worker_deaths == len(chosen)
            events, _ = LeaseTable(tmp_path / "q").read_events()
            crashed = sorted(e["key"] for e in events if e["ev"] == "expired")
        else:
            # in-process, the crash raises instead of ending the test run,
            # and the guard reports it as the attempt's error
            attempts = []
            guarded = runner_mod._simulate_guarded

            def spy(spec, tel_ctx, chaos, attempt):
                status = guarded(spec, tel_ctx, chaos, attempt)
                attempts.append((spec.cache_key(), attempt, status[0]))
                return status

            def crash(code):
                raise RuntimeError(f"os._exit({code})")

            monkeypatch.setattr(runner_mod, "_simulate_guarded", spy)
            monkeypatch.setattr(runner_mod.os, "_exit", crash)
            report = SweepRunner(workers=1, max_retries=1).run(specs)
            crashed = sorted(key for key, attempt, status in attempts
                             if status == "err" and attempt == 1)
            assert [status for *_, status in attempts].count("err") == 2
        assert report.ok and len(report.points) == 4
        assert crashed == chosen

    @pytest.mark.parametrize("fabric", [False, True],
                             ids=["private-queue", "explicit-fabric"])
    def test_hung_point_times_out_and_innocents_survive(self, monkeypatch,
                                                        tmp_path, fabric):
        specs = self.make_specs()
        rate = chaos_rate_failing(specs, 1)
        monkeypatch.setenv(CHAOS_ENV, f"hang:{rate}:60")
        config = (FabricConfig(queue_dir=str(tmp_path / "q"), workers=2,
                               quarantine_after=1) if fabric else None)
        report = SweepRunner(workers=2, point_timeout=1.5,
                             fabric=config).run(specs)
        assert [f.kind for f in report.failures] == ["timeout"]
        assert len(report.points) == 3
        if fabric:
            assert audit_queue(tmp_path / "q").ok

    def test_serial_exception_isolated(self, monkeypatch):
        specs = self.make_specs()
        rate = chaos_rate_failing(specs, 1)
        monkeypatch.setenv(CHAOS_ENV, f"raise:{rate}")
        report = SweepRunner(workers=1).run(specs)
        assert len(report.failures) == 1 and len(report.points) == 3

    def test_duplicate_of_failed_spec_fails_together(self, monkeypatch):
        spec = self.make_specs()[0]
        monkeypatch.setenv(CHAOS_ENV, "raise")
        report = SweepRunner(workers=1).run([spec, spec])
        assert len(report.failures) == 2
        assert report.total_points == 2

    def test_crashed_sweep_resumes_from_checkpoint(self, monkeypatch, tmp_path):
        specs = self.make_specs()
        rate = chaos_rate_failing(specs, 3)
        monkeypatch.setenv(CHAOS_ENV, f"exit:{rate}")
        first = SweepRunner(
            workers=2, cache=ResultCache(directory=str(tmp_path))
        ).run(specs)
        assert len(first.points) == 1 and len(first.failures) == 3
        monkeypatch.delenv(CHAOS_ENV)
        second = SweepRunner(
            workers=2, cache=ResultCache(directory=str(tmp_path))
        ).run(specs)
        assert second.ok
        assert second.cache_hits == 1  # the survivor was not re-simulated
        assert second.simulated == 3
        assert second.resumed == 1  # recognized as the same sweep

    def test_progress_fires_as_points_complete(self):
        specs = self.make_specs()
        cache = ResultCache()
        SweepRunner(cache=cache).run(specs[:1])  # pre-warm one point
        seen = []
        runner = SweepRunner(
            cache=cache,
            progress=lambda done, total, point: seen.append(
                (done, total, point.cached)
            ),
        )
        runner.run(specs)
        # the cache hit reports first, before any simulation finishes
        assert seen[0] == (1, 4, True)
        assert [done for done, _, _ in seen] == [1, 2, 3, 4]
        assert all(total == 4 for _, total, _ in seen)

    def test_failure_summary_lines(self, monkeypatch):
        specs = self.make_specs()[:2]
        monkeypatch.setenv(CHAOS_ENV, "raise")
        report = SweepRunner(workers=1).run(specs)
        lines = report.failure_lines()
        assert len(lines) == 2
        assert all("attempt" in line for line in lines)
        assert "FAILED: 2 of 2" in report.summary()

    def test_runner_parameter_validation(self):
        with pytest.raises(ValueError):
            SweepRunner(max_retries=-1)
        with pytest.raises(ValueError):
            SweepRunner(point_timeout=0)
