"""Tests for the telemetry layer: metrics, tracing, reporting, wiring."""

import json
import os

import pytest

from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.exec import FabricConfig, ResultCache, SweepRunner
from repro.exec.runner import CHAOS_ENV
from repro.noc.sim import simulate
from repro.noc.spec import SimulationSpec, TrafficSpec
from repro.telemetry import MetricsRegistry, Telemetry, Tracer
from repro.telemetry.report import (
    build_tree,
    load_trace,
    render_report,
    render_span_tree,
    top_sinks,
)

CFG = NoCConfig()


def small_spec(rate=0.1, seed=0, level=4):
    topo = SprintTopology.for_level(4, 4, level)
    return SimulationSpec(
        topology=topo,
        traffic=TrafficSpec(tuple(topo.active_nodes), rate,
                            CFG.packet_length_flits, "uniform", seed=seed),
        config=CFG, routing="cdor",
        warmup_cycles=200, measure_cycles=600, drain_cycles=2000,
    )


def result_fields(result):
    import dataclasses

    return {f.name: getattr(result, f.name)
            for f in dataclasses.fields(result) if f.name != "activity"}


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("runs_total").inc()
        registry.counter("runs_total").inc(4)
        registry.gauge("level").set(8)
        registry.histogram("lat", buckets=(1.0, 10.0)).observe(0.5)
        registry.histogram("lat").observe(5.0)
        assert registry.value("runs_total") == 5
        assert registry.value("level") == 8
        hist = registry.histogram("lat")
        assert hist.count == 2
        assert hist.counts == [1, 1, 0]

    def test_handles_are_idempotent_and_labelled_series_distinct(self):
        registry = MetricsRegistry()
        a = registry.counter("flits", router=3)
        b = registry.counter("flits", router=3)
        c = registry.counter("flits", router=4)
        assert a is b and a is not c
        a.inc(7)
        assert registry.value("flits", router=3) == 7
        assert registry.value("flits", router=4) == 0

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("flits_total", "Flits moved.", router=0).inc(3)
        registry.histogram("occ", buckets=(1.0, 4.0)).observe(2.0)
        text = registry.render_prometheus()
        assert "# HELP flits_total Flits moved." in text
        assert "# TYPE flits_total counter" in text
        assert 'flits_total{router="0"} 3' in text
        assert 'occ_bucket{le="1.0"} 0' in text
        assert 'occ_bucket{le="4.0"} 1' in text
        assert 'occ_bucket{le="+Inf"} 1' in text
        assert "occ_sum 2.0" in text
        assert "occ_count 1" in text

    def test_merge_adds_counters_and_histograms(self):
        worker = MetricsRegistry()
        worker.counter("runs_total").inc(2)
        worker.gauge("level").set(4)
        worker.histogram("lat", buckets=(1.0,)).observe(0.5)
        parent = MetricsRegistry()
        parent.counter("runs_total").inc(1)
        parent.gauge("level").set(16)
        parent.histogram("lat", buckets=(1.0,)).observe(2.0)
        parent.merge(worker.snapshot())
        assert parent.value("runs_total") == 3
        assert parent.value("level") == 4  # gauge: last write wins
        merged = parent.histogram("lat")
        assert merged.count == 2
        assert merged.counts == [1, 1]
        assert merged.sum == 2.5

    def test_merge_rejects_bucket_mismatch(self):
        worker = MetricsRegistry()
        worker.histogram("lat", buckets=(1.0, 2.0)).observe(0.5)
        parent = MetricsRegistry()
        parent.histogram("lat", buckets=(5.0,))
        with pytest.raises(ValueError):
            parent.merge(worker.snapshot())


class TestTracer:
    def test_with_blocks_nest_implicitly(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("tick")
        begins = {e["name"]: e for e in tracer.events if e["ev"] == "begin"}
        assert begins["outer"]["parent"] is None
        assert begins["inner"]["parent"] == begins["outer"]["id"]
        annot = next(e for e in tracer.events if e["ev"] == "annot")
        assert annot["span"] == begins["inner"]["id"]

    def test_annotations_ride_out_on_end_event(self):
        tracer = Tracer()
        span = tracer.span("run")
        span.annotate(cycles=100)
        span.end()
        end = next(e for e in tracer.events if e["ev"] == "end")
        assert end["attrs"] == {"cycles": 100}
        assert end["wall_s"] >= 0 and end["cpu_s"] >= 0

    def test_exception_marks_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        end = next(e for e in tracer.events if e["ev"] == "end")
        assert end["attrs"]["error"] == "RuntimeError"

    def test_graft_reparents_worker_roots_only(self):
        worker = Tracer(id_prefix="w1.")
        with worker.span("simulate"):
            worker.span("phase").end()
        parent = Tracer()
        point = parent.span("point")
        parent.graft(worker.drain(), point.id)
        begins = {e["name"]: e for e in parent.events if e["ev"] == "begin"}
        assert begins["simulate"]["parent"] == point.id
        assert begins["phase"]["parent"] == begins["simulate"]["id"]
        assert begins["simulate"]["id"].startswith("w1.")

    def test_save_load_roundtrip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a", level=4):
            tracer.sample({"cycle": 100})
        path = tmp_path / "trace.jsonl"
        count = tracer.save(path)
        events = load_trace(path)
        assert len(events) == count == 3
        assert [e["ev"] for e in events] == ["begin", "sample", "end"]
        # every line is valid standalone JSON
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                json.loads(line)


class TestReport:
    def _trace(self, tmp_path):
        tracer = Tracer()
        with tracer.span("sweep") as sweep:
            with tracer.span("point"):
                with tracer.span("simulate"):
                    tracer.sample({"cycle": 0})
            sweep.annotate(points=1)
        registry = MetricsRegistry()
        registry.counter("sweep_simulated_total", "Done.").inc()
        tracer.events.append({"ev": "metrics", "data": registry.snapshot()})
        path = tmp_path / "t.jsonl"
        tracer.save(path)
        return path

    def test_tree_and_sinks(self, tmp_path):
        roots = build_tree(load_trace(self._trace(tmp_path)))
        assert len(roots) == 1
        sweep = roots[0]
        assert sweep.name == "sweep" and sweep.ended
        assert sweep.children[0].children[0].samples == 1
        names = [name for name, *_ in top_sinks(roots)]
        assert set(names) == {"sweep", "point", "simulate"}

    def test_render_report_has_all_sections(self, tmp_path):
        text = render_report(self._trace(tmp_path))
        assert "span tree" in text
        assert "top time sinks" in text
        assert "metrics (prometheus text)" in text
        assert "sweep_simulated_total 1" in text
        assert "ms wall" in text

    def test_unfinished_and_orphaned_spans_tolerated(self):
        events = [
            {"ev": "begin", "id": "s1", "parent": None, "name": "open"},
            {"ev": "begin", "id": "x9", "parent": "gone", "name": "orphan"},
        ]
        roots = build_tree(events)
        assert {r.name for r in roots} == {"open", "orphan"}
        text = render_span_tree(roots)
        assert "unfinished" in text

    def test_bad_trace_line_raises_value_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev": "begin"\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError):
            load_trace(path)


class TestSimInstrumentation:
    def test_results_bit_identical_with_telemetry(self):
        spec = small_spec()
        plain = simulate(spec)
        traced = simulate(spec, telemetry=Telemetry(sample_interval=100))
        assert result_fields(plain) == result_fields(traced)

    def test_phase_spans_and_samples(self):
        tel = Telemetry(sample_interval=100)
        result = simulate(small_spec(), telemetry=tel)
        begins = [e for e in tel.tracer.events if e["ev"] == "begin"]
        assert [b["name"] for b in begins] == [
            "simulate", "phase:warmup", "phase:measure", "phase:drain"
        ]
        sim_id = begins[0]["id"]
        assert all(b["parent"] == sim_id for b in begins[1:])
        samples = [e for e in tel.tracer.events if e["ev"] == "sample"]
        assert samples and all(e["span"] == sim_id for e in samples)
        for event in samples:
            data = event["data"]
            assert data["cycle"] % 100 == 0
            assert set(data) == {"cycle", "in_flight", "buffered", "routers"}
            for stats in data["routers"].values():
                assert set(stats) == {"inj", "ej", "occ", "gated"}
        assert tel.metrics.value("sim_runs_total") == 1
        assert tel.metrics.value("sim_packets_measured_total") == \
            result.packets_measured
        assert tel.metrics.value("sim_cycles_total") == result.cycles_run
        # per-router injected flits sum to what the active nodes offered
        injected = sum(
            tel.metrics.value("noc_router_injected_flits_total", router=n) or 0
            for n in range(16)
        )
        assert injected > 0


class TestRunnerIntegration:
    def _span_tree_names(self, tel):
        begins = [e for e in tel.tracer.events if e["ev"] == "begin"]
        by_id = {b["id"]: b for b in begins}

        def chain(begin):
            names = [begin["name"]]
            while begin.get("parent") is not None:
                begin = by_id[begin["parent"]]
                names.append(begin["name"])
            return list(reversed(names))

        return [chain(b) for b in begins]

    @pytest.mark.parametrize("workers,fabric", [(1, False), (2, False),
                                                (2, True)],
                             ids=["1", "2", "fabric"])
    def test_sweep_point_simulate_phase_nesting(self, workers, fabric,
                                                tmp_path):
        tel = Telemetry(sample_interval=200)
        config = (FabricConfig(queue_dir=str(tmp_path / "q"), workers=workers)
                  if fabric else None)
        runner = SweepRunner(workers=workers, telemetry=tel, fabric=config)
        report = runner.run([small_spec(rate=r) for r in (0.05, 0.1)])
        assert report.ok
        chains = self._span_tree_names(tel)
        assert ["sweep"] in chains
        assert ["sweep", "point"] in chains
        assert ["sweep", "point", "simulate"] in chains
        assert ["sweep", "point", "simulate", "phase:measure"] in chains
        assert tel.metrics.value("sweep_simulated_total") == 2
        assert tel.metrics.value("sweep_cache_misses_total") == 2
        assert tel.metrics.value("sweep_cache_hits_total") == 0
        assert tel.metrics.value("sweep_failures_total") == 0
        assert tel.metrics.histogram("sweep_point_sim_seconds").count == 2

    def test_cache_hits_and_prometheus_dump(self):
        tel = Telemetry()
        cache = ResultCache()
        specs = [small_spec(rate=r) for r in (0.05, 0.1)]
        SweepRunner(cache=cache, telemetry=tel).run(specs)
        SweepRunner(cache=cache, telemetry=tel).run(specs)
        assert tel.metrics.value("sweep_cache_hits_total") == 2
        text = tel.metrics.render_prometheus()
        assert "sweep_cache_hits_total 2" in text
        assert "sweep_retries_total 0" in text  # zero but still rendered
        assert "result_cache_stores 2" in text

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_attempts_counted_and_span_marked(self, monkeypatch,
                                                     workers):
        # two workers need two specs to run in parallel; at this chaos
        # rate only the first spec's coin (0.48) fires, not the second's
        # (0.54), so one point still fails
        specs = [small_spec(), small_spec(rate=0.05)][:workers]
        monkeypatch.setenv(CHAOS_ENV, "raise:0.51")
        tel = Telemetry()
        report = SweepRunner(workers=workers, max_retries=1,
                             telemetry=tel).run(specs)
        monkeypatch.delenv(CHAOS_ENV)
        assert len(report.failures) == 1
        assert tel.metrics.value("sweep_errors_total") == 2  # both attempts
        assert tel.metrics.value("sweep_retries_total") == 1
        assert tel.metrics.value("sweep_failures_total") == 1
        end = next(
            e for e in tel.tracer.events
            if e["ev"] == "end" and e["attrs"].get("outcome") == "failed"
        )
        assert end["attrs"]["attempts"] == 2

    def test_save_embeds_metrics_and_report_renders(self, tmp_path):
        tel = Telemetry(sample_interval=200)
        SweepRunner(telemetry=tel).run([small_spec()])
        trace = tmp_path / "t.jsonl"
        prom = tmp_path / "m.prom"
        tel.save(trace_path=trace, metrics_path=prom)
        text = render_report(trace)
        assert "sweep" in text and "simulate" in text
        assert "sweep_simulated_total 1" in text
        assert "noc_router_injected_flits_total" in prom.read_text()

    def test_untelemetered_runner_unchanged(self):
        spec = small_spec()
        a = SweepRunner().run([spec])
        b = SweepRunner(telemetry=Telemetry(sample_interval=50)).run([spec])
        assert result_fields(a.results[0]) == result_fields(b.results[0])


class TestProgressOutcomes:
    def test_new_style_callback_sees_failures(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "raise")
        seen = []
        runner = SweepRunner(
            progress=lambda done, total, point, outcome:
                seen.append((done, total, outcome))
        )
        runner.run([small_spec()])
        monkeypatch.delenv(CHAOS_ENV)
        assert seen == [(1, 1, "failed")]

    def test_new_style_callback_outcomes_cached_vs_simulated(self):
        seen = []
        cache = ResultCache()
        specs = [small_spec(rate=r) for r in (0.05, 0.1)]
        runner = SweepRunner(
            cache=cache,
            progress=lambda d, t, p, outcome: seen.append(outcome),
        )
        runner.run(specs)
        runner.run(specs)
        assert seen == ["simulated", "simulated", "cached", "cached"]

    def test_three_argument_callback_raises_type_error(self):
        # one contract: a callback without the outcome parameter fails at
        # its first call, like any callback of the wrong arity
        seen = []
        runner = SweepRunner(
            progress=lambda done, total, point: seen.append(done)
        )
        with pytest.raises(TypeError):
            runner.run([small_spec()])
        assert seen == []

    def test_var_positional_callback_treated_as_new_style(self):
        seen = []
        runner = SweepRunner(progress=lambda *args: seen.append(args))
        runner.run([small_spec()])
        assert seen[0][3] == "simulated"


class TestCacheTelemetry:
    def test_stats_method_snapshot_is_frozen_in_time(self):
        cache = ResultCache()
        cache.put("k", 1)
        snap = cache.stats()
        cache.get("k")
        assert snap.hits == 0 and cache.stats().hits == 1

    def test_corrupt_disk_entry_counted_and_rerun(self, tmp_path):
        first = ResultCache(directory=str(tmp_path))
        first.put("key", {"v": 1})
        path = os.path.join(str(tmp_path), "key.pkl")
        with open(path, "wb") as handle:
            handle.write(b"\x80\x05 this is not a pickle")
        fresh = ResultCache(directory=str(tmp_path))
        assert fresh.get("key") is None  # miss, not an exception
        stats = fresh.stats()
        assert stats.corrupt == 1 and stats.misses == 1
        assert not os.path.exists(path)  # slot freed for rewrite
        fresh.put("key", {"v": 2})
        assert fresh.get("key") == {"v": 2}

    def test_byte_accounting(self, tmp_path):
        writer = ResultCache(directory=str(tmp_path))
        writer.put("key", list(range(100)))
        assert writer.stats().bytes_written > 0
        reader = ResultCache(directory=str(tmp_path))
        reader.get("key")
        assert reader.stats().bytes_read == writer.stats().bytes_written


class TestControllerTelemetry:
    def test_sprint_lifecycle_events_and_gauges(self):
        from repro.cmp import get_profile
        from repro.core.sprinting import RetreatPolicy, SprintController

        tel = Telemetry()
        controller = SprintController(retreat=RetreatPolicy(), telemetry=tel)
        plan = controller.begin_sprint(get_profile("dedup"))
        controller.advance(1000.0)  # drain through every retreat stage
        controller.end_sprint()
        names = [e["name"] for e in tel.tracer.events if e["ev"] == "annot"]
        assert names[0] == "sprint_begin"
        assert "sprint_retreat" in names
        assert tel.metrics.value("sprint_retreats_total") == \
            len(controller.retreat_log)
        assert controller.retreat_log  # the scenario actually retreated
        assert tel.metrics.value("sprint_level") is not None
        headroom = tel.metrics.value("sprint_thermal_headroom")
        assert 0.0 <= headroom <= 1.0
        begin = next(e for e in tel.tracer.events
                     if e.get("name") == "sprint_begin")
        assert begin["attrs"]["level"] == plan.level

    def test_untelemetered_controller_identical(self):
        from repro.cmp import get_profile
        from repro.core.sprinting import RetreatPolicy, SprintController

        plain = SprintController(retreat=RetreatPolicy())
        traced = SprintController(retreat=RetreatPolicy(),
                                  telemetry=Telemetry())
        profile = get_profile("dedup")
        plain.begin_sprint(profile)
        traced.begin_sprint(profile)
        assert plain.advance(5.0) == traced.advance(5.0)
        assert plain.retreat_log == traced.retreat_log
        assert plain.thermal_headroom == traced.thermal_headroom


class TestThermalTelemetry:
    def test_staged_transient_emits_retreats_and_pcm_samples(self):
        from repro.thermal.transient_sprint import SprintTransient

        tel = Telemetry()
        transient = SprintTransient()
        ladder = [[18.0] * 16, [9.0] * 16, [1.5] * 16]
        result = transient.run_staged(ladder, duration_s=6.0, dt_s=5e-3,
                                      telemetry=tel)
        assert result.retreats  # the ladder actually stepped down
        assert tel.metrics.value("thermal_retreats_total") == \
            len(result.retreats)
        retreat_events = [e for e in tel.tracer.events
                          if e.get("name") == "thermal_retreat"]
        assert len(retreat_events) == len(result.retreats)
        samples = [e for e in tel.tracer.events if e["ev"] == "sample"]
        assert samples
        assert {"t", "pcm_temperature_k", "melted_fraction", "phase"} <= \
            set(samples[0]["data"])
        headroom = tel.metrics.value("pcm_thermal_headroom")
        assert 0.0 <= headroom <= 1.0
        end = next(e for e in tel.tracer.events if e["ev"] == "end")
        assert end["attrs"]["retreats"] == len(result.retreats)

    def test_plain_run_span_and_results_unchanged(self):
        from repro.thermal.transient_sprint import SprintTransient

        tel = Telemetry()
        transient = SprintTransient()
        powers = [12.0] * 16
        traced = transient.run(powers, duration_s=2.0, dt_s=5e-3,
                               telemetry=tel)
        plain = transient.run(powers, duration_s=2.0, dt_s=5e-3)
        assert [s.time_s for s in traced.samples] == \
            [s.time_s for s in plain.samples]
        assert traced.peak_die_temperature_k == plain.peak_die_temperature_k
        begin = next(e for e in tel.tracer.events if e["ev"] == "begin")
        assert begin["name"] == "thermal_sprint"
        assert begin["attrs"]["staged"] is False
