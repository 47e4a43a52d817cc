"""Tests for the sweep-execution engine: specs, cache, parallel runner."""

import dataclasses
import json
import os
import pickle
import sys
import threading

import pytest

from repro.config import NoCConfig
from repro.core.system import NoCSprintingSystem
from repro.core.topological import SprintTopology
from repro.exec import ResultCache, SweepRunner
from repro.exec import runner as runner_mod
from repro.noc.backends import native
from repro.noc.sim import (
    run_simulation,
    simulate,
    zero_load_cache,
    zero_load_latency,
)
from repro.noc.spec import (
    FaultEvent,
    FaultSchedule,
    SimulationSpec,
    TimeoutGating,
    TrafficSpec,
    stable_key,
)
from repro.noc.traffic import TrafficGenerator
from repro.telemetry import Telemetry
from repro.telemetry.ledger import Ledger

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
    )
    kwargs.update(overrides)
    return SimulationSpec(**kwargs)


def result_fields(result) -> dict:
    """Every scalar field of a SimulationResult (activity compared apart)."""
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name != "activity"
    }


class TestSimulationSpec:
    def test_hashable_and_equal(self):
        assert small_spec() == small_spec()
        assert hash(small_spec()) == hash(small_spec())
        assert small_spec() != small_spec(rate=0.2)

    def test_pickle_round_trip(self):
        spec = small_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert clone.cache_key() == spec.cache_key()

    def test_cache_key_changes_with_any_noc_config_field(self):
        base = small_spec()
        changed = {
            "mesh_width": 5, "mesh_height": 5, "router_pipeline_stages": 4,
            "vcs_per_port": 2, "buffers_per_vc": 8, "packet_length_flits": 3,
            "flit_length_bytes": 32,
        }
        for field, value in changed.items():
            cfg = dataclasses.replace(CFG, **{field: value})
            other = dataclasses.replace(base, config=cfg)
            assert other.cache_key() != base.cache_key(), field

    def test_cache_key_changes_with_run_parameters(self):
        base = small_spec()
        for variant in (
            small_spec(rate=0.11),
            small_spec(seed=1),
            small_spec(level=8),
            small_spec(routing="xy"),
            small_spec(measure_cycles=301),
            small_spec(warmup_cycles=101),
            small_spec(drain_cycles=601),
        ):
            assert variant.cache_key() != base.cache_key()

    def test_cache_key_is_stable_content_hash(self):
        # equal specs built independently share a key (content addressed)
        assert small_spec().cache_key() == small_spec().cache_key()
        assert len(small_spec().cache_key()) == 64  # sha256 hex

    def test_dark_endpoint_rejected(self):
        topo = SprintTopology.for_level(4, 4, 4)
        with pytest.raises(ValueError):
            SimulationSpec(topo, TrafficSpec((0, 15), 0.1, 5))

    def test_traffic_spec_builds_identical_generator(self):
        spec = small_spec()
        built = spec.traffic.build()
        direct = TrafficGenerator(
            list(spec.traffic.endpoints), 0.1, CFG.packet_length_flits,
            "uniform", seed=0,
        )
        for cycle in range(50):
            a = built.packets_for_cycle(cycle, measured=False)
            b = direct.packets_for_cycle(cycle, measured=False)
            assert [(p.source, p.destination) for p in a] == [
                (p.source, p.destination) for p in b
            ]

    def test_run_simulation_accepts_spec(self):
        spec = small_spec()
        assert result_fields(run_simulation(spec)) == result_fields(simulate(spec))

    def test_stable_key_rejects_unhashable_junk(self):
        with pytest.raises(TypeError):
            stable_key(object())


class TestResultCache:
    def test_memory_hit_miss_counters(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", 42)
        assert cache.get("k") == 42
        stats = cache.stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.stores == 1
        assert stats.hit_rate == 0.5

    def test_disk_round_trip_across_instances(self, tmp_path):
        first = ResultCache(directory=str(tmp_path))
        first.put("key", {"value": 7})
        fresh = ResultCache(directory=str(tmp_path))  # a "new process"
        assert fresh.get("key") == {"value": 7}
        assert fresh.stats().disk_hits == 1
        assert "key" in fresh

    def test_clear_keeps_disk_layer(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        cache.put("key", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("key") == 1  # reloaded from disk


class TestSweepRunner:
    def test_results_in_input_order(self):
        specs = [small_spec(rate=r) for r in (0.05, 0.2, 0.1)]
        report = SweepRunner().run(specs)
        for spec, result in zip(specs, report.results):
            assert result.offered_flits_per_cycle == spec.traffic.injection_rate

    def test_parallel_matches_serial_bit_identical(self):
        """Acceptance: workers>1 must equal workers=1 on the Fig. 11 grid."""
        from benchmarks.bench_fig11_synthetic import full_specs, noc_spec

        grid = []
        for rate in (0.05, 0.25):
            grid.append(noc_spec(4, rate))
            grid.extend(full_specs(4, rate))
        serial = SweepRunner(workers=1).run(grid)
        parallel = SweepRunner(workers=2).run(grid)
        for a, b in zip(serial.results, parallel.results):
            assert result_fields(a) == result_fields(b)
            assert {n: vars(r) for n, r in a.activity.routers.items()} == {
                n: vars(r) for n, r in b.activity.routers.items()
            }

    def test_serial_run_hashes_each_point_once(self, monkeypatch):
        """The run computes every point's cache key once, up front; the
        ledger record reuses those keys instead of re-hashing each spec."""
        calls = []
        original = SimulationSpec.cache_key

        def counting(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(SimulationSpec, "cache_key", counting)
        specs = [small_spec(rate=r) for r in (0.05, 0.1, 0.15)]
        report = SweepRunner(workers=1, cache=ResultCache()).run(specs)
        assert report.run_record is not None  # the ledger path ran
        assert len(calls) == len(specs)

    def test_repeat_sweep_is_all_cache_hits(self):
        specs = [small_spec(rate=r) for r in (0.05, 0.1)]
        runner = SweepRunner(cache=ResultCache())
        first = runner.run(specs)
        second = runner.run(specs)
        assert first.cache_hits == 0 and first.simulated == 2
        assert second.cache_hits == 2 and second.simulated == 0
        assert second.hit_rate == 1.0
        assert all(point.cached for point in second.points)
        assert result_fields(first.results[0]) == result_fields(second.results[0])

    def test_duplicate_specs_simulated_once(self):
        spec = small_spec()
        report = SweepRunner().run([spec, spec, spec])
        assert report.simulated == 1
        assert report.deduplicated == 2
        assert len({id(r) for r in report.results}) == 1

    def test_changed_config_field_misses_cache(self):
        runner = SweepRunner(cache=ResultCache())
        runner.run([small_spec()])
        changed = dataclasses.replace(
            small_spec(), config=dataclasses.replace(CFG, buffers_per_vc=8)
        )
        report = runner.run([changed])
        assert report.cache_hits == 0
        assert report.simulated == 1

    def test_summary_mentions_cache_and_timing(self):
        runner = SweepRunner(cache=ResultCache())
        runner.run([small_spec()])
        summary = runner.run([small_spec()]).summary()
        assert "100% hit rate" in summary
        assert "1 points" in summary

    def test_progress_callback_sees_every_point(self):
        seen = []
        runner = SweepRunner(progress=lambda done, total, point, outcome:
                             seen.append((done, total)))
        runner.run([small_spec(rate=r) for r in (0.05, 0.1)])
        assert seen == [(1, 2), (2, 2)]

    def test_progress_assigned_after_construction_gets_its_arity(self):
        # the runner was built without a callback: the 4-argument one
        # assigned later must still be called with its outcome
        seen = []
        runner = SweepRunner(workers=1)
        runner.progress = lambda done, total, point, outcome: seen.append(
            (done, outcome))
        runner.run([small_spec(rate=r) for r in (0.05, 0.1)])
        assert seen == [(1, "simulated"), (2, "simulated")]

    def test_disk_cache_spans_runner_instances(self, tmp_path):
        spec = small_spec()
        SweepRunner(cache=ResultCache(directory=str(tmp_path))).run([spec])
        report = SweepRunner(cache=ResultCache(directory=str(tmp_path))).run([spec])
        assert report.cache_hits == 1 and report.simulated == 0

    def test_resumed_counts_points_read_back_from_disk(self, tmp_path):
        """A sweep's checkpoints are its cached results: a fresh cache on a
        directory an earlier run filled reports the points it reads back
        as resumed, whichever spec list wrote them, and an in-process
        repeat reports its hits as cache hits only."""
        specs = [small_spec(rate=r) for r in (0.05, 0.1, 0.15)]
        cache_dir = tmp_path / "cache"
        SweepRunner(cache=ResultCache(directory=str(cache_dir))).run(specs[:2])
        runner = SweepRunner(cache=ResultCache(directory=str(cache_dir)))
        first = runner.run(specs)
        assert first.resumed == 2 and first.simulated == 1
        assert "resumed: 2 points" in first.summary()
        second = runner.run(specs)
        assert second.resumed == 0 and second.cache_hits == 3
        assert "resumed:" not in second.summary()
        assert sorted(os.listdir(cache_dir)) == sorted(
            f"{spec.cache_key()}.pkl" for spec in specs)

    def test_gated_grid_is_cached_like_any_spec(self, tmp_path):
        """Timeout gating is spec data: each gated point keys apart from
        its ungated twin, and a second runner on the same cache directory
        hits every point and returns equal results, counters included."""
        specs = [small_spec(level=16, rate=rate, gating=TimeoutGating(timeout))
                 for rate in (0.02, 0.1) for timeout in (8, 32)]
        keys = {spec.cache_key() for spec in specs}
        assert len(keys) == len(specs)
        assert small_spec(level=16, rate=0.02).cache_key() not in keys
        first = SweepRunner(cache=ResultCache(directory=str(tmp_path))).run(specs)
        second = SweepRunner(cache=ResultCache(directory=str(tmp_path))).run(specs)
        assert first.simulated == len(specs)
        assert second.cache_hits == len(specs) and second.simulated == 0
        assert second.results == first.results
        assert all(result.gating.gate_events > 0 for result in second.results)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)


def kernel_grid(seeds=(0,)) -> list[SimulationSpec]:
    """The Fig. 9 grid at each of ``seeds`` plus a faulted, a gated and a
    west-first point, all on the C kernel."""
    from benchmarks.bench_fig09_network_latency import paired_specs

    fig9 = paired_specs()[1]
    extra = [
        small_spec(level=16, rate=0.25, seed=5, faults=FaultSchedule(
            (FaultEvent(cycle=200, node=5),))),
        small_spec(level=16, rate=0.1, gating=TimeoutGating(16)),
        small_spec(level=16, rate=0.2, routing="west_first"),
    ]
    return [spec.with_seed(seed).with_backend("vectorized")
            for seed in seeds for spec in fig9] + [
        spec.with_backend("vectorized") for spec in extra]


def allow_cpus(monkeypatch, count: int) -> None:
    """Let the runner see ``count`` usable CPUs."""
    monkeypatch.setattr(runner_mod, "_cpu_count", lambda: count)


def span_tree(events) -> dict:
    """Span id -> name, parent and attributes, with timings and event
    order left out; samples are kept per span."""
    spans, samples = {}, {}
    for event in events:
        if event["ev"] == "begin":
            spans[event["id"]] = {"name": event["name"],
                                  "parent": event["parent"],
                                  "attrs": event["attrs"]}
        elif event["ev"] == "end":
            attrs = dict(event["attrs"])
            attrs.pop("sim_seconds", None)
            spans[event["id"]]["end"] = attrs
        elif event["ev"] == "sample":
            samples.setdefault(event["span"], []).append(
                json.dumps(event["data"], sort_keys=True))
    for span_id, found in samples.items():
        spans[span_id]["samples"] = sorted(found)
    return spans


def ledger_body(record) -> dict:
    """A RunRecord without its timings (and the id that hashes them)."""
    body = record.to_json()
    for name in ("run_id", "ts", "wall_s", "cpu_s"):
        del body[name]
    if body["metrics"] is not None:
        body["metrics"] = [metric for metric in body["metrics"]["metrics"]
                           if metric[0] != "sweep_point_sim_seconds"]
    return body


class TestInProcessThreads:
    """Kernel points overlap on threads; nothing else a run shows moves."""

    @pytest.fixture(autouse=True)
    def _needs_kernel(self):
        if not native.available():
            pytest.skip("the C kernel is not available")

    def test_threads_match_one_cpu_under_stress(self, monkeypatch):
        """More threads than cores, a thread switch every microsecond:
        results, keys and point order equal the one-CPU run's."""
        specs = kernel_grid(seeds=(0, 1, 2, 3))
        specs.append(specs[0])  # a duplicate is served, not re-simulated

        def run(cpus):
            allow_cpus(monkeypatch, cpus)
            return SweepRunner(telemetry=Telemetry(sample_interval=200)).run(specs)

        serial = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run(6)
        finally:
            sys.setswitchinterval(interval)
        assert (serial.threads, threaded.threads) == (1, 6)
        assert threaded.ok and threaded.simulated == len(specs) - 1
        assert [p.index for p in threaded.points] == list(range(len(specs)))
        assert [p.key for p in threaded.points] == [p.key for p in serial.points]
        assert [p.cached for p in threaded.points] == [p.cached for p in serial.points]
        assert threaded.results == serial.results
        assert "(in-process, 6 threads)" in threaded.summary()
        assert "(in-process, 1 thread)" in serial.summary()

    def test_kernel_grid_runs_attempts_on_pool_threads(self, monkeypatch):
        idents = []
        second = threading.Event()
        guarded = runner_mod._simulate_guarded

        def spy(spec, tel_ctx, chaos, attempt):
            idents.append(threading.get_ident())
            if len(idents) == 1:
                second.wait(10)  # held until another attempt starts
            else:
                second.set()
            return guarded(spec, tel_ctx, chaos, attempt)

        monkeypatch.setattr(runner_mod, "_simulate_guarded", spy)
        allow_cpus(monkeypatch, 2)
        report = SweepRunner().run(kernel_grid())
        assert report.ok and report.threads == 2
        assert len(set(idents)) == 2
        assert threading.get_ident() not in idents

    def test_reference_grid_runs_on_the_calling_thread(self, monkeypatch):
        """The reference engine holds the GIL: threads would only slow it."""
        idents = []
        guarded = runner_mod._simulate_guarded

        def spy(spec, tel_ctx, chaos, attempt):
            idents.append(threading.get_ident())
            return guarded(spec, tel_ctx, chaos, attempt)

        monkeypatch.setattr(runner_mod, "_simulate_guarded", spy)
        allow_cpus(monkeypatch, 2)
        specs = [small_spec(rate=r) for r in (0.05, 0.1, 0.15)]
        specs.append(small_spec(rate=0.2).with_backend("vectorized"))
        report = SweepRunner().run(specs)
        assert report.ok and report.threads == 1
        assert idents == [threading.get_ident()] * len(specs)

    def test_run_is_observed_as_on_one_cpu(self, monkeypatch, tmp_path):
        """Progress calls, cache puts, the ledger record and the span tree
        are the one-CPU run's, a retried and failed point included."""
        from repro.exec.runner import CHAOS_ENV

        specs = kernel_grid()
        coins = sorted(int(spec.cache_key()[:8], 16) / 0xFFFFFFFF
                       for spec in specs)
        monkeypatch.setenv(CHAOS_ENV, f"raise:{(coins[0] + coins[1]) / 2}")

        def observe(cpus):
            allow_cpus(monkeypatch, cpus)
            progress, puts = [], []
            cache = ResultCache()
            put = cache.put
            cache.put = lambda key, value: (puts.append(key), put(key, value))
            tel = Telemetry(sample_interval=200)
            report = SweepRunner(
                cache=cache, telemetry=tel, max_retries=1,
                ledger=Ledger(directory=tmp_path / f"ledger-{cpus}"),
                progress=lambda done, total, point, outcome: progress.append(
                    (done, point.index, outcome)),
            ).run(specs)
            assert report.threads == cpus
            assert [f.attempts for f in report.failures] == [2]
            return (progress, puts, ledger_body(report.run_record),
                    span_tree(tel.tracer.events))

        assert observe(2) == observe(1)

    def test_cold_imports_load_no_thread_pool(self):
        """The pool module is imported by the threaded branch alone."""
        import subprocess

        probe = ("import sys, repro.cli, repro.exec.runner; "
                 "print('concurrent.futures' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        child = subprocess.run([sys.executable, "-c", probe], env=env,
                               capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "False"

    def test_stop_from_the_first_progress_call_drains(self, monkeypatch):
        """A stop ends submission; the window in flight is checkpointed
        and a rerun on the same cache completes the rest."""
        allow_cpus(monkeypatch, 2)
        specs = kernel_grid()
        cache = ResultCache()
        runner = SweepRunner(cache=cache)
        runner.progress = lambda *_: runner.request_stop()
        first = runner.run(specs)
        assert first.interrupted
        assert 0 < len(first.points) < len(specs)
        assert "INTERRUPTED" in first.summary()
        rest = SweepRunner(cache=cache).run(specs)
        assert rest.ok and not rest.interrupted
        assert rest.cache_hits == len(first.points)
        assert rest.simulated == len(specs) - len(first.points)


class TestZeroLoadMemo:
    def test_memoized_per_topology_config_routing(self):
        topo = SprintTopology.for_level(4, 4, 6)
        before = zero_load_cache().stats()
        first = zero_load_latency(topo, CFG, "cdor")
        second = zero_load_latency(topo, CFG, "cdor")
        after = zero_load_cache().stats()
        assert first == second
        assert after.hits > before.hits
        # the memo keys on (topology, config, routing) alone
        key = stable_key(("zero_load_latency", topo, CFG, "cdor"))
        assert zero_load_cache().get(key) == first

    def test_distinct_configs_get_distinct_entries(self):
        topo = SprintTopology.for_level(4, 4, 6)
        deeper = dataclasses.replace(CFG, router_pipeline_stages=7)
        assert zero_load_latency(topo, deeper) > zero_load_latency(topo, CFG)


class TestSystemIntegration:
    def test_evaluate_network_served_from_cache_on_repeat(self):
        system = NoCSprintingSystem()
        first = system.evaluate("dedup", "noc_sprinting", simulate_network=True,
                                warmup_cycles=100, measure_cycles=300).network
        stores = system.cache.stats().stores
        second = system.evaluate("dedup", "noc_sprinting", simulate_network=True,
                                 warmup_cycles=100, measure_cycles=300).network
        assert system.cache.stats().stores == stores  # nothing re-simulated
        assert result_fields(first.sim) == result_fields(second.sim)

    def test_simulation_spec_matches_evaluate_network(self):
        system = NoCSprintingSystem()
        spec = system.simulation_spec("dedup", "noc_sprinting",
                                      warmup_cycles=100, measure_cycles=300)
        via_system = system.evaluate("dedup", "noc_sprinting", simulate_network=True,
                                     warmup_cycles=100, measure_cycles=300).network
        assert result_fields(simulate(spec)) == result_fields(via_system.sim)

    def test_shared_cache_across_systems(self):
        cache = ResultCache()
        a = NoCSprintingSystem(cache=cache)
        b = NoCSprintingSystem(cache=cache)
        a.evaluate("dedup", "noc_sprinting", simulate_network=True,
                   warmup_cycles=100, measure_cycles=300)
        stores = cache.stats().stores
        b.evaluate("dedup", "noc_sprinting", simulate_network=True,
                   warmup_cycles=100, measure_cycles=300)
        assert cache.stats().stores == stores


class TestEvaluateFailure:
    def test_failing_simulation_raises_its_own_error(self, monkeypatch):
        from repro.noc.backends.reference import ReferenceBackend

        def boom(self, spec, *, telemetry=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(ReferenceBackend, "run", boom)
        system = NoCSprintingSystem()
        with pytest.raises(RuntimeError, match="boom"):
            system.evaluate("dedup", "noc_sprinting", simulate_network=True,
                            warmup_cycles=100, measure_cycles=300)
        assert len(system.cache) == 0  # a failure is not cached
