"""Tests for the sweep-execution engine: specs, cache, parallel runner."""

import dataclasses
import os
import pickle

import pytest

from repro.config import NoCConfig
from repro.core.system import NoCSprintingSystem
from repro.core.topological import SprintTopology
from repro.exec import ResultCache, SweepRunner
from repro.noc.sim import (
    run_simulation,
    simulate,
    zero_load_cache,
    zero_load_latency,
)
from repro.noc.spec import SimulationSpec, TimeoutGating, TrafficSpec, stable_key
from repro.noc.traffic import TrafficGenerator

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
