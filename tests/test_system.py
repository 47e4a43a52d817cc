"""Tests for the end-to-end NoCSprintingSystem facade."""

import pytest

from repro.cmp.workloads import all_profiles, get_profile
from repro.core.system import SCHEMES, NoCSprintingSystem


@pytest.fixture(scope="module")
def system():
    return NoCSprintingSystem()


class TestSchemeLevels:
    def test_non_sprinting_one_core(self, system):
        assert system.scheme_level(get_profile("dedup"), "non_sprinting") == 1

    def test_full_sprinting_all_cores(self, system):
        assert system.scheme_level(get_profile("dedup"), "full_sprinting") == 16

    def test_fine_grained_uses_optimum(self, system):
        assert system.scheme_level(get_profile("dedup"), "noc_sprinting") == 4
        assert system.scheme_level(get_profile("dedup"), "naive_fine_grained") == 4

    def test_unknown_scheme(self, system):
        with pytest.raises(ValueError):
            system.scheme_level(get_profile("dedup"), "overdrive")


class TestPerformance:
    def test_speedup_is_inverse_time(self, system):
        row = system.evaluate("dedup", "noc_sprinting")
        assert row.speedup == pytest.approx(1 / row.relative_time)

    def test_non_sprinting_baseline(self, system):
        assert system.evaluate("dedup", "non_sprinting").relative_time == 1.0

    def test_fig7_noc_beats_full_on_average(self, system):
        noc = [system.evaluate(p, "noc_sprinting").speedup for p in all_profiles()]
        full = [system.evaluate(p, "full_sprinting").speedup for p in all_profiles()]
        assert sum(noc) / 13 > sum(full) / 13
        assert sum(noc) / 13 == pytest.approx(3.6, abs=0.25)
        assert sum(full) / 13 == pytest.approx(1.9, abs=0.25)


class TestPower:
    def test_core_power_ordering(self, system):
        """Figure 8 per-benchmark ordering: noc < naive < full for any
        workload whose optimum is not full sprint."""
        for p in all_profiles():
            if p.optimal_level() == 16:
                continue
            noc = system.evaluate(p, "noc_sprinting").core_power_w
            naive = system.evaluate(p, "naive_fine_grained").core_power_w
            full = system.evaluate(p, "full_sprinting").core_power_w
            assert noc < naive < full, p.name

    def test_scalable_benchmarks_no_gating_headroom(self, system):
        """blackscholes/bodytrack sprint on all 16 cores, leaving no room
        for power gating (the paper's exception in Figure 8)."""
        for name in ("blackscholes", "bodytrack"):
            assert system.evaluate(name, "noc_sprinting").core_power_w == pytest.approx(
                system.evaluate(name, "full_sprinting").core_power_w
            )

    def test_chip_power_noc_component_gated(self, system):
        noc = system.evaluate("dedup", "noc_sprinting").chip_power
        full = system.evaluate("dedup", "full_sprinting").chip_power
        assert noc.noc == pytest.approx(full.noc * 4 / 16)

    def test_nominal_chip_power(self, system):
        report = system.evaluate("dedup", "non_sprinting").chip_power
        assert report.share("noc") == pytest.approx(0.35, abs=0.03)


class TestNetwork:
    def test_noc_sprinting_fewer_routers(self, system):
        noc = system.evaluate("dedup", "noc_sprinting", simulate_network=True,
                              warmup_cycles=200, measure_cycles=600).network
        full = system.evaluate("dedup", "full_sprinting", simulate_network=True,
                               warmup_cycles=200, measure_cycles=600).network
        assert noc.power.powered_router_count == 4
        assert full.power.powered_router_count == 16
        assert noc.avg_latency < full.avg_latency
        assert noc.total_power_w < full.total_power_w

    def test_topology_for_schemes(self, system):
        profile = get_profile("dedup")
        assert system.topology_for(profile, "noc_sprinting").level == 4
        assert system.topology_for(profile, "naive_fine_grained").level == 16
        assert system.topology_for(profile, "full_sprinting").level == 16


class TestThermalAndDuration:
    def test_fig12_ordering(self, system):
        def peak(scheme, floorplanned):
            return system.evaluate("dedup", scheme, thermal=True,
                                   floorplanned=floorplanned).peak_temperature_k

        full = peak("full_sprinting", False)
        cluster = peak("noc_sprinting", False)
        planned = peak("noc_sprinting", True)
        assert full > cluster > planned
        assert full == pytest.approx(358.3, abs=1.5)
        assert cluster == pytest.approx(347.79, abs=1.5)
        assert planned == pytest.approx(343.81, abs=1.5)

    def test_duration_gain_bounds(self, system):
        for p in all_profiles():
            gain = system.sprint_duration_gain(p)
            assert gain >= 1.0
        assert system.sprint_duration_gain("blackscholes") == 1.0
        assert system.sprint_duration_gain("dedup") > 1.0


class TestEvaluate:
    def test_full_row(self, system):
        row = system.evaluate("dedup", "noc_sprinting",
                              simulate_network=True, thermal=True)
        assert row.benchmark == "dedup"
        assert row.level == 4
        assert row.network is not None
        assert row.peak_temperature_k is not None
        assert row.sprint_duration_s is not None

    def test_minimal_row_fast(self, system):
        row = system.evaluate("vips", "full_sprinting")
        assert row.network is None
        assert row.peak_temperature_k is None
        assert row.sprint_duration_s is None

    def test_all_schemes_enumerable(self, system):
        for scheme in SCHEMES:
            row = system.evaluate("x264", scheme)
            assert row.scheme == scheme

    def test_profile_object_accepted(self, system):
        row = system.evaluate(get_profile("ferret"), "noc_sprinting")
        assert row.benchmark == "ferret"

    def test_floorplanned_system(self):
        system = NoCSprintingSystem(use_floorplan=True)
        assert system.floorplan is not None
        row = system.evaluate("dedup", "noc_sprinting", thermal=True)
        assert row.peak_temperature_k == pytest.approx(343.81, abs=1.5)

