"""The public API surface: every advertised name imports and is real."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

PACKAGES = {
    "repro": [
        "NoCConfig", "SystemConfig", "default_config", "CdorRouter",
        "NoCSprintingSystem", "SprintController", "SprintPlan",
        "SprintTopology", "check_deadlock_freedom", "sprint_order",
        "thermal_aware_floorplan", "EvaluationReport", "SimulationSpec",
        "TrafficSpec", "run_simulation", "SweepRunner", "ResultCache",
        "register_backend", "get_backend", "list_backends",
        "Ledger", "RunRecord", "compare_runs",
        "WIRE_VERSION", "WireFormatError", "spec_to_wire", "spec_from_wire",
    ],
    "repro.service": [
        "ExperimentService", "ExperimentServer", "SweepTicket",
        "ClientAccounts", "TokenBucket", "RateLimited", "BudgetExhausted",
        "error_payload", "SERVICE_COUNTER_HELP", "SERVICE_GAUGE_HELP",
    ],
    "repro.telemetry": [
        "Telemetry", "Ledger", "RunRecord", "compare_runs", "Comparison",
        "MetricPolicy",
    ],
    "repro.noc.backends": [
        "SimBackend", "register_backend", "get_backend", "list_backends",
        "ReferenceBackend", "VectorizedBackend",
    ],
    "repro.core": [
        "SprintTopology", "CdorRouter", "LbdrRouter", "Floorplan",
        "SprintController", "SprintScheduler", "NoCSprintingSystem",
        "BypassPlan", "plan_bypass", "co_sprint_regions",
        "fault_aware_topology", "sprint_aware_gating",
    ],
    "repro.noc": [
        "Network", "Router", "Packet", "Flit", "TrafficGenerator",
        "run_simulation", "run_llc_simulation", "zero_load_latency",
        "TraceRecorder", "TraceTraffic", "build_adaptive_table",
        "TimeoutGatingPolicy", "break_even_cycles", "SimBackend",
        "register_backend", "get_backend", "list_backends",
    ],
    "repro.power": [
        "RouterPowerModel", "LinkPowerModel", "ChipPowerModel",
        "network_power", "DvfsPlanner", "burst_energy", "TECH_45NM",
    ],
    "repro.thermal": [
        "ThermalGrid", "ThermalParams", "PCMParams", "sprint_phases",
        "sprint_duration", "SprintTransient", "duration_gain",
    ],
    "repro.cmp": [
        "BenchmarkProfile", "PARSEC_PROFILES", "get_profile",
        "profile_workload", "LlcAccessStream", "OnlineParallelismMonitor",
        "traffic_for_workload",
    ],
    "repro.util": [
        "Coord", "manhattan", "euclidean", "is_discretely_convex",
        "format_table", "stream", "RunningStats",
    ],
}


@pytest.mark.parametrize("module_name", sorted(PACKAGES))
def test_module_exports(module_name):
    module = importlib.import_module(module_name)
    for name in PACKAGES[module_name]:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", sorted(PACKAGES))
def test_all_lists_are_accurate(module_name):
    module = importlib.import_module(module_name)
    if not hasattr(module, "__all__"):
        pytest.skip(f"{module_name} has no __all__")
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_dataclasses_are_frozen_where_promised():
    """Configuration objects must be immutable (shared across the system)."""
    import dataclasses

    from repro.cmp.perf_model import BenchmarkProfile
    from repro.config import NoCConfig, SystemConfig
    from repro.core.floorplanning import Floorplan
    from repro.thermal.grid import ThermalParams
    from repro.thermal.pcm import PCMParams

    for cls in (NoCConfig, SystemConfig, Floorplan, ThermalParams, PCMParams,
                BenchmarkProfile):
        assert dataclasses.fields(cls)  # is a dataclass
        params = getattr(cls, "__dataclass_params__")
        assert params.frozen, f"{cls.__name__} should be frozen"


#: Packages whose re-exports resolve on first access (PEP 562).
LAZY_PACKAGES = ("repro", "repro.core", "repro.noc", "repro.cmp",
                 "repro.power", "repro.thermal", "repro.telemetry")

#: Run in a fresh interpreter with the lazy packages as arguments: the
#: simulator's entry points import neither scipy nor networkx; the
#: thermal grid and the deadlock checker load them on first use.
IMPORT_HYGIENE = """\
import importlib, json, sys

libraries = ("scipy", "networkx")
hidden = {}
for name in sys.argv[1:]:
    pkg = importlib.import_module(name)
    hidden[name] = sorted(set(pkg.__all__) - set(dir(pkg)))
import repro, repro.cli, repro.exec, repro.exec.fabric, repro.noc
import repro.noc.backends.native, repro.service
repro.cli.build_parser()
before = [lib for lib in libraries if lib in sys.modules]
from repro.core import CdorRouter, SprintTopology, check_deadlock_freedom
from repro.thermal import ThermalGrid
peak = ThermalGrid(4, 4).peak_temperature([2.0] * 16)
report = check_deadlock_freedom(CdorRouter(SprintTopology.for_level(4, 4, 8)))
print(json.dumps({
    "hidden": hidden, "before": before, "peak": peak,
    "deadlock": [report.acyclic, report.channel_count, report.dependency_count],
    "after": [lib for lib in libraries if lib in sys.modules],
}))
"""


def test_simulator_imports_load_neither_scipy_nor_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    child = subprocess.run([sys.executable, "-c", IMPORT_HYGIENE, *LAZY_PACKAGES],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    out = json.loads(child.stdout)
    assert out["hidden"] == {name: [] for name in LAZY_PACKAGES}
    assert out["before"] == []
    assert out["peak"] == pytest.approx(325.71296259546995, rel=1e-12)
    assert out["deadlock"] == [True, 20, 22]
    assert out["after"] == ["scipy", "networkx"]
