"""The benchmark's own tests.

    python3 -m pytest perfbench -q

They check that inputs are a pure function of the seed, that serve-mixed
phases never share a new key, that every emitted metric is declared in
BENCHMARK.json, that host-speed scaling leaves a quiet host's figures
alone, and that traced self times add up to the traced wall.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))


def _keys(requests):
    return [[spec.cache_key() for spec in specs] for specs in requests]


def _client_requests(seed, phase, n):
    stream = wl.ClientStream(seed, phase)
    return [stream.next() for _ in range(n)]


# ----------------------------------------------------------------------
# inputs are a pure function of the seed
# ----------------------------------------------------------------------
def test_traffic_seed_streams_are_deterministic():
    def first(seed, salt):
        stream = wl.traffic_seeds(seed, salt)
        return [next(stream) for _ in range(20)]

    assert first(3, "a") == first(3, "a")
    assert first(3, "a") != first(4, "a")
    assert first(3, "a") != first(3, "b")


def test_fig9_requests_are_deterministic():
    one, two = wl.Fig9Serial(5), wl.Fig9Serial(5)
    one.load_grid()
    two.load_grid()
    seeds_one = wl.traffic_seeds(5, "Fig9Serial")
    seeds_two = wl.traffic_seeds(5, "Fig9Serial")
    for _ in range(3):
        a = _keys(one.pass_requests(next(seeds_one)))
        b = _keys(two.pass_requests(next(seeds_two)))
        assert a == b
        points = 24 * wl.FIG9_SEEDS_PER_REQUEST
        assert len(a) == 1 and len(a[0]) == points and len(set(a[0])) == points


def test_saturation_grid_is_deterministic():
    grid = wl.saturation_grid(11)
    assert len(grid) == 15
    assert sum(len(specs) for specs in grid) == 69
    assert _keys(grid) == _keys(wl.saturation_grid(11))
    assert _keys(grid) != _keys(wl.saturation_grid(12))


def test_client_streams_are_deterministic():
    a = _client_requests(7, 1, 200)
    b = _client_requests(7, 1, 200)
    assert [body for _, body in a] == [body for _, body in b]
    assert [s.cache_key() for s, _ in a] == [s.cache_key() for s, _ in b]
    other = _client_requests(8, 1, 200)
    assert [body for _, body in other] != [body for _, body in a]


def test_client_streams_never_share_a_new_key():
    new_keys: dict[str, int] = {}
    for phase in range(4):
        seen: list[str] = []
        repeats = 0
        for spec, body in _client_requests(9, phase, 300):
            key = spec.cache_key()
            assert json.loads(body) == spec.to_wire()
            if key in seen:
                repeats += 1  # a repeat of this phase's own request
                continue
            # a new key: never drawn by another phase
            assert key not in new_keys, (key, new_keys[key], phase)
            new_keys[key] = phase
            seen.append(key)
        assert 0.3 < repeats / 300 < 0.5


# ----------------------------------------------------------------------
# metric declarations
# ----------------------------------------------------------------------
def test_every_emitted_metric_is_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for section, emitted in (("end_to_end", run.END_TO_END),
                             ("per_layer", run.PER_LAYER)):
        entries = {entry["name"]: entry for entry in declared[section]}
        assert set(entries) == set(emitted), section
        for name, unit in emitted.items():
            assert entries[name]["unit"] == unit, name
            assert entries[name]["better"] in ("higher", "lower"), name
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert set(layers.SELF_TIME_METRIC.values()) <= set(run.PER_LAYER)


# ----------------------------------------------------------------------
# host-speed scaling
# ----------------------------------------------------------------------
class _FixedHost(wl.HostSpeed):
    """Calibration loops that read as given, instead of being timed."""

    def __init__(self, readings):
        super().__init__()
        self._readings = iter(readings)

    def loop_s(self):
        return next(self._readings)


def test_host_scale_brackets_the_work_with_two_readings():
    ref = wl.CALIBRATION_REFERENCE_S
    host = _FixedHost([ref, ref, 2 * ref, 2 * ref])
    assert host.scale() == pytest.approx(1.0)
    assert host.scale() == pytest.approx(1.0)
    assert host.scale() == pytest.approx(1 / 1.5)  # slowed during the work
    assert host.scale() == pytest.approx(0.5)


def test_scaled_metrics_on_a_quiet_host_are_the_plain_figures():
    phase = wl.Phase(latencies=[0.1, 0.2, 0.3, 0.4], scales=[1.0] * 4,
                     points=40, requests=4)
    metrics = wl.scaled_metrics(phase)
    assert metrics["points_per_s"] == pytest.approx(40.0)
    assert metrics["requests_per_s"] == pytest.approx(4.0)
    assert metrics["request_p50_ms"] == pytest.approx(250.0)
    # the same work on a host twice as slow reads the same
    slow = wl.Phase(latencies=[0.2, 0.4, 0.6, 0.8], scales=[0.5] * 4,
                    points=40, requests=4)
    assert wl.scaled_metrics(slow) == pytest.approx(metrics)


def test_host_speed_loop_reads_near_the_reference():
    # a loose check that the constant still matches the loop it describes
    assert 0.1 < wl.CALIBRATION_REFERENCE_S / wl.HostSpeed().loop_s() < 3.0


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
def test_self_times_partition_the_root_across_threads():
    trace = layers.LayerTrace()
    root = trace.root("request", client="c")
    time.sleep(0.01)

    def server():
        submit = trace.begin("service.submit", parent=root)
        inner = trace.begin("cache.get")
        time.sleep(0.01)
        trace.end(inner)
        trace.end(submit)

    thread = threading.Thread(target=server)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive()
    time.sleep(0.01)
    trace.end_root(root, client="c")
    totals, wall = layers.self_times(trace.roots)
    assert sum(totals.values()) == pytest.approx(wall, rel=1e-9)
    assert totals["cache.get"] >= 0.009
    assert totals["request"] >= 0.019


def test_wrappers_are_removed_after_a_traced_pass():
    original = wl.SweepRunner.__dict__["run"]
    with layers.LayerTrace():
        assert wl.SweepRunner.__dict__["run"] is not original
    assert wl.SweepRunner.__dict__["run"] is original
    assert not isinstance(wl.native._lib, layers._KernelProxy)


def test_traced_sweep_pass_adds_up_to_its_wall():
    bench = wl.SaturationSerial(3)
    requests = [specs[:2] for specs in wl.saturation_grid(3)[:3]]
    trace = layers.LayerTrace()
    with trace:
        phase = bench.run_pass(requests, wl.HostSpeed(), trace=trace)
    assert phase.failed == 0 and phase.points == 6
    metrics = trace.metrics(phase.attempted)
    self_ms = sum(metrics.get(name, 0.0)
                  for name in set(layers.SELF_TIME_METRIC.values()))
    assert self_ms == pytest.approx(metrics["trace.wall_ms"], rel=wl.TRACE_MARGIN)
    assert metrics["other.ms"] > 0
    assert metrics["kernel.calls_per_point"] >= 1
    assert 0 < metrics["traffic.useful_ratio"] <= 1


def test_traced_service_phase_adds_up_to_its_wall(tmp_path):
    bench = wl.ServeMixed(4, str(tmp_path))
    server = wl.start_server(str(tmp_path / "cache"))
    trace = layers.LayerTrace()
    try:
        with trace:
            phase = bench.phase(server, 1, count=30, trace=trace)
    finally:
        server.stop()
    bench.check(phase)
    assert phase.failed == 0, phase.problems
    assert phase.requests == 30
    assert trace.coverage() == pytest.approx(1.0, abs=wl.TRACE_MARGIN)
    metrics = trace.metrics(phase.attempted)
    for name in ("service.submit_ms", "service.wait_ms", "service.http_ms",
                 "spec.from_wire_ms", "cache.claim_ms", "cache.put_ms",
                 "ledger.append_ms", "kernel.ms"):
        assert metrics[name] > 0, name
