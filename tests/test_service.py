"""The experiment service: wire format, singleflight claims, HTTP API.

Three layers under test:

1. the **versioned wire codec** -- ``from_wire(to_wire(spec))`` is the
   identity, cache keys survive a JSON round trip bit-for-bit, and the
   golden corpus in ``tests/data/spec_v1.json`` pins the v1 schema so
   accidental canonicalization drift fails loudly;
2. the **singleflight primitive** -- :meth:`ResultCache.get_or_begin`
   hands the claim for each key to exactly one caller under thread and
   cross-instance (claim-file) contention;
3. the **HTTP front door** -- a real server in a thread: batch submit,
   coalescing (N concurrent identical specs -> one simulation), rate
   limiting (429), budget refusal (402), malformed wire payloads (400),
   and ledger-backed retrieval after the cache is lost.
"""

import http.client
import json
import os
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.config import NoCConfig
from repro.core.system import EvaluationReport
from repro.core.topological import SprintTopology
from repro.exec.cache import ResultCache
from repro.noc.spec import (
    FaultEvent,
    FaultSchedule,
    SimulationSpec,
    TimeoutGating,
    TrafficSpec,
    WireFormatError,
    spec_from_wire,
    spec_to_wire,
)
from repro.power.chip_power import ChipPowerReport
from repro.service import (
    BudgetExhausted,
    ClientAccounts,
    ExperimentServer,
    ExperimentService,
    RateLimited,
    error_payload,
)
from repro.telemetry.ledger import Ledger

CFG = NoCConfig()
DATA_DIR = Path(__file__).parent / "data"


def make_spec(level=4, rate=0.05, pattern="uniform", seed=0,
              warmup=50, measure=200, drain=1000, **kwargs):
    topo = SprintTopology.for_level(4, 4, level)
    traffic = TrafficSpec(tuple(topo.active_nodes), rate,
                          CFG.packet_length_flits, pattern=pattern, seed=seed)
    return SimulationSpec(topo, traffic, CFG, warmup_cycles=warmup,
                          measure_cycles=measure, drain_cycles=drain,
                          **kwargs)


def spec_corpus():
    """A representative slice of every shape the spec tree can take."""
    return [
        make_spec(),
        make_spec(level=6, rate=0.25, pattern="tornado", seed=3),
        make_spec(pattern="hotspot"),
        make_spec(backend="vectorized"),
        make_spec(backend="auto"),
        make_spec(faults=FaultSchedule(events=(
            FaultEvent(cycle=60, kind="router", node=5),
            FaultEvent(cycle=80, kind="link", link=(1, 2), duration=40),
        ))),
        make_spec(level=16, gating=TimeoutGating(16, frozenset({0, 5}))),
    ]


# ----------------------------------------------------------------------
# 1. the wire codec
# ----------------------------------------------------------------------
class TestWireFormat:
    def test_round_trip_is_identity(self):
        for spec in spec_corpus():
            assert spec_from_wire(spec_to_wire(spec)) == spec

    def test_cache_key_survives_json_round_trip(self):
        for spec in spec_corpus():
            blob = json.dumps(spec_to_wire(spec), sort_keys=True)
            revived = spec_from_wire(json.loads(blob))
            assert revived.cache_key() == spec.cache_key()

    def test_method_and_function_forms_agree(self):
        spec = make_spec()
        assert spec.to_wire() == spec_to_wire(spec)
        assert SimulationSpec.from_wire(spec.to_wire()) == spec

    def test_golden_corpus_pins_v1_schema(self):
        """Decoding the committed corpus must reproduce its cache keys.

        A failure here means the canonicalization drifted: existing
        cache entries and ledger records would silently stop resolving.
        Bump WIRE_VERSION, never regenerate this file in place.
        """
        doc = json.loads((DATA_DIR / "spec_v1.json").read_text())
        assert doc["cases"], "golden corpus is empty"
        for case in doc["cases"]:
            spec = spec_from_wire(case["wire"])
            assert spec.cache_key() == case["cache_key"]
            # re-encoding reproduces the committed document bit-for-bit
            assert (json.dumps(spec_to_wire(spec), sort_keys=True)
                    == json.dumps(case["wire"], sort_keys=True))

    @pytest.mark.parametrize("payload,code", [
        ("not a dict", "schema"),
        ({"v": 99, "spec": {}}, "version"),
        ({"spec": {}}, "version"),
        ({"v": 1, "kind": "evaluation_report", "spec": {}}, "schema"),
        ({"v": 1, "spec": []}, "schema"),
        ({"v": 1, "spec": {"__class__": "Rogue"}}, "schema"),
    ])
    def test_malformed_payloads_fail_loudly(self, payload, code):
        with pytest.raises(WireFormatError) as exc:
            spec_from_wire(payload)
        assert exc.value.code == code

    def test_unknown_field_is_schema_drift_not_a_silent_drop(self):
        wire = make_spec().to_wire()
        wire["spec"]["frobnication"] = 1
        with pytest.raises(WireFormatError, match="frobnication"):
            spec_from_wire(wire)

    def test_invalid_values_surface_as_value_errors(self):
        wire = make_spec().to_wire()
        wire["spec"]["measure_cycles"] = 0
        with pytest.raises(WireFormatError) as exc:
            spec_from_wire(wire)
        assert exc.value.code == "value"

    def test_report_to_wire_is_json_ready(self):
        report = EvaluationReport(
            benchmark="dedup", scheme="noc_sprinting", level=4,
            relative_time=0.5, speedup=2.0, core_power_w=40.0,
            chip_power=ChipPowerReport(cores=30.0, l2=4.0,
                                       memory_controllers=3.0, noc=2.0,
                                       others=1.0),
        )
        doc = json.loads(json.dumps(report.to_wire()))
        assert doc["v"] == 1 and doc["kind"] == "evaluation_report"
        assert doc["report"]["chip_power"]["total"] == pytest.approx(40.0)
        assert doc["report"]["network"] is None


# ----------------------------------------------------------------------
# 2. the singleflight primitive
# ----------------------------------------------------------------------
class TestGetOrBegin:
    def test_hit_returns_value_without_claim(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        cache.put("k", 42)
        value, claim = cache.get_or_begin("k")
        assert value == 42 and claim is None

    def test_miss_wins_claim_and_blocks_rivals(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        value, claim = cache.get_or_begin("k")
        assert value is None and claim is not None
        assert cache.has_claim("k")
        again = cache.get_or_begin("k")
        assert again == (None, None)
        claim.complete(7)
        assert not cache.has_claim("k")
        assert cache.get_or_begin("k") == (7, None)

    def test_abandon_lets_another_claimant_retry(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        _, claim = cache.get_or_begin("k")
        claim.abandon()
        value, retry = cache.get_or_begin("k")
        assert value is None and retry is not None
        retry.release()

    def test_memory_only_cache_arbitrates_across_threads(self):
        cache = ResultCache()
        _, claim = cache.get_or_begin("k")
        assert claim is not None
        assert cache.get_or_begin("k") == (None, None)
        claim.complete("done")
        assert cache.get_or_begin("k") == ("done", None)

    def test_claim_file_arbitrates_across_instances(self, tmp_path):
        """Two ResultCache objects on one directory model two processes."""
        a = ResultCache(directory=str(tmp_path))
        b = ResultCache(directory=str(tmp_path))
        _, claim = a.get_or_begin("k")
        assert claim is not None
        assert b.get_or_begin("k") == (None, None)
        claim.complete(9)
        assert b.get_or_begin("k") == (9, None)

    def test_stale_claim_is_taken_over(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        _, claim = cache.get_or_begin("k")
        assert claim is not None
        # model a crashed holder: age the claim file past the ttl
        path = cache._claim_path("k")
        old = os.path.getmtime(path) - 10_000
        os.utime(path, (old, old))
        cache._claims.discard("k")  # the "crash" took the memory state too
        value, takeover = cache.get_or_begin("k", claim_ttl_s=60.0)
        assert value is None and takeover is not None
        takeover.complete(1)
        assert cache.get("k") == 1

    def test_hammer_exactly_one_winner_per_key(self, tmp_path):
        """The race the primitive exists for: many threads, two instances,
        one directory -- every key must get exactly one claim."""
        caches = [ResultCache(directory=str(tmp_path)) for _ in range(2)]
        keys = [f"key{i}" for i in range(8)]
        wins = []
        wins_lock = threading.Lock()
        barrier = threading.Barrier(16)

        def contend(cache, worker):
            barrier.wait()
            for key in keys:
                value, claim = cache.get_or_begin(key)
                if claim is not None:
                    with wins_lock:
                        wins.append((key, worker))
                    claim.complete(f"{key}-by-{worker}")

        threads = [
            threading.Thread(target=contend, args=(caches[i % 2], i))
            for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        won_keys = [key for key, _ in wins]
        assert sorted(won_keys) == sorted(set(won_keys)), (
            f"duplicate claim winners: {wins}")
        # every claim completed and released
        for cache in caches:
            for key in keys:
                assert not cache.has_claim(key)


class TestServiceSingleflight:
    def test_same_process_claim_losers_join_the_winner(self, tmp_path,
                                                       monkeypatch):
        """Threads submitting one new key at the same instant all wake on
        the one simulation: a claim loser must never replace the winner's
        in-flight entry (which would strand the winner's waiters until
        their timeout)."""
        service = ExperimentService(
            cache=ResultCache(), workers=1,
            ledger=Ledger(directory=str(tmp_path / "ledger")),
        )
        # widen the race window: every claimant is slow to claim, so all
        # of them pass the in-flight check before anyone inserts, and a
        # loser comes back later still, while the winner's batch runs
        get_or_begin = service.cache.get_or_begin

        def slow_claim(key, **kwargs):
            time.sleep(0.1)
            value, claim = get_or_begin(key, **kwargs)
            if value is None and claim is None:
                time.sleep(0.2)
            return value, claim

        execute_batch = service._execute_batch

        def slow_batch(*args):
            time.sleep(0.5)
            execute_batch(*args)

        monkeypatch.setattr(service.cache, "get_or_begin", slow_claim)
        monkeypatch.setattr(service, "_execute_batch", slow_batch)

        wire = spec_to_wire(make_spec(seed=91))
        key = spec_from_wire(wire).cache_key()
        threads_n, timeout_s = 6, 10.0
        barrier = threading.Barrier(threads_n)
        outcomes = []
        lock = threading.Lock()

        def submit_and_wait():
            barrier.wait()
            start = time.monotonic()
            service.submit([wire], client="racer")
            value = service.wait(key, timeout_s=timeout_s)
            with lock:
                outcomes.append((value, time.monotonic() - start))

        threads = [threading.Thread(target=submit_and_wait)
                   for _ in range(threads_n)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            service.close()
        assert len(outcomes) == threads_n
        assert all(value is not None for value, _ in outcomes)
        slowest = max(elapsed for _, elapsed in outcomes)
        assert slowest < timeout_s / 2, f"a waiter was stranded ({slowest:.1f} s)"
        assert service.counter_value("service_simulations_total") == 1

    def test_failed_spec_is_simulated_again_when_resubmitted(self, tmp_path,
                                                             monkeypatch):
        """A failure is not a result: resubmitting a spec whose attempts
        failed runs it afresh on a new private fabric queue."""
        service = ExperimentService(
            cache=ResultCache(directory=str(tmp_path / "cache")), workers=2,
            ledger=Ledger(directory=str(tmp_path / "ledger")),
        )
        wire = spec_to_wire(make_spec(seed=92))
        key = spec_from_wire(wire).cache_key()
        try:
            monkeypatch.setenv("REPRO_SWEEP_CHAOS", "raise")
            service.submit([wire], client="retry")
            assert service.wait(key, timeout_s=60) is None
            assert service.status(key) == "failed"
            monkeypatch.delenv("REPRO_SWEEP_CHAOS")
            service.submit([wire], client="retry")
            value = service.wait(key, timeout_s=60)
        finally:
            service.close()
        assert value is not None
        assert service.status(key) == "done"
        assert service.counter_value("service_simulations_total") == 1


# ----------------------------------------------------------------------
# 3. the HTTP front door
# ----------------------------------------------------------------------
def http_json(url, data=None, headers=None, timeout=120.0):
    request = urllib.request.Request(url, data=data, headers=headers or {})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.getcode(), dict(response.headers), json.load(response)
    except urllib.error.HTTPError as err:
        try:
            body = json.loads(err.read().decode("utf-8"))
        finally:
            err.close()
        return err.code, dict(err.headers), body


@pytest.fixture
def server(tmp_path):
    service = ExperimentService(
        cache=ResultCache(directory=str(tmp_path / "cache")), workers=1,
        ledger=Ledger(directory=str(tmp_path / "ledger")),
    )
    srv = ExperimentServer(service).start()
    yield srv
    srv.stop()


class TestHttpApi:
    def test_evaluate_end_to_end_matches_in_process(self, server):
        spec = make_spec()
        status, _, doc = http_json(
            server.url + "/v1/evaluate",
            data=json.dumps(spec_to_wire(spec)).encode())
        assert status == 200 and doc["status"] == "done"
        from repro.noc.sim import run_simulation

        expected = run_simulation(spec)
        assert doc["result"] == expected.to_wire()
        assert doc["key"] == spec.cache_key()

    def test_gated_spec_is_served_like_the_reference_run(self, server):
        spec = make_spec(level=16, gating=TimeoutGating(16, frozenset({0})))
        status, _, doc = http_json(
            server.url + "/v1/evaluate",
            data=json.dumps(spec_to_wire(spec)).encode())
        assert status == 200 and doc["status"] == "done"
        from repro.noc.sim import simulate

        assert doc["result"] == simulate(spec, backend="reference").to_wire()
        assert doc["result"]["result"]["gating"]["gate_events"] > 0
        assert doc["key"] == spec.cache_key()

    def test_batch_submit_and_ticket_progress(self, server):
        specs = [make_spec(seed=1), make_spec(seed=2), make_spec(seed=1)]
        status, _, ticket = http_json(
            server.url + "/v1/sweeps",
            data=json.dumps({"specs": [s.to_wire() for s in specs]}).encode())
        assert status == 202
        assert ticket["total"] == 3
        assert ticket["new"] == 2          # unique specs
        assert ticket["coalesced"] == 1    # the in-batch duplicate
        assert ticket["keys"][0] == ticket["keys"][2]
        # poll the ticket to completion
        server.service.wait(ticket["keys"][0], timeout_s=120)
        server.service.wait(ticket["keys"][1], timeout_s=120)
        status, _, doc = http_json(
            server.url + "/v1/sweeps/" + ticket["sweep_id"])
        assert status == 200 and doc["complete"] and doc["done"] == 2
        assert set(doc["results"]) == set(ticket["keys"])

    def test_concurrent_identical_specs_simulate_once(self, server):
        spec = make_spec(seed=77, measure=400)
        body = json.dumps(spec_to_wire(spec)).encode()
        outcomes = []
        lock = threading.Lock()
        service = server.service
        execute_batch = service._execute_batch

        def held_batch(*args, **kwargs):
            # hold the one simulation until the other five requests have
            # joined it; otherwise a late one can find the finished result
            # in the cache and count as served, not coalesced
            deadline = time.monotonic() + 30
            while ((service.counter_value("service_coalesced_total") or 0) < 5
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            return execute_batch(*args, **kwargs)

        service._execute_batch = held_batch

        def submit():
            status, _, doc = http_json(server.url + "/v1/evaluate", data=body)
            with lock:
                outcomes.append((status, json.dumps(doc["result"],
                                                    sort_keys=True)))

        threads = [threading.Thread(target=submit) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(status == 200 for status, _ in outcomes)
        assert len({blob for _, blob in outcomes}) == 1, (
            "coalesced requesters saw different results")
        assert server.service.counter_value("service_simulations_total") == 1
        assert server.service.counter_value("service_coalesced_total") == 5

    def test_oldest_ticket_is_evicted_past_the_cap(self, server,
                                                   monkeypatch):
        monkeypatch.setattr("repro.service.core.MAX_TICKETS", 2)
        tickets = []
        for seed in (11, 12, 13):
            body = {"specs": [spec_to_wire(make_spec(seed=seed))]}
            status, _, ticket = http_json(server.url + "/v1/sweeps",
                                          data=json.dumps(body).encode())
            assert status == 202
            server.service.wait(ticket["keys"][0], timeout_s=120)
            tickets.append(ticket)
        assert len(server.service._tickets) == 2
        status, _, doc = http_json(
            server.url + "/v1/sweeps/" + tickets[0]["sweep_id"])
        assert status == 404 and doc["error"]["type"] == "not_found"
        for ticket in tickets[1:]:
            status, _, doc = http_json(
                server.url + "/v1/sweeps/" + ticket["sweep_id"])
            assert status == 200 and doc["complete"]
        # the evicted sweep's result is still served by key
        status, _, doc = http_json(
            server.url + "/v1/results/" + tickets[0]["keys"][0])
        assert status == 200 and doc["source"] == "cache"

    def test_resubmission_is_served_from_cache(self, server):
        spec = make_spec(seed=5)
        body = json.dumps(spec_to_wire(spec)).encode()
        http_json(server.url + "/v1/evaluate", data=body)
        status, _, doc = http_json(server.url + "/v1/evaluate", data=body)
        assert status == 200 and doc["cached"] is True
        assert server.service.counter_value("service_simulations_total") == 1
        status, _, doc = http_json(
            server.url + "/v1/results/" + spec.cache_key())
        assert status == 200 and doc["source"] == "cache"

    def test_unknown_result_key_is_404(self, server):
        status, _, doc = http_json(server.url + "/v1/results/" + "0" * 64)
        assert status == 404 and doc["error"]["type"] == "not_found"

    def test_malformed_wire_payloads_are_400(self, server):
        cases = [
            (b"this is not json", "bad_json"),
            (json.dumps({"v": 99, "spec": {}}).encode(), "wire_format"),
            (json.dumps({"v": 1, "spec": {"__class__": "Rogue"}}).encode(),
             "wire_format"),
        ]
        for body, expected_type in cases:
            status, _, doc = http_json(server.url + "/v1/evaluate", data=body)
            assert status == 400, body
            assert doc["error"]["type"] == expected_type
            # every refusal carries the full structured shape
            assert {"type", "message", "missing",
                    "alternatives"} <= set(doc["error"])

    @pytest.mark.parametrize("length, body, expected_type", [
        ("0", b"", "wire_format"),       # empty body
        ("4", b"null", "wire_format"),   # parses, but is no spec
        ("abc", b"", "bad_request"),     # not an integer
        ("-1", b"", "bad_request"),      # would read until the client hangs up
    ])
    def test_malformed_body_is_answered_within_two_seconds(
            self, server, length, body, expected_type):
        host, port = server.address.rsplit(":", 1)
        request = (f"POST /v1/evaluate HTTP/1.1\r\nHost: {host}\r\n"
                   f"Content-Length: {length}\r\n\r\n").encode() + body
        with socket.create_connection((host, int(port)), timeout=2.0) as sock:
            sock.sendall(request)
            response = http.client.HTTPResponse(sock)
            response.begin()  # a status line, or socket.timeout after 2 s
            doc = json.loads(response.read())
        assert response.status == 400
        assert doc["error"]["type"] == expected_type
        assert {"type", "message", "missing",
                "alternatives"} <= set(doc["error"])

    def test_keep_alive_requests_are_not_stalled(self, server):
        # headers and body leaving in two writes let Nagle's algorithm
        # hold the body for the client's delayed ACK (~40 ms a request)
        host, port = server.address.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        elapsed = []
        try:
            for _ in range(6):
                start = time.perf_counter()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert json.loads(response.read()) == {"ok": True}
                elapsed.append(time.perf_counter() - start)
        finally:
            conn.close()
        assert statistics.median(elapsed[1:]) < 0.015, elapsed

    def test_rate_limit_answers_429_with_retry_after(self, tmp_path):
        service = ExperimentService(
            cache=ResultCache(),
            accounts=ClientAccounts(rate_per_s=0.0, burst=2.0),
        )
        srv = ExperimentServer(service).start()
        try:
            body = json.dumps({"spec": spec_to_wire(make_spec()),
                               "wait_s": 0}).encode()
            headers = {"X-Repro-Client": "greedy"}
            first, _, _ = http_json(srv.url + "/v1/evaluate", data=body,
                                    headers=headers)
            second, _, _ = http_json(srv.url + "/v1/evaluate", data=body,
                                     headers=headers)
            status, resp_headers, doc = http_json(
                srv.url + "/v1/evaluate", data=body, headers=headers)
            assert first in (200, 202) and second in (200, 202)
            assert status == 429
            assert doc["error"]["type"] == "rate_limited"
            assert float(resp_headers["Retry-After"]) >= 1
            assert service.counter_value("service_rate_limited_total") >= 1
        finally:
            srv.stop()

    def test_budget_exhaustion_answers_402(self, tmp_path):
        service = ExperimentService(
            cache=ResultCache(),
            accounts=ClientAccounts(budget_simulated_s=1e-12),
        )
        srv = ExperimentServer(service).start()
        try:
            headers = {"X-Repro-Client": "spender"}
            body = json.dumps(spec_to_wire(make_spec(seed=8))).encode()
            status, _, _ = http_json(srv.url + "/v1/evaluate", data=body,
                                     headers=headers)
            assert status == 200  # first run is admitted (post-paid)
            assert service.accounts.spent_s("spender") > 0
            body = json.dumps(spec_to_wire(make_spec(seed=9))).encode()
            status, _, doc = http_json(srv.url + "/v1/evaluate", data=body,
                                       headers=headers)
            assert status == 402
            assert doc["error"]["type"] == "budget_exhausted"
            assert doc["error"]["spent_s"] > 0
            # other clients are unaffected
            status, _, _ = http_json(srv.url + "/v1/evaluate", data=body,
                                     headers={"X-Repro-Client": "frugal"})
            assert status == 200
        finally:
            srv.stop()

    def test_ledger_backed_retrieval_after_cache_loss(self, tmp_path):
        """Results outlive the cache: a restarted service with an empty
        cache still answers from the run ledger's headline metrics."""
        ledger_dir = str(tmp_path / "ledger")
        spec = make_spec(seed=13)
        key = spec.cache_key()
        first = ExperimentService(
            cache=ResultCache(directory=str(tmp_path / "cache1")),
            ledger=Ledger(directory=ledger_dir),
        )
        first.submit([spec.to_wire()], client="t")
        assert first.wait(key, timeout_s=120) is not None
        first.close()
        # "restart" with a fresh, empty cache but the same ledger
        reborn = ExperimentService(
            cache=ResultCache(directory=str(tmp_path / "cache2")),
            ledger=Ledger(directory=ledger_dir),
        )
        srv = ExperimentServer(reborn).start()
        try:
            status, _, doc = http_json(srv.url + "/v1/results/" + key)
            assert status == 200
            assert doc["source"] == "ledger"
            assert "avg_latency" in doc["headline"]
            status, _, run_doc = http_json(
                srv.url + "/v1/runs/" + doc["run_id"][:12])
            assert status == 200
            assert run_doc["run"]["kind"] == "service"
            assert key in run_doc["run"]["points"]
        finally:
            srv.stop()

    def test_metrics_exposition_carries_service_series(self, server):
        spec = make_spec(seed=21)
        http_json(server.url + "/v1/evaluate",
                  data=json.dumps(spec_to_wire(spec)).encode())
        with urllib.request.urlopen(server.url + "/metrics",
                                    timeout=30) as response:
            text = response.read().decode()
        for name in ("service_requests_total", "service_specs_total",
                     "service_simulations_total", "service_inflight",
                     "service_budget_spent_seconds", "result_cache_hits"):
            assert name in text, f"{name} missing from /metrics"

    def test_capability_refusal_is_a_structured_400(self, server):
        """An impossible spec is refused at the front door with the same
        payload fields BackendCapabilityError carries in-process."""
        from tests.test_backends import scratch_backend

        faulty = make_spec(
            backend="limited",
            faults=FaultSchedule(events=(
                FaultEvent(cycle=10, kind="router", node=5),)),
        )
        with scratch_backend():  # registers "limited" without CAP_FAULTS
            status, _, doc = http_json(
                server.url + "/v1/evaluate",
                data=json.dumps(spec_to_wire(faulty)).encode())
        assert status == 400
        assert doc["error"]["type"] == "backend_capability"
        assert "faults" in doc["error"]["missing"]
        assert doc["error"]["alternatives"], "no alternative backends offered"
        assert doc["error"]["backend"] == "limited"

    def test_unsupported_method_and_unknown_route(self, server):
        status, _, doc = http_json(server.url + "/v1/nonsense",
                                   data=b"{}")
        assert status == 404
        request = urllib.request.Request(server.url + "/v1/evaluate",
                                         data=b"{}", method="PUT")
        try:
            with urllib.request.urlopen(request, timeout=30):
                raise AssertionError("PUT should be refused")
        except urllib.error.HTTPError as err:
            assert err.code == 405
            err.close()


# ----------------------------------------------------------------------
# the error payload contract + CLI parity path
# ----------------------------------------------------------------------
class TestErrorPayloadShape:
    def test_capability_error_payload_matches_in_process_fields(self):
        from repro.noc.backends import BackendCapabilityError

        err = BackendCapabilityError(
            "limited", frozenset({"faults"}), alternatives=("reference",))
        status, body = error_payload(err)
        assert status == 400
        assert body["type"] == "backend_capability"
        assert body["missing"] == ["faults"]
        assert body["alternatives"] == ["reference"]
        assert body["backend"] == "limited"

    def test_every_refusal_type_has_the_same_shape(self):
        for err in (WireFormatError("x"), RateLimited("c", 1.0),
                    BudgetExhausted("c", 2.0, 1.0), ValueError("v"),
                    RuntimeError("boom")):
            _, body = error_payload(err)
            assert {"type", "message", "missing", "alternatives"} <= set(body)


class TestLocalParity:
    def test_submit_local_matches_http(self, tmp_path, server, capsys):
        """`repro submit --local` and the HTTP path agree bit-for-bit."""
        from repro.cli import main

        spec = make_spec(seed=33)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec_to_wire(spec)))
        status, _, http_doc = http_json(
            server.url + "/v1/evaluate",
            data=json.dumps(spec_to_wire(spec)).encode())
        assert status == 200
        code = main(["submit", str(spec_file), "--local",
                     "--cache-dir", str(tmp_path / "local-cache")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        key = spec.cache_key()
        assert out["keys"] == [key]
        assert out["results"][key] == http_doc["result"]
