"""Per-layer timings taken from outside the program.

:class:`LayerTrace` wraps the public entry point of every layer a run
crosses and records one span per call, in memory.  Nothing inside
``src/`` changes: the wrappers are installed for a traced pass and
removed afterwards, and end-to-end numbers are always measured with
them removed.

Layers and the calls that bound them (span names in brackets):

- ``repro.noc.spec``: ``SimulationSpec.cache_key`` [spec.cache_key] and
  the service's ``spec_from_wire`` [spec.from_wire];
- ``repro.exec.cache``: ``ResultCache.get`` [cache.get],
  ``get_or_begin`` [cache.claim], ``put`` [cache.put], and the JSON
  side-records ``get_json``/``put_json`` [cache.manifest];
- ``repro.exec.runner``: ``SweepRunner.run`` [runner] and the engine
  entry ``simulate`` it calls [simulate, counted with the driver];
- ``repro.noc.backends.native``: ``execute`` [driver], the routing-table
  build ``repro.noc.routing.build_table`` [driver.route_table], the
  ctypes ``run_kernel`` call [kernel] and the telemetry replay
  ``_emit_run_telemetry`` [telemetry.replay];
- ``repro.noc.traffic``: traffic is drawn 1,024 cycles at a time by the
  flat engines' packet schedule, so the chunk call
  ``_PacketSchedule._extend`` [traffic] is timed instead of the ~4,096
  ``TrafficGenerator.packets_for_cycle`` calls per point -- a per-call
  wrapper would nearly double a fig-9 point;
- ``repro.telemetry.ledger``: ``Ledger.record`` [ledger.append];
- ``repro.service``: ``ExperimentService.submit`` [service.submit] and
  ``wait`` [service.wait]; the client's own request span [request] is
  the root whose self time is the HTTP front door.

Spans nest per thread.  Service calls made on server threads are parented
to the request of the client they serve, and a service batch's
``SweepRunner.run`` on an executor thread is parented to that request's
``service.wait``.  A span's *self time* is its duration, clipped to its
parent, minus the union of its (clipped) children, so the self times of
one tree partition its root's duration.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

from repro.exec import runner as runner_mod
from repro.exec.cache import ResultCache
from repro.exec.runner import SweepRunner
from repro.noc import routing
from repro.noc.backends import native, vectorized
from repro.noc.spec import SimulationSpec
from repro.service import core as service_core
from repro.telemetry.ledger import Ledger

#: Span name -> the layer metric its self time is reported under.  The
#: roots (one per request: "sweep", or "request" on the service) make the
#: wall.
SELF_TIME_METRIC = {
    "spec.cache_key": "spec.cache_key_ms",
    "spec.from_wire": "spec.from_wire_ms",
    "cache.get": "cache.get_ms",
    "cache.claim": "cache.claim_ms",
    "cache.put": "cache.put_ms",
    "cache.manifest": "cache.manifest_ms",
    "runner": "runner.self_ms",
    "simulate": "driver.ms",
    "driver": "driver.ms",
    "driver.route_table": "driver.route_table_ms",
    "traffic": "traffic.ms",
    "kernel": "kernel.ms",
    "telemetry.replay": "telemetry.replay_ms",
    "ledger.append": "ledger.append_ms",
    "service.submit": "service.submit_ms",
    "service.wait": "service.wait_ms",
    "request": "service.http_ms",
    "sweep": "other.ms",
}

_CHUNK = vectorized._CHUNK


class Span:
    __slots__ = ("name", "start", "end", "parent", "children")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.children: list[Span] = []
        self.end = 0.0
        if parent is not None:
            parent.children.append(self)  # list.append is atomic
        self.start = time.perf_counter()


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(roots) -> tuple[Counter, float]:
    """(span name -> summed self seconds, summed root duration)."""
    totals: Counter = Counter()
    wall = 0.0
    stack = []
    for root in roots:
        wall += root.end - root.start
        stack.append((root, root.start, root.end))
    while stack:
        span, lo, hi = stack.pop()
        lo, hi = max(span.start, lo), min(span.end, hi)
        if hi <= lo:
            continue
        clipped = []
        for child in span.children:
            c_lo, c_hi = max(child.start, lo), min(child.end, hi)
            if c_hi > c_lo:
                clipped.append((c_lo, c_hi))
                stack.append((child, lo, hi))
        totals[span.name] += (hi - lo) - _union_length(clipped)
    return totals, wall


def durations(roots, name: str) -> list[float]:
    """Durations of every span called ``name`` under ``roots``."""
    found, stack = [], list(roots)
    while stack:
        span = stack.pop()
        if span.name == name:
            found.append(span.end - span.start)
        stack.extend(span.children)
    return found


class _KernelProxy:
    """Stands in for the loaded kernel library; times ``run_kernel``."""

    def __init__(self, lib, trace: "LayerTrace"):
        self._lib = lib
        self._trace = trace

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def run_kernel(self, *args):
        trace = self._trace
        span = trace.begin("kernel")
        try:
            status = self._lib.run_kernel(*args)
        finally:
            trace.end(span)
        # argument order as declared in native._build: count is 0,
        # sched_upto 13, start_cycle 17, the `out` scalars 24
        out = args[24]
        stop = args[13] if out[1] & native._FLAG_UNFINISHED else out[0]
        cycles = max(0, stop - args[17])
        trace.count(kernel_calls=1, kernel_cycles=cycles,
                    kernel_router_cycles=cycles * args[0])
        return status


class LayerTrace:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.roots: list[Span] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests: dict[str, Span] = {}  # client -> open request
        self._waits: dict[str, Span] = {}     # client -> open service.wait
        self._saved: list[tuple] = []

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, parent: Span | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, parent)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def root(self, name: str, client: str | None = None) -> Span:
        """Open a root span: one sweep request, or one client request."""
        span = Span(name, None)
        self._stack().append(span)
        with self._lock:
            self.roots.append(span)
            if client is not None:
                self._requests[client] = span
        return span

    def end_root(self, span: Span, client: str | None = None) -> None:
        self.end(span)
        if client is not None:
            with self._lock:
                self._requests.pop(client, None)

    def count(self, **deltas) -> None:
        with self._lock:
            self.counts.update(deltas)

    # -- wrappers ----------------------------------------------------------
    def _patch(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _timed(self, owner, name: str, span_name: str) -> None:
        original = owner.__dict__[name]
        trace = self

        def wrapper(*args, **kwargs):
            span = trace.begin(span_name)
            try:
                return original(*args, **kwargs)
            finally:
                trace.end(span)

        self._patch(owner, name, wrapper)

    def install(self) -> "LayerTrace":
        """Wrap every layer entry point; :meth:`uninstall` restores them."""
        if self._saved:
            return self
        trace = self
        self._timed(SimulationSpec, "cache_key", "spec.cache_key")
        self._timed(service_core, "spec_from_wire", "spec.from_wire")
        self._timed(ResultCache, "get_or_begin", "cache.claim")
        self._timed(ResultCache, "get_json", "cache.manifest")
        self._timed(ResultCache, "put_json", "cache.manifest")
        self._timed(runner_mod, "simulate", "simulate")
        self._timed(native, "execute", "driver")
        self._timed(routing, "build_table", "driver.route_table")
        self._timed(native, "_emit_run_telemetry", "telemetry.replay")
        self._timed(Ledger, "record", "ledger.append")

        get = ResultCache.__dict__["get"]

        def cache_get(cache, key):
            span = trace.begin("cache.get")
            try:
                value = get(cache, key)
            finally:
                trace.end(span)
            trace.count(cache_lookups=1, cache_hits=int(value is not None))
            return value

        self._patch(ResultCache, "get", cache_get)

        put = ResultCache.__dict__["put"]

        def cache_put(cache, key, value):
            before = cache.counters.bytes_written
            span = trace.begin("cache.put")
            try:
                return put(cache, key, value)
            finally:
                trace.end(span)
                trace.count(cache_bytes=cache.counters.bytes_written - before)

        self._patch(ResultCache, "put", cache_put)

        extend = vectorized._PacketSchedule.__dict__["_extend"]

        def traffic_extend(schedule):
            span = trace.begin("traffic")
            try:
                extend(schedule)
            finally:
                trace.end(span)
            trace.count(traffic_cycles=_CHUNK,
                        traffic_packets=int(schedule._counts[-_CHUNK:].sum()))

        self._patch(vectorized._PacketSchedule, "_extend", traffic_extend)

        run = SweepRunner.__dict__["run"]

        def runner_run(runner, specs):
            client = runner.ledger_label if runner.ledger_kind == "service" else None
            # a service batch starts on an executor thread with nothing
            # open; it is parented to the serving request's wait when it
            # ends (the handler may still be finishing submit at its start)
            orphan = client is not None and not trace._stack()
            span = trace.begin("runner")
            try:
                report = run(runner, specs)
                simulated = [p.result for p in report.points if not p.cached]
                trace.count(points=len(simulated),
                            cycles_run=sum(r.cycles_run for r in simulated))
                return report
            finally:
                trace.end(span)
                if orphan:
                    with trace._lock:
                        parent = (trace._waits.get(client)
                                  or trace._requests.get(client))
                    if parent is not None:
                        span.parent = parent
                        parent.children.append(span)

        self._patch(SweepRunner, "run", runner_run)

        submit = service_core.ExperimentService.__dict__["submit"]

        def service_submit(service, payloads, client="anonymous"):
            with trace._lock:
                request = trace._requests.get(client)
            trace._local.client = client  # the wait that follows serves it too
            span = trace.begin("service.submit", parent=request)
            try:
                return submit(service, payloads, client=client)
            finally:
                trace.end(span)

        self._patch(service_core.ExperimentService, "submit", service_submit)

        wait = service_core.ExperimentService.__dict__["wait"]

        def service_wait(service, key, timeout_s=None):
            client = getattr(trace._local, "client", None)
            with trace._lock:
                request = trace._requests.get(client)
            span = trace.begin("service.wait", parent=request)
            with trace._lock:
                trace._waits[client] = span
            try:
                return wait(service, key, timeout_s)
            finally:
                with trace._lock:
                    trace._waits.pop(client, None)
                trace.end(span)

        self._patch(service_core.ExperimentService, "wait", service_wait)

        native.available()  # load (or build) the kernel before proxying it
        if native._lib is not None:
            self._saved.append((native, "_lib", native._lib))
            native._lib = _KernelProxy(native._lib, self)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- report --------------------------------------------------------------
    def metrics(self, ops: int) -> dict:
        """Layer metrics of the traced pass, normalised per operation.

        ``*_ms`` self times are per operation (a point on the sweep
        workloads, a request on the service); traffic and kernel counts
        are per simulated point.  ``trace.wall_ms`` is the summed root
        duration per operation: the self times add up to it.
        """
        totals, wall = self_times(self.roots)
        counts = self.counts
        points = max(1, counts["points"])
        metrics: Counter = Counter()
        for name, seconds in totals.items():
            metrics[SELF_TIME_METRIC[name]] += seconds * 1e3 / ops
        metrics.update({
            "trace.wall_ms": wall * 1e3 / ops,
            "spec.cache_key_calls_per_op":
                len(durations(self.roots, "spec.cache_key")) / ops,
            "cache.hit_ratio":
                counts["cache_hits"] / max(1, counts["cache_lookups"]),
            "cache.bytes_written": counts["cache_bytes"] / ops,
            "ledger.records": len(durations(self.roots, "ledger.append")) / ops,
            "traffic.cycles_drawn": counts["traffic_cycles"] / points,
            "traffic.packets": counts["traffic_packets"] / points,
            "traffic.useful_ratio":
                counts["cycles_run"] / max(1, counts["traffic_cycles"]),
            "kernel.calls_per_point": counts["kernel_calls"] / points,
            "kernel.sim_cycles": counts["kernel_cycles"] / points,
            "kernel.ns_per_router_cycle":
                totals["kernel"] * 1e9 / max(1, counts["kernel_router_cycles"]),
        })
        return dict(metrics)

    def coverage(self) -> float:
        """(sum of every span's self time) / (summed root duration)."""
        totals, wall = self_times(self.roots)
        return sum(totals.values()) / wall if wall else 0.0
