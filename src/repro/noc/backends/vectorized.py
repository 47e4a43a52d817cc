"""The vectorized fast-path backend.

Simulates exactly the same five-stage wormhole VC pipeline as the
reference backend (:mod:`repro.noc.backends.reference`) but trades the
object-per-router / object-per-flit model for flat per-mesh state arrays
and batched work:

- **flat state arrays** -- every router's buffers, credit counts, VC
  allocations and round-robin pointers live in flat lists indexed by
  ``slot = port * vcs + vc``, with one bit per slot in a per-router
  occupancy mask, so allocation and switch arbitration scan only the
  slots that actually hold flits instead of all ``ports x vcs`` of them;
- **batched injection draws** -- the spec's Bernoulli traffic process is
  pre-generated in chunks into a NumPy-backed schedule (per-cycle packet
  counts as an array, per-cycle packet lists alongside), which also
  yields the next-arrival lookup that lets the kernel skip runs of
  whole-mesh idle cycles in O(1);
- **analytic accounting** -- counters the reference increments every
  cycle (``cycles_powered``) are computed in closed form from the
  measurement window whenever no gating policy forces per-cycle state.

The arbitration order, credit timing and round-robin pointer updates
replicate the reference kernel decision for decision, so for any spec
the two backends produce *bit-identical*
:class:`~repro.noc.result.SimulationResult` values from the same RNG
stream (enforced by the cross-backend equivalence suite in
``tests/test_backends.py`` and the CI smoke in
``benchmarks/bench_extension_backend.py``).

The full capability set is supported:

- **fault schedules** -- boundary cycles tear the flat arrays down and
  rebuild them on the reconfigured convex region computed by the shared
  :func:`repro.core.faults.reconfigured_topology`, replaying the
  reference's drop-and-retransmit policy (surviving packets re-enter
  their source NI in pid order, stranded ones are dropped) and the same
  ``dropped`` / ``retransmitted`` / ``rerouted`` / ``reconfigurations``
  / ``min_region_level`` counters;
- **dynamic gating policies** -- the policy drives a duck-typed network
  view over the flat arrays (:class:`_FlatNetworkView`) exposing exactly
  the surface :class:`~repro.noc.power_gating.TimeoutGatingPolicy`
  documents, and the kernel replays the reference's wake/gate timing
  (wake requests on arrivals, NI pressure and blocked nominations;
  wakeups finishing before the cycle's allocation passes);
- **adaptive routing** -- multi-candidate routes from the shared
  :func:`repro.noc.routing.build_table` are resolved at VC-allocation
  time with the reference's credit-based selection;
- tracing spans, end-of-run metrics and periodic telemetry sampling --
  sampled runs emit the same per-router sample events as the reference
  backend (buffer occupancies are captured from the flat state arrays at
  the same pipeline instant, gated routers are charged the sampling
  interval identically, and whole-mesh idle stretches the kernel
  fast-forwards over are back-filled with the idle samples the reference
  would have taken).

The compiled C kernel (:mod:`repro.noc.backends.native`) is used when it
covers the run -- including fault schedules, which it executes as a
chain of per-region kernel segments with the boundary policy replayed in
Python between invocations.  Only gated runs stay in the pure-Python
flat engine here (the policy is an arbitrary Python object the kernel
cannot call back into every cycle), which is still far faster than the
reference object model.
"""

from __future__ import annotations

import numpy as np

from repro.core.faults import reconfigured_topology
from repro.noc.activity import NetworkActivity
from repro.noc.backends.base import (
    ALL_CAPABILITIES,
    check_capabilities,
    required_capabilities,
)
from repro.noc.backends.reference import _record_sim_metrics
from repro.noc.result import SimulationResult
from repro.noc.routing import (
    PORT_COUNT,
    PORT_TO_DIRECTION,
    REVERSE_PORT,
    build_table,
)
from repro.noc.spec import SimulationSpec
from repro.noc.traffic import TrafficGenerator
from repro.telemetry import active as _active_telemetry
from repro.util.stats import RunningStats, percentile

_CHUNK = 1024  # cycles of traffic pre-generated per batch
_WAKEUP_LATENCY = 8  # matches Network's default; policies read it off the view
_NEVER = 1 << 60


class _PacketSchedule:
    """Chunked pre-generation of the traffic process.

    The network state never feeds back into the open-loop Bernoulli
    source, so the packet sequence is a pure function of the spec: we can
    draw it ahead of the simulation in batches from the *same* generator
    (hence the same RNG stream, pids and destinations as the reference
    driver).  Per-cycle packet counts are kept in a NumPy array so the
    kernel can find the next non-empty cycle with one ``argmax``.
    """

    def __init__(self, traffic: TrafficGenerator, warmup: int, measure_end: int):
        self._traffic = traffic
        self._warmup = warmup
        self._measure_end = measure_end
        self._cycles: list[list] = []
        self._counts = np.zeros(0, dtype=np.int64)
        self._upto = 0  # cycles generated so far

    def _extend(self) -> None:
        base = self._upto
        chunk = np.zeros(_CHUNK, dtype=np.int64)
        cycles = self._cycles
        traffic = self._traffic
        warmup, measure_end = self._warmup, self._measure_end
        for offset in range(_CHUNK):
            cycle = base + offset
            packets = traffic.packets_for_cycle(
                cycle, measured=warmup <= cycle < measure_end
            )
            cycles.append(packets)
            if packets:
                chunk[offset] = len(packets)
        self._counts = np.concatenate((self._counts, chunk))
        self._upto += _CHUNK

    def take(self, cycle: int) -> list:
        """Packets created at ``cycle`` (the driver consumes every cycle)."""
        while cycle >= self._upto:
            self._extend()
        return self._cycles[cycle]

    def next_busy(self, cycle: int, limit: int) -> int | None:
        """First cycle >= ``cycle`` with packets, or None if none < ``limit``."""
        while True:
            window = self._counts[cycle:self._upto]
            if window.size:
                nonzero = np.flatnonzero(window)
                if nonzero.size:
                    busy = cycle + int(nonzero[0])
                    return busy if busy < limit else None
            if self._upto >= limit:
                return None
            self._extend()
            cycle = max(cycle, self._upto - _CHUNK)


class _FlatRouterView:
    """Duck-typed ``Router`` stand-in over the flat arrays.

    Exposes exactly the surface the gating policies document: ``gated``,
    ``wake_at``, ``buffered_flits``, ``last_active_cycle`` and
    :meth:`gate`.  Wake requests and wake completion stay inside the
    kernel (as they do inside ``Network.step`` for the reference).
    """

    __slots__ = ("_net", "_i")

    def __init__(self, net: "_FlatNetworkView", i: int):
        self._net = net
        self._i = i

    @property
    def gated(self) -> bool:
        return self._net._gated[self._i]

    @property
    def wake_at(self) -> int | None:
        return self._net._wake_at[self._i]

    @property
    def buffered_flits(self) -> int:
        return self._net._buffered[self._i]

    @property
    def last_active_cycle(self) -> int:
        return self._net._last_active[self._i]

    def gate(self) -> bool:
        """Power-gate this router; refuses if any flit is buffered."""
        net, i = self._net, self._i
        if net._buffered[i] > 0:
            return False
        net._gated[i] = True
        net._wake_at[i] = None
        return True


class _FlatNetworkView:
    """What a gating policy sees of the flat engine.

    Mirrors the :class:`~repro.noc.network.Network` attributes the
    policies read (``cycle``, ``routers``, ``wakeup_latency``,
    ``ni_busy``, ``powered_routers``) over the kernel's shared state
    lists, so the *same policy object* drives both backends identically.
    """

    def __init__(
        self, nodes, index_of, gated, wake_at, last_active, buffered,
        ni_state, ni_queue, ni_qhead,
    ):
        self.cycle = 0
        self.wakeup_latency = _WAKEUP_LATENCY
        self._index_of = index_of
        self._gated = gated
        self._wake_at = wake_at
        self._last_active = last_active
        self._buffered = buffered
        self._ni_state = ni_state
        self._ni_queue = ni_queue
        self._ni_qhead = ni_qhead
        self.routers = {
            node: _FlatRouterView(self, i) for i, node in enumerate(nodes)
        }

    def ni_busy(self, node: int) -> bool:
        """True while the node's NI is mid-packet or has queued packets."""
        i = self._index_of[node]
        return (
            self._ni_state[i] is not None
            or len(self._ni_queue[i]) > self._ni_qhead[i]
        )

    def powered_routers(self) -> int:
        return sum(1 for g in self._gated if not g)


class VectorizedBackend:
    """Flat-array exact replica of the reference pipeline."""

    name = "vectorized"
    capabilities = ALL_CAPABILITIES
    # backend="auto" picks the supporting backend with the highest rank;
    # the flat engine outruns the reference on everything it covers
    speed_rank = 10

    def supports(self, spec, *, gating_policy=None, telemetry=None) -> bool:
        """The flat engine replicates every declared capability."""
        return required_capabilities(spec, gating_policy, telemetry) <= self.capabilities

    def run(
        self, spec: SimulationSpec, *, gating_policy=None, telemetry=None
    ) -> SimulationResult:
        check_capabilities(self, spec, gating_policy, telemetry)
        # the compiled kernel produces the same bits, faster; telemetry
        # runs ride it too -- the kernel batches per-interval activity
        # captures and the driver replays them as spans/samples/metrics.
        # Gated runs stay in Python: the policy is an arbitrary Python
        # object the C kernel cannot call back into every cycle.
        if gating_policy is None:
            from repro.noc.backends import native

            if native.available():
                result = native.execute(spec, telemetry=telemetry)
                if result is not None:
                    return result
        return _execute_vectorized(spec, gating_policy, telemetry)


def _emit_flat_sample(
    tel, span_id, cycle, nodes, occ_list, in_flight, inj_flits, ej_flits,
    gated=None, gated_cycles=None, interval=0,
) -> None:
    """One periodic sample from flat-array state, byte-compatible with the
    reference backend's :func:`_emit_router_sample` payload.

    ``occ_list`` is the per-router buffered-flit counts at the sample
    instant (``None`` for whole-mesh idle instants the kernel skipped);
    ``gated`` is the per-router gating flags when a policy is active
    (``None`` otherwise -- every router reads as powered), and a gated
    router is charged the whole ``interval`` into ``gated_cycles``
    exactly like the reference sampler.
    """
    routers = {}
    buffered_total = 0
    for i, node in enumerate(nodes):
        occupancy = occ_list[i] if occ_list is not None else 0
        buffered_total += occupancy
        is_gated = 1 if gated is not None and gated[i] else 0
        if is_gated:
            gated_cycles[node] = gated_cycles.get(node, 0) + interval
        routers[str(node)] = {
            "inj": inj_flits.get(node, 0),
            "ej": ej_flits.get(node, 0),
            "occ": occupancy,
            "gated": is_gated,
        }
    tel.metrics.histogram(
        "noc_buffer_occupancy_flits",
        help="total buffered flits at sample instants",
        buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
    ).observe(buffered_total)
    tel.tracer.sample(
        {
            "cycle": cycle,
            "in_flight": in_flight,
            "buffered": buffered_total,
            "routers": routers,
        },
        parent=span_id,
    )


def _emit_idle_samples(
    tel, span_id, start, stop, interval, nodes, inj_flits, ej_flits
) -> None:
    """Back-fill the samples the reference loop would have taken over the
    whole-mesh idle cycles ``[start, stop)`` the kernel fast-forwarded."""
    first = -(-start // interval) * interval  # first multiple >= start
    for c in range(first, stop, interval):
        _emit_flat_sample(tel, span_id, c, nodes, None, 0, inj_flits, ej_flits)


def _region_state(topology, cfg, routing):
    """Fresh flat router/NI state for one topology (initial or reconfigured).

    Mirrors ``Network.__init__``: wired links, full credit counts,
    un-allocated VCs, zeroed round-robin pointers.  Adaptive routes keep
    their candidate tuples except singletons, which are scalarized so the
    hot path stays integer-only for forced hops.
    """
    vcs = cfg.vcs_per_port
    depth = cfg.buffers_per_vc
    slots = PORT_COUNT * vcs

    nodes = list(topology.active_nodes)
    count = len(nodes)
    index_of = {node: i for i, node in enumerate(nodes)}

    table = build_table(topology, routing)
    # route[i] maps a destination *node id* to the output port (or the
    # adaptive candidate tuple) at router i
    mesh_size = topology.width * topology.height
    route: list[list] = [[0] * mesh_size for _ in range(count)]
    for (current, dest), port in table.items():
        if type(port) is tuple and len(port) == 1:
            port = port[0]
        route[index_of[current]][dest] = port

    # neighbor[i][port] -> router index on that side (-1 when unconnected)
    neighbor = [[-1] * PORT_COUNT for _ in range(count)]
    for i, node in enumerate(nodes):
        for port in range(1, PORT_COUNT):
            other = topology.neighbor(node, PORT_TO_DIRECTION[port])
            if other is not None and other in index_of:
                neighbor[i][port] = index_of[other]

    # --- flat per-router state, indexed by slot = port * vcs + vc -------
    buf = [[[] for _ in range(slots)] for _ in range(count)]
    head = [[0] * slots for _ in range(count)]  # consumed prefix of buf[i][s]
    vc_out = [[-1] * slots for _ in range(count)]
    vc_elig = [[0] * slots for _ in range(count)]
    out_owner = [[-1] * slots for _ in range(count)]
    credits = [[0] * slots for _ in range(count)]
    for i in range(count):
        row = credits[i]
        for v in range(vcs):
            row[v] = 1 << 30  # ejection is never back-pressured
        for port in range(1, PORT_COUNT):
            if neighbor[i][port] >= 0:
                base = port * vcs
                for v in range(vcs):
                    row[base + v] = depth
    va_ptr = [[0] * PORT_COUNT for _ in range(count)]
    sa_in_ptr = [[0] * PORT_COUNT for _ in range(count)]
    sa_out_ptr = [[0] * PORT_COUNT for _ in range(count)]
    occ = [0] * count  # bit s set <=> buf[i][s] is non-empty
    va_pending = [0] * count  # bit s set <=> buf[i][s] non-empty, no out-VC
    buffered = [0] * count
    # wake[i]: earliest cycle router i's allocation pass could possibly do
    # anything (see the kernel loop)
    wake = [0] * count

    # network interfaces
    ni_queue: list[list] = [[] for _ in range(count)]
    ni_qhead = [0] * count
    ni_state: list[list | None] = [None] * count
    ni_ptr = [0] * count

    return (
        nodes, count, index_of, route, neighbor, buf, head, vc_out, vc_elig,
        out_owner, credits, va_ptr, sa_in_ptr, sa_out_ptr, occ, va_pending,
        buffered, wake, ni_queue, ni_qhead, ni_state, ni_ptr,
    )


def _fold_activity(activity, nodes, writes, reads, links_used, va_grants):
    """Accumulate one region segment's flat counters into the shared
    :class:`NetworkActivity` (buffer reads double as crossbar traversals
    and switch arbitrations, exactly as in ``Network._traverse``)."""
    for i, node in enumerate(nodes):
        ra = activity.router(node)
        ra.buffer_writes += writes[i]
        ra.buffer_reads += reads[i]
        ra.crossbar_traversals += reads[i]
        ra.switch_arbitrations += reads[i]
        ra.link_traversals += links_used[i]
        ra.vc_allocations += va_grants[i]


def _execute_vectorized(
    spec: SimulationSpec, gating_policy=None, telemetry=None
) -> SimulationResult:
    planned = spec.topology
    cfg = spec.config
    vcs = cfg.vcs_per_port
    depth = cfg.buffers_per_vc
    slots = PORT_COUNT * vcs
    vmask = (1 << vcs) - 1

    (
        nodes, count, index_of, route, neighbor, buf, head, vc_out, vc_elig,
        out_owner, credits, va_ptr, sa_in_ptr, sa_out_ptr, occ, va_pending,
        buffered, wake, ni_queue, ni_qhead, ni_state, ni_ptr,
    ) = _region_state(planned, cfg, spec.routing)
    ni_active: dict[int, None] = {}

    # activity persists across fault reconfigurations (the reference hands
    # one NetworkActivity from network to network); every region's routers
    # get an entry even if they never move a flit
    activity = NetworkActivity()
    for node in nodes:
        activity.router(node)

    # activity counters for the current region segment (measure window only)
    writes = [0] * count
    reads = [0] * count  # == crossbar traversals == switch arbitrations
    links_used = [0] * count
    va_grants = [0] * count

    # dynamic power gating state; when no policy runs, cycles_powered is
    # analytic (whole-window) instead of per-cycle
    gating_on = gating_policy is not None
    gated = [False] * count
    wake_at_l: list[int | None] = [None] * count
    last_active = [0] * count
    powered = [0] * count
    view = None
    if gating_on:
        view = _FlatNetworkView(
            nodes, index_of, gated, wake_at_l, last_active, buffered,
            ni_state, ni_queue, ni_qhead,
        )

    # event buckets keyed by delivery cycle
    arrivals: dict[int, list] = {}
    credit_events: dict[int, list] = {}

    warmup = spec.warmup_cycles
    measure_cycles = spec.measure_cycles
    measure_end = warmup + measure_cycles
    deadline = measure_end + spec.drain_cycles

    traffic = spec.traffic.build()
    schedule = _PacketSchedule(traffic, warmup, measure_end)

    tel = _active_telemetry(telemetry)
    tracer = tel.tracer if tel is not None else None
    interval = tel.sample_interval if tel is not None else 0
    inj_flits: dict[int, int] = {}
    ej_flits: dict[int, int] = {}
    gated_cycles: dict[int, int] = {}
    if tracer is not None:
        sim_span = tracer.span(
            "simulate",
            level=planned.level,
            routing=spec.routing,
            rate=round(traffic.injection_rate, 6),
        )
        phase_span = tracer.span("phase:warmup", parent=sim_span.id)
        phase = 0  # 0 warmup, 1 measure, 2 drain

        def cross_phases(upto: int) -> None:
            """Take the phase transitions the reference loop makes on the
            cycles before ``upto`` (it visits every cycle, including the
            idle ones this engine jumps over)."""
            nonlocal phase, phase_span
            if phase == 0 and warmup < upto:
                phase = 1
                phase_span.annotate(end_cycle=warmup)
                phase_span.end()
                phase_span = tracer.span(
                    "phase:measure", parent=sim_span.id, start_cycle=warmup
                )
            if phase == 1 and measure_end < upto:
                phase = 2
                phase_span.annotate(end_cycle=measure_end)
                phase_span.end()
                phase_span = tracer.span(
                    "phase:drain", parent=sim_span.id, start_cycle=measure_end
                )

    faults = spec.faults
    boundaries = faults.boundaries() if faults else []
    next_boundary = 0
    counters = {
        "dropped": 0, "retransmitted": 0, "rerouted": 0,
        "lost_measured": 0, "reconfigurations": 0,
    }
    degraded_now = False
    min_level = planned.level if boundaries else 0
    seg_start = 0  # first cycle of the current region segment

    latency = RunningStats()
    hops_stats = RunningStats()
    latencies: list[int] = []
    measured_ejected = 0
    measured_flits = 0
    created_measured = 0
    in_flight = 0

    cycle = 0
    cycles_run = 0
    while True:
        if cycle >= deadline:
            cycles_run = deadline
            break

        # whole-mesh idle fast-forward: with nothing buffered, queued or
        # in the air, state can only change at the next scheduled packet
        # or fault boundary.  Gated runs never fast-forward: the policy
        # observes (and bills) every cycle.
        if (
            not gating_on
            and not in_flight and not arrivals and not credit_events
        ):
            nb = (
                boundaries[next_boundary]
                if next_boundary < len(boundaries)
                else None
            )
            nxt = schedule.next_busy(cycle, measure_end)
            if nxt is None and (nb is None or nb > measure_end):
                # no further packet or boundary before the measurement
                # window closes: the reference loop idles to measure_end
                # and exits there (boundaries beyond it stay unprocessed)
                cycles_run = measure_end + 1 if deadline > measure_end else deadline
                if tracer is not None:
                    cross_phases(cycles_run)
                if interval:
                    _emit_idle_samples(
                        tel, sim_span.id, cycle, measure_end, interval,
                        nodes, inj_flits, ej_flits,
                    )
                if deadline > measure_end:
                    # the reference loop still visits measure_end before
                    # its drained exit and creates that cycle's
                    # (unmeasured) packets; mirror its drop and injection
                    # accounting so samples and final counters agree
                    tail_flits = 0
                    for packet in schedule.take(measure_end):
                        if degraded_now and (
                            packet.source not in index_of
                            or packet.destination not in index_of
                        ):
                            counters["dropped"] += 1
                            continue
                        if tel is not None:
                            inj_flits[packet.source] = (
                                inj_flits.get(packet.source, 0) + packet.length
                            )
                        tail_flits += packet.length
                    if interval and measure_end % interval == 0:
                        _emit_flat_sample(
                            tel, sim_span.id, measure_end, nodes, None,
                            tail_flits, inj_flits, ej_flits,
                        )
                break
            if nxt is None:
                jump = nb
            elif nb is None:
                jump = nxt
            else:
                jump = nxt if nxt < nb else nb
            if jump > cycle:
                if tracer is not None:
                    cross_phases(jump)
                if interval:
                    _emit_idle_samples(
                        tel, sim_span.id, cycle, jump, interval,
                        nodes, inj_flits, ej_flits,
                    )
                cycle = jump
                continue  # re-run the deadline check at the landing cycle

        # fault boundary: tear the region down and rebuild it around the
        # fault set now active (drop-and-retransmit, shared region helper)
        if next_boundary < len(boundaries) and boundaries[next_boundary] == cycle:
            next_boundary += 1
            if tracer is not None:
                reconf_span = tracer.span(
                    "reconfigure", parent=phase_span.id, cycle=cycle
                )
            # fold the finished segment's counters before teardown
            _fold_activity(activity, nodes, writes, reads, links_used, va_grants)
            if gating_on:
                for i in range(count):
                    if powered[i]:
                        activity.router(nodes[i]).cycles_powered += powered[i]
            else:
                span = min(cycle, measure_end) - max(seg_start, warmup)
                if span > 0:
                    for node in nodes:
                        activity.router(node).cycles_powered += span
            seg_start = cycle

            # collect every in-flight packet with its entered flag,
            # mirroring Network.extract_in_flight (pid order, entered
            # means at least one flit left the source NI)
            seen: dict[int, list] = {}
            for i in range(count):
                state = ni_state[i]
                if state is not None:
                    packet = state[0]
                    prev = seen.get(packet.pid)
                    if prev is None:
                        seen[packet.pid] = [packet, state[1] > 0]
                    elif state[1] > 0:
                        prev[1] = True
                queue = ni_queue[i]
                for k in range(ni_qhead[i], len(queue)):
                    packet = queue[k]
                    if packet.pid not in seen:
                        seen[packet.pid] = [packet, False]
                buf_i = buf[i]
                head_i = head[i]
                for s in range(slots):
                    q = buf_i[s]
                    for k in range(head_i[s], len(q)):
                        packet = q[k][2]
                        prev = seen.get(packet.pid)
                        if prev is None:
                            seen[packet.pid] = [packet, True]
                        else:
                            prev[1] = True
            for events in arrivals.values():
                for _i, _s, entry in events:
                    packet = entry[2]
                    prev = seen.get(packet.pid)
                    if prev is None:
                        seen[packet.pid] = [packet, True]
                    else:
                        prev[1] = True

            region = reconfigured_topology(planned, faults, cycle)
            degraded_now = region is not planned
            # CDOR is the only routing that is sound on an arbitrary
            # convex region (and equals XY on the full mesh), so
            # reconfigured regions always route CDOR -- including when a
            # recovery restores the planned region
            (
                nodes, count, index_of, route, neighbor, buf, head, vc_out,
                vc_elig, out_owner, credits, va_ptr, sa_in_ptr, sa_out_ptr,
                occ, va_pending, buffered, wake, ni_queue, ni_qhead,
                ni_state, ni_ptr,
            ) = _region_state(region, cfg, "cdor")
            for node in nodes:
                activity.router(node)
            writes = [0] * count
            reads = [0] * count
            links_used = [0] * count
            va_grants = [0] * count
            if gating_on:
                gated = [False] * count
                wake_at_l = [None] * count
                last_active = [0] * count
                powered = [0] * count
                view = _FlatNetworkView(
                    nodes, index_of, gated, wake_at_l, last_active, buffered,
                    ni_state, ni_queue, ni_qhead,
                )
            arrivals = {}
            credit_events = {}
            in_flight = 0

            for pid in sorted(seen):
                packet, entered = seen[pid]
                si = index_of.get(packet.source)
                di = index_of.get(packet.destination)
                if si is not None and di is not None:
                    packet.hops = 0
                    ni_queue[si].append(packet)
                    in_flight += packet.length
                    counters["retransmitted" if entered else "rerouted"] += 1
                else:
                    counters["dropped"] += 1
                    if packet.measured:
                        counters["lost_measured"] += 1
            ni_active = {i: None for i in range(count) if ni_queue[i]}
            counters["reconfigurations"] += 1
            min_level = min(min_level, region.level)
            if tracer is not None:
                reconf_span.annotate(level=region.level)
                reconf_span.end()

        if tracer is not None:
            cross_phases(cycle + 1)

        win = warmup <= cycle < measure_end

        # new packets enter their source NI queues (a degraded region
        # drops packets whose endpoint router fell dark before they are
        # ever created, exactly like the reference NI)
        packets = schedule.take(cycle)
        if packets:
            for packet in packets:
                if degraded_now and (
                    packet.source not in index_of
                    or packet.destination not in index_of
                ):
                    counters["dropped"] += 1
                    continue
                i = index_of[packet.source]
                ni_queue[i].append(packet)
                ni_active[i] = None
                in_flight += packet.length
                if packet.measured:
                    created_measured += 1
                if tel is not None:
                    inj_flits[packet.source] = (
                        inj_flits.get(packet.source, 0) + packet.length
                    )

        if interval and cycle % interval == 0:
            # emitted at the reference's sample point: after this cycle's
            # packet creations and before the step that moves any flit,
            # so occupancies are the state the previous cycle left behind
            _emit_flat_sample(
                tel, sim_span.id, cycle, nodes, buffered, in_flight,
                inj_flits, ej_flits,
                gated if gating_on else None, gated_cycles, interval,
            )

        if gating_on:
            # the policy observes the pre-step state (reference order:
            # policy.step then network.step), then wakeups due this cycle
            # complete before any allocation pass, and powered-cycle
            # accounting matches the reference's per-cycle accrual
            view.cycle = cycle
            gating_policy.step(view)
            for i in range(count):
                if gated[i]:
                    wa = wake_at_l[i]
                    if wa is not None and cycle >= wa:
                        gated[i] = False
                        wake_at_l[i] = None
                        last_active[i] = cycle
                        wake[i] = cycle
                        if win:
                            powered[i] += 1
                elif win:
                    powered[i] += 1

        # credits scheduled for this cycle
        events = credit_events.pop(cycle, None)
        if events:
            for i, s in events:
                credits[i][s] += 1
                wake[i] = cycle

        # link arrivals scheduled for this cycle (delivered into gated
        # routers too, which then request a demand wake)
        events = arrivals.pop(cycle, None)
        if events:
            for i, s, entry in events:
                buf[i][s].append(entry)
                buffered[i] += 1
                occ[i] |= 1 << s
                if vc_out[i][s] < 0:
                    va_pending[i] |= 1 << s
                wake[i] = cycle
                if gating_on:
                    last_active[i] = cycle
                    if gated[i] and wake_at_l[i] is None:
                        wake_at_l[i] = cycle + _WAKEUP_LATENCY
                if win:
                    writes[i] += 1

        # NI injection: one flit per node per cycle into a claimed LOCAL VC
        if ni_active:
            done = None
            for i in ni_active:
                if gating_on and gated[i]:
                    # NI pressure on a gated router requests a demand wake
                    if wake_at_l[i] is None:
                        wake_at_l[i] = cycle + _WAKEUP_LATENCY
                    continue
                state = ni_state[i]
                buf_i = buf[i]
                if state is None:
                    queue = ni_queue[i]
                    qhead = ni_qhead[i]
                    start = ni_ptr[i]
                    chosen = -1
                    vco = vc_out[i]
                    hd = head[i]
                    for k in range(vcs):
                        v = start + k
                        if v >= vcs:
                            v -= vcs
                        if len(buf_i[v]) == hd[v] and vco[v] < 0:
                            chosen = v
                            break
                    if chosen < 0:
                        continue
                    ni_ptr[i] = chosen + 1 if chosen + 1 < vcs else 0
                    state = [queue[qhead], 0, chosen]
                    ni_state[i] = state
                    if qhead + 1 >= len(queue):
                        queue.clear()
                        ni_qhead[i] = 0
                    else:
                        ni_qhead[i] = qhead + 1
                packet, flit_index, v = state
                if len(buf_i[v]) - head[i][v] >= depth:
                    continue
                buf_i[v].append((cycle, flit_index, packet))
                buffered[i] += 1
                occ[i] |= 1 << v
                if vc_out[i][v] < 0:
                    va_pending[i] |= 1 << v
                wake[i] = cycle
                if win:
                    writes[i] += 1
                state[1] += 1
                if state[1] >= packet.length:
                    ni_state[i] = None
                    if not ni_queue[i]:
                        if done is None:
                            done = [i]
                        else:
                            done.append(i)
            if done is not None:
                for i in done:
                    del ni_active[i]

        # per-router VC allocation then switch allocation (the reference
        # runs VA for every router before any SA, but VA only reads and
        # writes router-local state and SA's cross-router effects are all
        # scheduled >= one cycle ahead, so fusing the passes is exact)
        for i in range(count):
            if not buffered[i] or wake[i] > cycle or (gating_on and gated[i]):
                continue
            acted = False
            min_wait = _NEVER
            mask = occ[i]
            buf_i = buf[i]
            head_i = head[i]
            vco_i = vc_out[i]
            owner_i = out_owner[i]
            credits_i = credits[i]
            neighbor_i = neighbor[i]

            # --- VA: heads of unallocated, occupied VCs request out-VCs
            requests = None
            m = va_pending[i]
            if m:
                route_i = route[i]
                while m:
                    bit = m & -m
                    m ^= bit
                    s = bit.bit_length() - 1
                    entry = buf_i[s][head_i[s]]
                    ready = entry[0] + 2  # BW at t, RC at t+1, VA at t+2
                    if cycle < ready:
                        if ready < min_wait:
                            min_wait = ready
                        continue
                    out_p = route_i[entry[2].destination]
                    if type(out_p) is tuple:
                        # adaptive route: credit-based selection among the
                        # candidates, replicating Network._select_adaptive
                        # (free out-VC first, then most credits; ties to
                        # the first candidate)
                        best = out_p[0]
                        best_free = -1
                        best_creds = -1
                        for cand in out_p:
                            base_c = cand * vcs
                            free = 0
                            creds = 0
                            for v in range(vcs):
                                sc = base_c + v
                                if owner_i[sc] < 0:
                                    free = 1
                                creds += credits_i[sc]
                            if free > best_free or (
                                free == best_free and creds > best_creds
                            ):
                                best_free = free
                                best_creds = creds
                                best = cand
                        out_p = best
                    if requests is None:
                        requests = {out_p: [s]}
                    elif out_p in requests:
                        requests[out_p].append(s)
                    else:
                        requests[out_p] = [s]
            if requests is not None:
                elig_i = vc_elig[i]
                va_ptr_i = va_ptr[i]
                for out_p, requesters in requests.items():
                    base = out_p * vcs
                    free = [
                        base + v for v in range(vcs) if owner_i[base + v] < 0
                    ]
                    if not free:
                        continue
                    if len(requesters) > 1:
                        ptr = va_ptr_i[out_p]
                        requesters.sort(key=lambda s: (s - ptr) % slots)
                    for s, os_ in zip(requesters, free):
                        vco_i[s] = os_
                        elig_i[s] = cycle + 1
                        owner_i[os_] = s
                        va_ptr_i[out_p] = (s + 1) % slots
                        va_pending[i] &= ~(1 << s)
                        acted = True
                        if win:
                            va_grants[i] += 1

            # --- SA stage 1: each input port nominates one ready VC
            nominations = None
            elig_i = vc_elig[i]
            sa_in_i = sa_in_ptr[i]
            for in_p in range(PORT_COUNT):
                port_mask = (mask >> (in_p * vcs)) & vmask
                if not port_mask:
                    continue
                base = in_p * vcs
                start = sa_in_i[in_p]
                for k in range(vcs):
                    v = start + k
                    if v >= vcs:
                        v -= vcs
                    if not (port_mask >> v) & 1:
                        continue
                    s = base + v
                    os_ = vco_i[s]
                    if os_ < 0:
                        continue
                    entry = buf_i[s][head_i[s]]
                    if entry[1] == 0:  # head flit waits out VA + one cycle
                        ready = elig_i[s]
                        if cycle < ready:
                            if ready < min_wait:
                                min_wait = ready
                            continue
                    elif cycle < entry[0] + 1:  # body waits out buffer write
                        if entry[0] + 1 < min_wait:
                            min_wait = entry[0] + 1
                        continue
                    if credits_i[os_] <= 0:
                        continue
                    if gating_on and os_ >= vcs:
                        down = neighbor_i[os_ // vcs]
                        if gated[down]:
                            # blocked on a gated next hop: demand-wake it
                            # and try the input port's next VC, exactly
                            # like the reference nomination pass
                            if wake_at_l[down] is None:
                                wake_at_l[down] = cycle + _WAKEUP_LATENCY
                            wa = wake_at_l[down]
                            if wa < min_wait:
                                min_wait = wa
                            continue
                    if nominations is None:
                        nominations = [(in_p, v, s, os_, entry)]
                    else:
                        nominations.append((in_p, v, s, os_, entry))
                    break
            if nominations is None:
                wake[i] = cycle + 1 if acted else min_wait
                continue

            # --- SA stage 2 + traversal: one grant per output port
            if len(nominations) == 1:
                winners = nominations
            else:
                by_out = {}
                for nom in nominations:
                    out_p = nom[3] // vcs
                    if out_p in by_out:
                        by_out[out_p].append(nom)
                    else:
                        by_out[out_p] = [nom]
                winners = []
                sa_out_i = sa_out_ptr[i]
                for out_p, cands in by_out.items():
                    if len(cands) > 1:
                        ptr = sa_out_i[out_p]
                        cands.sort(key=lambda c: (c[0] - ptr) % PORT_COUNT)
                    winners.append(cands[0])
            sa_out_i = sa_out_ptr[i]
            for in_p, v, s, os_, entry in winners:
                hd = head_i[s] + 1
                queue = buf_i[s]
                if hd >= len(queue):
                    queue.clear()
                    head_i[s] = 0
                    occ[i] &= ~(1 << s)
                else:
                    head_i[s] = hd
                buffered[i] -= 1
                credits_i[os_] -= 1
                if win:
                    reads[i] += 1
                arrival, flit_index, packet = entry
                is_tail = flit_index == packet.length - 1
                if in_p:  # return a credit to the upstream feeder
                    up = neighbor_i[in_p]
                    slot_up = REVERSE_PORT[in_p] * vcs + v
                    bucket = credit_events.get(cycle + 1)
                    if bucket is None:
                        credit_events[cycle + 1] = [(up, slot_up)]
                    else:
                        bucket.append((up, slot_up))
                if is_tail:
                    owner_i[os_] = -1
                    vco_i[s] = -1
                    if occ[i] & (1 << s):  # next packet's head now at front
                        va_pending[i] |= 1 << s
                if os_ < vcs:  # LOCAL output: ejection
                    in_flight -= 1
                    if is_tail:
                        packet.ejected_at = cycle + 2
                        if packet.measured:
                            measured_ejected += 1
                            measured_flits += packet.length
                            lat = cycle + 2 - packet.created_at
                            latency.add(lat)
                            latencies.append(lat)
                            hops_stats.add(packet.hops)
                        if tel is not None:
                            ej_flits[packet.destination] = (
                                ej_flits.get(packet.destination, 0)
                                + packet.length
                            )
                else:
                    if win:
                        links_used[i] += 1
                    if flit_index == 0:
                        packet.hops += 1
                    out_p = os_ // vcs
                    down = neighbor_i[out_p]
                    slot_down = REVERSE_PORT[out_p] * vcs + (os_ - out_p * vcs)
                    target = cycle + 2
                    bucket = arrivals.get(target)
                    item = (down, slot_down, (target, flit_index, packet))
                    if bucket is None:
                        arrivals[target] = [item]
                    else:
                        bucket.append(item)
                sa_in_i[in_p] = v + 1 if v + 1 < vcs else 0
                sa_out_i[os_ // vcs] = (in_p + 1) % PORT_COUNT
            if gating_on:
                last_active[i] = cycle
            wake[i] = cycle + 1

        cycle += 1
        if cycle > measure_end and (
            measured_ejected >= created_measured - counters["lost_measured"]
        ):
            cycles_run = cycle
            break

    saturated = (
        measured_ejected < created_measured - counters["lost_measured"]
    )
    endpoints = len(traffic.endpoints)

    # fold the final region segment's counters and powered cycles
    _fold_activity(activity, nodes, writes, reads, links_used, va_grants)
    if gating_on:
        for i in range(count):
            if powered[i]:
                activity.router(nodes[i]).cycles_powered += powered[i]
    else:
        # every counted cycle powers every (never-gated) router of the
        # segment's region, so the accrual is the window overlap
        span = measure_end - max(seg_start, warmup)
        if span > 0:
            for node in nodes:
                activity.router(node).cycles_powered += span

    if tel is not None:
        _record_sim_metrics(
            tel, cycles_run, created_measured,
            {"measured": measured_ejected, "measured_flits": measured_flits},
            counters, saturated, inj_flits, ej_flits, gated_cycles,
        )
        if tracer is not None:
            phase_span.annotate(end_cycle=cycles_run)
            phase_span.end()
            sim_span.annotate(
                cycles=cycles_run,
                packets=created_measured,
                saturated=saturated,
                reconfigurations=counters["reconfigurations"],
            )
            sim_span.end()

    return SimulationResult(
        avg_latency=latency.mean if latency.count else 0.0,
        avg_hops=hops_stats.mean if hops_stats.count else 0.0,
        max_latency=int(latency.maximum) if latency.count else 0,
        p50_latency=percentile(latencies, 50) if latencies else 0.0,
        p95_latency=percentile(latencies, 95) if latencies else 0.0,
        p99_latency=percentile(latencies, 99) if latencies else 0.0,
        packets_measured=created_measured,
        packets_ejected=measured_ejected,
        offered_flits_per_cycle=traffic.injection_rate,
        accepted_flits_per_cycle=(
            measured_flits / (measure_cycles * endpoints)
            if measure_cycles and endpoints
            else 0.0
        ),
        saturated=saturated,
        cycles_run=cycles_run,
        measure_cycles=measure_cycles,
        activity=activity,
        endpoint_count=endpoints,
        packets_dropped=counters["dropped"],
        packets_retransmitted=counters["retransmitted"],
        packets_rerouted=counters["rerouted"],
        reconfigurations=counters["reconfigurations"],
        min_region_level=min_level,
    )


__all__ = ["VectorizedBackend"]
