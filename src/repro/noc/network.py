"""Cycle-level wormhole VC network simulator (booksim/Garnet substitute).

The router models the paper's "classic five-stage" pipeline:

    BW (buffer write) -> RC (route compute) -> VA (VC allocation)
      -> SA (switch allocation) -> ST (switch traversal) + LT (link traversal)

Timing, per flit, relative to the cycle ``t`` the flit is written into an
input buffer:

- a *head* flit may win VC allocation no earlier than ``t + 2`` (BW at t,
  RC at t+1, VA at t+2) and request the switch one cycle after VA;
- a *body/tail* flit inherits the packet's VC and may request the switch
  from ``t + 1``;
- a switch grant at cycle ``s`` puts the flit into the downstream input
  buffer at ``s + 2`` (ST at s, LT at s+1, BW downstream at s+2) and returns
  a credit upstream at ``s + 1``.

Under zero load a head flit therefore spends 5 cycles per hop, matching the
five-stage pipeline of Table 1.  Flow control is credit-based with
``buffers_per_vc`` credits per virtual channel; switch allocation is
two-stage round-robin (one grant per input port, one per output port).

Routers can be power-gated.  Statically dark routers (outside the sprint
region) are simply never instantiated; dynamic gating for the run-time
power-gating baselines is driven through :meth:`Router.gate` /
:meth:`Network.request_wake` by the policies in
:mod:`repro.noc.power_gating`.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable

from repro.config import NoCConfig
from repro.core.topological import SprintTopology
from repro.noc.activity import NetworkActivity, RouterActivity
from repro.noc.flit import Flit, Packet
from repro.noc.routing import (
    PORT_COUNT,
    PORT_LOCAL,
    PORT_TO_DIRECTION,
    REVERSE_PORT,
)

# pipeline latencies (cycles)
HEAD_VA_DELAY = 2  # buffer write -> earliest VC allocation for a head flit
BODY_SA_DELAY = 1  # buffer write -> earliest switch request for a body flit
LINK_DELAY = 2  # switch grant -> buffer write at the downstream router
CREDIT_DELAY = 1  # switch grant -> credit visible upstream
WAKEUP_LATENCY = 8  # wake request -> gated router powered (as in the C kernel)


class Router:
    """One five-port wormhole VC router."""

    def __init__(self, node: int, config: NoCConfig, activity: RouterActivity):
        vcs = config.vcs_per_port
        self.node = node
        self.config = config
        self.activity = activity
        # input side
        self.buf: list[list[deque]] = [
            [deque() for _ in range(vcs)] for _ in range(PORT_COUNT)
        ]
        self.vc_out: list[list[tuple[int, int] | None]] = [
            [None] * vcs for _ in range(PORT_COUNT)
        ]
        self.vc_eligible: list[list[int]] = [[0] * vcs for _ in range(PORT_COUNT)]
        # output side
        self.credits: list[list[int]] = [[0] * vcs for _ in range(PORT_COUNT)]
        self.out_owner: list[list[tuple[int, int] | None]] = [
            [None] * vcs for _ in range(PORT_COUNT)
        ]
        # (neighbor node id, input port at the neighbour) for connected ports
        self.links: list[tuple[int, int] | None] = [None] * PORT_COUNT
        # round-robin pointers
        self._va_ptr = [0] * PORT_COUNT  # per output port, over (in_p * vcs + in_v)
        self._sa_in_ptr = [0] * PORT_COUNT  # per input port, over VCs
        self._sa_out_ptr = [0] * PORT_COUNT  # per output port, over input ports
        self.buffered_flits = 0
        # power gating
        self.gated = False
        self.wake_at: int | None = None
        self.last_active_cycle = 0

    def gate(self) -> bool:
        """Power-gate this router; refuses if any flit is buffered."""
        if self.buffered_flits > 0:
            return False
        self.gated = True
        self.wake_at = None
        return True

    def request_wake(self, cycle: int) -> None:
        if self.gated and self.wake_at is None:
            self.wake_at = cycle + WAKEUP_LATENCY

    def maybe_finish_wake(self, cycle: int) -> None:
        if self.gated and self.wake_at is not None and cycle >= self.wake_at:
            self.gated = False
            self.wake_at = None
            self.last_active_cycle = cycle


class Network:
    """The collection of routers plus the cycle-by-cycle kernel."""

    def __init__(
        self,
        topology: SprintTopology,
        route_table: dict[tuple[int, int], int],
        config: NoCConfig | None = None,
        activity: NetworkActivity | None = None,
    ):
        self.topology = topology
        self.config = config or NoCConfig()
        self.route_table = route_table
        # `activity` lets a fault reconfiguration hand the accumulated
        # counters to the replacement network so power accounting spans
        # the whole run
        self.activity = activity if activity is not None else NetworkActivity()
        self.counting = False
        self.cycle = 0

        self.routers: dict[int, Router] = {}
        for node in topology.active_nodes:
            self.routers[node] = Router(node, self.config, self.activity.router(node))
        self._wire_links()

        # event buckets
        self._arrivals: dict[int, list] = defaultdict(list)
        self._credit_events: dict[int, list] = defaultdict(list)

        # network interfaces
        self.source_queues: dict[int, deque] = {n: deque() for n in self.routers}
        self._inject_state: dict[int, list | None] = {n: None for n in self.routers}
        self._ni_vc_ptr: dict[int, int] = {n: 0 for n in self.routers}

        # completed packets are handed to this callback (set by the driver)
        self.on_packet_ejected: Callable[[Packet], None] | None = None
        self.flits_in_flight = 0

    def _wire_links(self) -> None:
        vcs = self.config.vcs_per_port
        depth = self.config.buffers_per_vc
        for node, router in self.routers.items():
            for port in range(1, PORT_COUNT):
                direction = PORT_TO_DIRECTION[port]
                neighbor = self.topology.neighbor(node, direction)
                if neighbor is not None and neighbor in self.routers:
                    router.links[port] = (neighbor, REVERSE_PORT[port])
                    router.credits[port] = [depth] * vcs
            # the ejection "link" always exists and is never back-pressured
            router.credits[PORT_LOCAL] = [1 << 30] * vcs

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def inject(self, packet: Packet) -> None:
        """Queue a packet at its source NI."""
        if packet.source not in self.routers:
            raise ValueError(f"source {packet.source} has no powered router")
        if packet.destination not in self.routers:
            raise ValueError(f"destination {packet.destination} has no powered router")
        self.source_queues[packet.source].append(packet)
        self.flits_in_flight += packet.length

    def _step_injection(self) -> None:
        vcs = self.config.vcs_per_port
        depth = self.config.buffers_per_vc
        cycle = self.cycle
        for node, router in self.routers.items():
            state = self._inject_state[node]
            if state is None:
                queue = self.source_queues[node]
                if not queue:
                    continue
                if router.gated:
                    router.request_wake(cycle)
                    continue
                # claim an idle LOCAL input VC for the packet (round-robin)
                start = self._ni_vc_ptr[node]
                chosen = None
                for k in range(vcs):
                    v = (start + k) % vcs
                    if not router.buf[PORT_LOCAL][v] and router.vc_out[PORT_LOCAL][v] is None:
                        if not self._vc_reserved_by_ni(node, v):
                            chosen = v
                            break
                if chosen is None:
                    continue
                self._ni_vc_ptr[node] = (chosen + 1) % vcs
                state = [queue.popleft(), 0, chosen]
                self._inject_state[node] = state
            packet, index, vc = state
            if router.gated:
                router.request_wake(cycle)
                continue
            if len(router.buf[PORT_LOCAL][vc]) >= depth:
                continue
            flit = Flit(packet=packet, index=index, arrival_cycle=cycle)
            router.buf[PORT_LOCAL][vc].append(flit)
            router.buffered_flits += 1
            if self.counting:
                router.activity.buffer_writes += 1
            state[1] += 1
            if state[1] >= packet.length:
                self._inject_state[node] = None

    def _vc_reserved_by_ni(self, node: int, vc: int) -> bool:
        state = self._inject_state[node]
        return state is not None and state[2] == vc

    # ------------------------------------------------------------------
    # kernel
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the network by one cycle."""
        cycle = self.cycle
        for router in self.routers.values():
            router.maybe_finish_wake(cycle)

        for node, out_port, vc in self._credit_events.pop(cycle, ()):
            self.routers[node].credits[out_port][vc] += 1

        for node, port, vc, flit in self._arrivals.pop(cycle, ()):
            router = self.routers[node]
            flit.arrival_cycle = cycle
            router.buf[port][vc].append(flit)
            router.buffered_flits += 1
            router.last_active_cycle = cycle
            if router.gated:
                # a flit raced the gate-off decision; pull the router back up
                router.request_wake(cycle)
            if self.counting:
                router.activity.buffer_writes += 1

        self._step_injection()

        for router in self.routers.values():
            if router.gated:
                continue
            if router.buffered_flits:
                self._step_vc_allocation(router)
        for router in self.routers.values():
            if router.gated:
                continue
            if router.buffered_flits:
                self._step_switch(router)
            if self.counting:
                router.activity.cycles_powered += 1

        self.cycle += 1

    def _step_vc_allocation(self, router: Router) -> None:
        vcs = self.config.vcs_per_port
        cycle = self.cycle
        # gather head flits needing an output VC, grouped by output port
        requests: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for in_p in range(PORT_COUNT):
            for in_v in range(vcs):
                if router.vc_out[in_p][in_v] is not None:
                    continue
                queue = router.buf[in_p][in_v]
                if not queue:
                    continue
                head = queue[0]
                if not head.is_head:
                    # tail of the previous packet has been forwarded but a
                    # body flit is at the front: cannot happen (flits of one
                    # packet stay contiguous per VC)
                    raise RuntimeError(
                        f"router {router.node}: body flit at front of "
                        f"unallocated VC ({in_p},{in_v})"
                    )
                if cycle < head.arrival_cycle + HEAD_VA_DELAY:
                    continue
                route = self.route_table[(router.node, head.destination)]
                if isinstance(route, int):
                    out_p = route
                else:
                    out_p = self._select_adaptive(router, route)
                requests[out_p].append((in_p, in_v))

        for out_p, requesters in requests.items():
            free_vcs = [
                v for v in range(vcs) if router.out_owner[out_p][v] is None
            ]
            if not free_vcs:
                continue
            # round-robin over requesters for fairness
            order = sorted(
                requesters,
                key=lambda r: (r[0] * vcs + r[1] - router._va_ptr[out_p]) % (PORT_COUNT * vcs),
            )
            for (in_p, in_v), out_v in zip(order, free_vcs):
                router.vc_out[in_p][in_v] = (out_p, out_v)
                router.vc_eligible[in_p][in_v] = cycle + 1
                router.out_owner[out_p][out_v] = (in_p, in_v)
                router._va_ptr[out_p] = (in_p * vcs + in_v + 1) % (PORT_COUNT * vcs)
                if self.counting:
                    router.activity.vc_allocations += 1

    def _select_adaptive(self, router: Router, candidates: tuple) -> int:
        """Congestion-aware choice among an adaptive route's candidates.

        Prefers outputs with a free output VC, then the most downstream
        credits; ties resolve to the first candidate (typically the X
        direction, keeping the common case dimension-ordered).
        """
        best = candidates[0]
        best_key = (-1, -1)
        for out_p in candidates:
            free_vcs = sum(
                1 for owner in router.out_owner[out_p] if owner is None
            )
            credits = sum(router.credits[out_p])
            key = (1 if free_vcs else 0, credits)
            if key > best_key:
                best_key = key
                best = out_p
        return best

    def _step_switch(self, router: Router) -> None:
        vcs = self.config.vcs_per_port
        cycle = self.cycle
        # stage 1: each input port nominates one ready VC (round-robin)
        nominations: list[tuple[int, int, int, int, Flit]] = []
        for in_p in range(PORT_COUNT):
            start = router._sa_in_ptr[in_p]
            for k in range(vcs):
                in_v = (start + k) % vcs
                out = router.vc_out[in_p][in_v]
                if out is None:
                    continue
                queue = router.buf[in_p][in_v]
                if not queue:
                    continue
                flit = queue[0]
                if flit.is_head:
                    if cycle < router.vc_eligible[in_p][in_v]:
                        continue
                elif cycle < flit.arrival_cycle + BODY_SA_DELAY:
                    continue
                out_p, out_v = out
                if router.credits[out_p][out_v] <= 0:
                    continue
                if out_p != PORT_LOCAL:
                    link = router.links[out_p]
                    if link is None:
                        raise RuntimeError(
                            f"router {router.node}: allocated VC points at "
                            f"unconnected port {out_p}"
                        )
                    downstream = self.routers[link[0]]
                    if downstream.gated:
                        downstream.request_wake(cycle)
                        continue
                nominations.append((in_p, in_v, out_p, out_v, flit))
                break

        # stage 2: one grant per output port (round-robin over input ports)
        by_out: dict[int, list[tuple[int, int, int, int, Flit]]] = defaultdict(list)
        for nomination in nominations:
            by_out[nomination[2]].append(nomination)
        for out_p, candidates in by_out.items():
            candidates.sort(
                key=lambda c: (c[0] - router._sa_out_ptr[out_p]) % PORT_COUNT
            )
            in_p, in_v, _, out_v, flit = candidates[0]
            self._traverse(router, in_p, in_v, out_p, out_v, flit)
            router._sa_in_ptr[in_p] = (in_v + 1) % vcs
            router._sa_out_ptr[out_p] = (in_p + 1) % PORT_COUNT

    def _traverse(
        self,
        router: Router,
        in_p: int,
        in_v: int,
        out_p: int,
        out_v: int,
        flit: Flit,
    ) -> None:
        cycle = self.cycle
        router.buf[in_p][in_v].popleft()
        router.buffered_flits -= 1
        router.credits[out_p][out_v] -= 1
        router.last_active_cycle = cycle
        if self.counting:
            router.activity.buffer_reads += 1
            router.activity.crossbar_traversals += 1
            router.activity.switch_arbitrations += 1

        # return a credit to whoever feeds this input port
        if in_p != PORT_LOCAL:
            link = router.links[in_p]
            upstream, _ = link
            self._credit_events[cycle + CREDIT_DELAY].append(
                (upstream, REVERSE_PORT[in_p], in_v)
            )

        if flit.is_tail:
            router.out_owner[out_p][out_v] = None
            router.vc_out[in_p][in_v] = None

        if out_p == PORT_LOCAL:
            self.flits_in_flight -= 1
            if flit.is_tail:
                flit.packet.ejected_at = cycle + LINK_DELAY
                if self.on_packet_ejected is not None:
                    self.on_packet_ejected(flit.packet)
            return

        if self.counting:
            router.activity.link_traversals += 1
        if flit.is_head:
            flit.packet.hops += 1
        downstream, downstream_port = router.links[out_p]
        self._arrivals[cycle + LINK_DELAY].append(
            (downstream, downstream_port, out_v, flit)
        )

    # ------------------------------------------------------------------
    # fault support
    # ------------------------------------------------------------------
    def extract_in_flight(self) -> list[tuple[Packet, bool]]:
        """Every packet currently inside the network, in creation order.

        The second element is True when at least one flit of the packet has
        left its source NI (the packet must be *retransmitted* after a
        reconfiguration) and False while the packet is still queued whole at
        the NI (it only needs *rerouting* onto the new tables).
        """
        seen: dict[int, list] = {}

        def note(packet: Packet, entered: bool) -> None:
            state = seen.get(packet.pid)
            if state is None:
                seen[packet.pid] = [packet, entered]
            elif entered:
                state[1] = True

        for node in self.routers:
            inject = self._inject_state[node]
            if inject is not None:
                packet, injected, _vc = inject
                note(packet, injected > 0)
            for packet in self.source_queues[node]:
                note(packet, False)
        for router in self.routers.values():
            for port_buffers in router.buf:
                for queue in port_buffers:
                    for flit in queue:
                        note(flit.packet, True)
        for events in self._arrivals.values():
            for _node, _port, _vc, flit in events:
                note(flit.packet, True)
        return [(packet, entered) for _, (packet, entered) in sorted(seen.items())]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def idle(self) -> bool:
        """True when no flit is queued, buffered or in flight anywhere."""
        return self.flits_in_flight == 0

    def ni_busy(self, node: int) -> bool:
        """True while the node's NI is mid-packet or has queued packets."""
        return self._inject_state[node] is not None or bool(self.source_queues[node])

    def powered_routers(self) -> int:
        return sum(1 for r in self.routers.values() if not r.gated)
