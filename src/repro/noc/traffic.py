"""Synthetic traffic generation.

Traffic is defined over a list of *endpoints* -- the nodes whose cores are
active and inject/accept packets.  For NoC-sprinting the endpoints are the
convex sprint region; for the full-sprinting comparison of Figure 11 they
are a random subset of the fully-powered mesh.

``injection_rate`` is in flits/cycle/endpoint (the unit the paper uses);
each endpoint runs an independent Bernoulli process generating
``rate / packet_length`` packets per cycle.

Patterns:

- ``uniform``        uniform-random over the other endpoints (paper Fig. 11)
- ``neighbor``       endpoint i -> endpoint (i+1) mod k
- ``bit_complement`` endpoint i -> endpoint (k-1-i)
- ``tornado``        endpoint i -> endpoint (i + ceil(k/2) - 1) mod k
- ``transpose``      grid transpose over the endpoint list (k must be square)
- ``shuffle``        perfect shuffle: rotate the endpoint index left by one
                     bit (k must be a power of two)
- ``hotspot``        a fraction of packets target a hotspot endpoint
                     (defaults to the first endpoint, i.e. the master node),
                     the rest are uniform

The permutation patterns are defined over the endpoint *index space* so
they stay meaningful on irregular sprint regions; on the full mesh with
endpoints 0..N-1 they reduce to the textbook mesh patterns.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from repro.noc.flit import Packet
from repro.util.rng import stream_seed


class TrafficGenerator:
    """Bernoulli packet source over a set of endpoints."""

    def __init__(
        self,
        endpoints: Sequence[int],
        injection_rate: float,
        packet_length: int,
        pattern: str = "uniform",
        seed: int = 0,
        hotspot_fraction: float = 0.5,
        hotspot_endpoint: int | None = None,
    ):
        if not endpoints:
            raise ValueError("traffic needs at least one endpoint")
        if injection_rate < 0:
            raise ValueError("injection rate must be non-negative")
        if packet_length < 1:
            raise ValueError("packet length must be positive")
        if not 0 <= hotspot_fraction <= 1:
            raise ValueError("hotspot fraction must be in [0, 1]")
        self.endpoints = list(endpoints)
        self.injection_rate = injection_rate
        self.packet_length = packet_length
        self.pattern = pattern
        self.hotspot_fraction = hotspot_fraction
        self.hotspot_endpoint = (
            hotspot_endpoint if hotspot_endpoint is not None else self.endpoints[0]
        )
        if self.hotspot_endpoint not in self.endpoints:
            raise ValueError("hotspot endpoint must be one of the endpoints")
        self._index = {node: i for i, node in enumerate(self.endpoints)}
        # the packet stream's seed; the compiled kernel seeds its own
        # MT19937 from it, so only a Python draw builds the Random
        self.stream_seed = stream_seed(seed, f"traffic-{pattern}")
        self._rng: random.Random | None = None
        self._next_pid = 0
        self._packet_probability = injection_rate / packet_length
        self._validate_pattern()

    def _stream(self) -> random.Random:
        """The packet stream, :func:`repro.util.rng.stream` of this
        generator's seed and pattern, built on first draw."""
        if self._rng is None:
            self._rng = random.Random(self.stream_seed)
        return self._rng

    def _validate_pattern(self) -> None:
        k = len(self.endpoints)
        known = {
            "uniform", "neighbor", "bit_complement", "tornado", "transpose",
            "shuffle", "hotspot",
        }
        if self.pattern not in known:
            raise ValueError(f"unknown traffic pattern {self.pattern!r}")
        if self.pattern == "transpose":
            side = math.isqrt(k)
            if side * side != k:
                raise ValueError("transpose traffic needs a square endpoint count")
        if self.pattern == "shuffle" and (k < 2 or k & (k - 1)):
            raise ValueError("shuffle traffic needs a power-of-two endpoint count")
        if self.pattern != "uniform" and k < 2:
            raise ValueError(f"{self.pattern} traffic needs at least 2 endpoints")

    def _destination(self, source: int) -> int | None:
        """Destination endpoint for a packet from ``source`` (None = skip)."""
        k = len(self.endpoints)
        i = self._index[source]
        if self.pattern == "uniform":
            if k < 2:
                return None
            j = self._stream().randrange(k - 1)
            if j >= i:
                j += 1
            return self.endpoints[j]
        if self.pattern == "neighbor":
            return self.endpoints[(i + 1) % k]
        if self.pattern == "bit_complement":
            j = k - 1 - i
            return None if j == i else self.endpoints[j]
        if self.pattern == "tornado":
            j = (i + (k + 1) // 2 - 1) % k
            return None if j == i else self.endpoints[j]
        if self.pattern == "transpose":
            side = math.isqrt(k)
            row, col = divmod(i, side)
            j = col * side + row
            return None if j == i else self.endpoints[j]
        if self.pattern == "shuffle":
            bits = k.bit_length() - 1
            j = ((i << 1) | (i >> (bits - 1))) & (k - 1)
            return None if j == i else self.endpoints[j]
        if self.pattern == "hotspot":
            if self._stream().random() < self.hotspot_fraction:
                j = self._index[self.hotspot_endpoint]
                if j != i:
                    return self.hotspot_endpoint
            if k < 2:
                return None
            j = self._stream().randrange(k - 1)
            if j >= i:
                j += 1
            return self.endpoints[j]
        raise AssertionError("unreachable")

    def packets_for_cycle(self, cycle: int, measured: bool) -> list[Packet]:
        """Packets created at this cycle (possibly empty)."""
        packets = []
        draw = self._stream().random
        for source in self.endpoints:
            if draw() >= self._packet_probability:
                continue
            destination = self._destination(source)
            if destination is None:
                continue
            packets.append(
                Packet(
                    pid=self._next_pid,
                    source=source,
                    destination=destination,
                    length=self.packet_length,
                    created_at=cycle,
                    measured=measured,
                )
            )
            self._next_pid += 1
        return packets
