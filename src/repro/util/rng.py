"""Seeded random-number streams.

Every stochastic component in the simulator draws from its own named stream
derived from a single experiment seed, so results are reproducible and
independent components do not perturb each other's sequences when one of
them changes how many numbers it draws.
"""

from __future__ import annotations

import random
import zlib


def stream_seed(seed: int, name: str) -> int:
    """The 32-bit seed of stream (seed, name).

    It mixes the experiment seed with a CRC of the stream name, which is
    stable across processes and Python versions (unlike ``hash``).
    """
    return (seed * 0x9E3779B1 + zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFF


def stream(seed: int, name: str) -> random.Random:
    """Return an independent :class:`random.Random` for (seed, name),
    seeded with :func:`stream_seed`."""
    return random.Random(stream_seed(seed, name))
