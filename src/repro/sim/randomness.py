"""Named deterministic RNG streams.

Every source of randomness in the simulation draws from a stream keyed
by a stable name (e.g. ``"net.jitter"`` or ``"client.3.workload"``).
Streams derived from the same master seed are independent of each
other, so adding a new consumer of randomness never perturbs existing
streams — crucial for keeping regression benchmarks stable.
"""

from __future__ import annotations

import random

from repro.hashing import sha256


class RngStreams:
    """Factory of independent, reproducible ``random.Random`` streams."""

    def __init__(self, seed: int):
        self.seed = seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The RNG stream for *name* (created on first use)."""
        rng = self._streams.get(name)
        if rng is None:
            digest = sha256(f"{self.seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def uniform(self, name: str, low: float, high: float) -> float:
        """One uniform draw from the named stream."""
        return self.stream(name).uniform(low, high)
