"""Latency and throughput collection with a measurement window."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Metrics:
    """Collects per-operation samples; honours a warmup boundary.

    Samples recorded before :attr:`window_start` (simulated ms) are
    dropped, so callers can warm caches and port lookups first.
    """

    window_start: float = 0.0
    window_end: float = math.inf
    samples: dict[str, list[float]] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, start_ms: float, end_ms: float) -> None:
        """One completed operation spanning [start_ms, end_ms]."""
        if start_ms < self.window_start or end_ms > self.window_end:
            return
        self.samples.setdefault(kind, []).append(end_ms - start_ms)

    def record_error(self, kind: str) -> None:
        self.errors[kind] = self.errors.get(kind, 0) + 1

    # -- summaries ---------------------------------------------------------

    def count(self, kind: str) -> int:
        return len(self.samples.get(kind, []))

    def mean(self, kind: str) -> float:
        values = self.samples.get(kind, [])
        return sum(values) / len(values) if values else math.nan

    def throughput_per_second(self, kind: str, window_ms: float) -> float:
        """Completed ops of *kind* per (simulated) second of window."""
        if window_ms <= 0:
            return 0.0
        return self.count(kind) * 1000.0 / window_ms
