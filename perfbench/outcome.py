"""What a workload run hands back to the entry point."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.trace import Tracer


@dataclass
class Tally:
    """Operations attempted and failed; every failed check counts."""

    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += int(not ok)

    def fail(self, count: int = 1) -> None:
        self.attempted += count
        self.failed += count


@dataclass
class Outcome:
    tally: Tally
    end_to_end: dict[str, float]
    tracer: Tracer | None = None
    overhead_ratio: float = 1.0
    per_layer: dict[str, float] = field(default_factory=dict)
    """Per-layer metrics counted outside the spans."""
    notes: dict = field(default_factory=dict)
    """Sample counts and other context written to the result file."""


def percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e3 if len(seconds) else 0.0
