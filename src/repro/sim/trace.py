"""Streaming statistics collection.

Benchmarks use :class:`SampleStats` for latency distributions: streaming
moments plus the raw samples.
"""

from __future__ import annotations

import math

__all__ = ["SampleStats"]


class SampleStats:
    """Streaming mean/variance/min/max plus every sample, in order."""

    def __init__(self):
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples: list[float] = []

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        self.min = min(self.min, x)
        self.max = max(self.max, x)
        self.samples.append(x)

    @property
    def mean(self) -> float:
        return self._mean if self.n else math.nan

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)
