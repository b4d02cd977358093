"""Streaming statistics collection.

Benchmarks use :class:`SampleStats` for latency distributions: streaming
moments plus the raw samples that percentiles are read from.
"""

from __future__ import annotations

import math
from typing import Iterable

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

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self._mean if self.n else math.nan

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def percentile(self, q: float) -> float:
        """Linearly interpolated percentile (the numpy ``linear`` method)."""
        if not self.samples:
            return math.nan
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        ordered = sorted(self.samples)
        pos = q / 100 * (len(ordered) - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        if lo == hi:
            return ordered[lo]
        frac = pos - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac
