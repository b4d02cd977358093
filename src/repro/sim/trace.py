"""Streaming statistics collection.

Benchmarks use :class:`SampleStats` for latency distributions without
keeping every sample in Python lists when very large.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["SampleStats"]


class SampleStats:
    """Streaming mean/variance/min/max plus an optional sample reservoir."""

    def __init__(self, keep_samples: bool = True):
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples: list[float] | None = [] if keep_samples else None

    def add(self, x: float) -> None:
        self.n += 1
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        self.min = min(self.min, x)
        self.max = max(self.max, x)
        if self.samples is not None:
            self.samples.append(x)

    def add_weighted(self, x: float, weight: float) -> None:
        """Add ``x`` carrying ``weight`` observations' worth of mass.

        Weighted West/Welford update: an integral weight ``w`` gives the
        exact moments of calling :meth:`add` ``w`` times with ``x`` (the
        hybrid fluid fast path records one aggregate value per stride,
        weighted by the packets the stride stands for, so means are
        time/packet-weighted rather than per-wakeup point samples).
        Fractional weights interpolate.  The sample reservoir records
        ``(x, weight)`` as round(weight) repeats, capped at 64 per call
        to keep stride aggregation from flooding it.
        """
        if weight <= 0:
            return
        self.n += weight
        delta = x - self._mean
        self._mean += delta * weight / self.n
        self._m2 += delta * (x - self._mean) * weight
        self.min = min(self.min, x)
        self.max = max(self.max, x)
        if self.samples is not None:
            self.samples.extend([x] * min(64, max(1, round(weight))))

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    def merge(self, other: "SampleStats") -> "SampleStats":
        """Fold another stats object into this one (parallel combine).

        Uses the Chan et al. pairwise update for mean/variance, so
        merging per-worker stats gives the same moments as streaming
        every sample through one object.  The sample reservoir is kept
        only if both sides kept theirs (order: self's samples, then
        other's).  Returns ``self`` for chaining.
        """
        if other.n == 0:
            return self
        if self.n == 0:
            self.n = other.n
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.samples = None if (self.samples is None or other.samples is None) \
                else list(other.samples)
            return self
        n = self.n + other.n
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.n * other.n / n
        self._mean += delta * other.n / n
        self.n = n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        if self.samples is None or other.samples is None:
            self.samples = None
        else:
            self.samples.extend(other.samples)
        return self

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
        if self.samples is None:
            raise ValueError("percentiles need keep_samples=True")
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
