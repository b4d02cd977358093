"""Metrics registry: named counters, gauges, and fixed-bucket histograms.

The registry is the always-on half of the observability layer (spans are
the opt-in half).  Components create their instruments once at
construction time and bump them on the hot path; instruments are plain
Python objects with integer/float fields, so the cost per update is one
attribute add.

Naming convention (see ``docs/observability.md``): dot-separated
``<subsystem>.<component>.<metric>``, e.g. ::

    vnet.core.h0.pkts_from_guest
    palacios.virtio.vm1.virtio0.tx_packets
    hw.nic.h0.nic.tx_bytes
    palacios.h0.exits.virtio-kick

A component's counters are plain int attributes, bumped with ``+= n``
and read as ints; the component is the only place a count is kept.
Its class lists them once, by metric suffix, in ``COUNTERS``, and the
component :meth:`~MetricsRegistry.publish`\\ es itself once under its
prefix.  The registry holds one entry per component and forms the
``<prefix>.<suffix>`` names only when a reader asks.  A suffix names
the attribute it spells as a Python name: ``.`` and ``-`` become ``_``
(``exits.virtio-kick`` is ``exits_virtio_kick``).

:class:`Counter` instruments remain for counts no component holds:
merge targets, and a counter *family* whose labels are only known at
run time (the fluid solver's per-reason releases), one counter per
label, named ``<prefix>.<label>`` and created at the label's first use.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cache
from typing import Iterator, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PublishedCounter",
    "bucket_percentile",
]


def bucket_percentile(
    edges: Sequence[float],
    counts: Sequence[int],
    q: float,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> float:
    """Approximate percentile from fixed-bucket counts, interpolating
    linearly within the bucket that holds the rank.

    ``lo`` bounds the first bucket from below and ``hi`` the overflow
    bucket from above; both default to the outer edges, which is what a
    *windowed* histogram delta (no exact min/max) has to go on.
    :meth:`Histogram.percentile` passes its exact extrema.  NaN when
    ``counts`` holds no observations.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    if lo is None:
        lo = edges[0]
    if hi is None:
        hi = edges[-1]
    total = sum(counts)
    if total == 0:
        return math.nan
    rank = q / 100 * total
    seen = 0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        if seen + c >= rank:
            low = edges[i - 1] if i > 0 else lo
            high = edges[i] if i < len(edges) else hi
            frac = (rank - seen) / c
            return low + (high - low) * frac
        seen += c
    return float(hi)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name}: negative increment {n}")
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


def _attribute(suffix: str) -> str:
    """The attribute a published counter's suffix names."""
    return suffix.replace(".", "_").replace("-", "_")


@cache
def _fields(cls: type) -> tuple[tuple[str, str], ...]:
    """``(suffix, attribute)`` of every counter ``cls`` publishes."""
    return tuple((suffix, _attribute(suffix)) for suffix in cls.COUNTERS)


def _owners(held: object) -> tuple:
    """The components of one registry prefix entry."""
    return held if type(held) is tuple else (held,)


class PublishedCounter(Counter):
    """A live :class:`Counter` face of one published count, made when a
    reader asks the registry for it by name.

    ``value`` is the sum of the owners' attribute (one owner unless a
    prefix was published twice); writes land on the first owner.
    """

    __slots__ = ("owners", "attribute")

    def __init__(self, name: str, owners: tuple, attribute: str):
        self.name = name
        self.owners = owners
        self.attribute = attribute

    @property
    def value(self) -> int:
        return sum(getattr(owner, self.attribute) for owner in self.owners)

    @value.setter
    def value(self, v: int) -> None:
        owner = self.owners[0]
        setattr(owner, self.attribute, getattr(owner, self.attribute) + v - self.value)


class Gauge:
    """A point-in-time value that can move both ways.

    A gauge can optionally record *set timestamps*: ``set(v, now_ns=...)``
    accumulates the time-weighted integral of the value, and
    :meth:`time_avg` then reports the average **weighted by how long each
    value was held** rather than the last value written.  That is the
    right reading for queue depths: a ring that held 40 entries for 1 µs
    and then sat empty for a second averages ≈0, where the last-value
    reading would report whatever the final sample happened to be.
    Timestamp-free ``set(v)`` keeps the old one-attribute-write cost.
    """

    __slots__ = ("name", "value", "first_set_ns", "last_set_ns", "weighted_ns")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.first_set_ns: Optional[int] = None
        self.last_set_ns: Optional[int] = None
        self.weighted_ns = 0.0

    def set(self, v: float, now_ns: Optional[int] = None) -> None:
        if now_ns is not None:
            if self.last_set_ns is None:
                self.first_set_ns = now_ns
            else:
                self.weighted_ns += self.value * (now_ns - self.last_set_ns)
            self.last_set_ns = now_ns
        self.value = v

    def inc(self, n: float = 1) -> None:
        self.value += n

    def time_avg(self, now_ns: int) -> float:
        """Time-weighted average value since the first timestamped set.

        The current value is extrapolated to ``now_ns``.  A gauge that
        has never been set with a timestamp degenerates to its current
        value (last-value semantics), so callers need not special-case
        un-migrated gauges.
        """
        if self.last_set_ns is None:
            return self.value
        span = now_ns - self.first_set_ns
        if span <= 0:
            return self.value
        held = self.weighted_ns + self.value * (now_ns - self.last_set_ns)
        return held / span

    def integral_ns(self, now_ns: int) -> float:
        """Value·time integral since the first timestamped set (the raw
        accumulator behind :meth:`time_avg`; timelines difference it to
        get per-window averages)."""
        if self.last_set_ns is None:
            return 0.0
        return self.weighted_ns + self.value * (now_ns - self.last_set_ns)

    def reset(self) -> None:
        self.value = 0.0
        self.first_set_ns = None
        self.last_set_ns = None
        self.weighted_ns = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Fixed-bucket histogram with streaming moments.

    ``edges`` are ascending upper bounds; an observation ``x`` lands in
    the first bucket whose edge satisfies ``x <= edge``, and in the
    implicit overflow bucket (``+inf``) beyond the last edge — so
    ``counts`` has ``len(edges) + 1`` entries.  Mean/min/max are kept
    exactly; percentiles interpolate within the bucket, which is the
    usual fixed-bucket approximation.
    """

    __slots__ = ("name", "edges", "counts", "count", "sum", "min", "max")

    def __init__(self, name: str, edges: Sequence[float]):
        if not edges:
            raise ValueError(f"histogram {name}: needs at least one bucket edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError(f"histogram {name}: edges must be strictly ascending")
        self.name = name
        self.edges: tuple[float, ...] = tuple(float(e) for e in edges)
        self.counts: list[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, x: float) -> None:
        self.counts[bisect_left(self.edges, x)] += 1
        self.count += 1
        self.sum += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def observe_weighted(self, x: float, n: int) -> None:
        """Record ``x`` as ``n`` observations at once.

        Equivalent to ``n`` calls to :meth:`observe` — used by aggregate
        recorders (the fluid fast path logs one value per stride for the
        whole stride's packets) so histograms stay packet-weighted, not
        wakeup-weighted.
        """
        if n <= 0:
            return
        self.counts[bisect_left(self.edges, x)] += n
        self.count += n
        self.sum += x * n
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def percentile(self, q: float) -> float:
        """Approximate percentile by linear interpolation within a bucket,
        bounded by the exact extrema."""
        return bucket_percentile(
            self.edges, self.counts, q, lo=min(self.min, self.edges[0]), hi=self.max
        )

    def reset(self) -> None:
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Name-keyed home for every metric one simulation publishes.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking for
    an existing name returns the same instrument (so wiring code may run
    twice), but asking with a conflicting type — or conflicting histogram
    edges — raises ``ValueError``.  ``counter`` on a published name
    returns a :class:`PublishedCounter` over the component's attribute.
    """

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        #: prefix -> the component publishing counters under it (a tuple
        #: of components when one prefix is published more than once).
        self._published: dict[str, object] = {}

    def publish(self, prefix: str, owner: object) -> None:
        """Publish ``owner``'s counters, ``type(owner).COUNTERS``, as
        ``<prefix>.<suffix>``.

        One entry per component; no name is formed until read.  A prefix
        published by two components reads as the sum of their counts, as
        two ``counter(name)`` calls share one counter; publishing the same
        component again changes nothing.  A name an instrument already
        holds raises ``ValueError``.
        """
        held = self._published.get(prefix)
        owners = () if held is None else _owners(held)
        if any(o is owner for o in owners):
            return
        if self._metrics:
            for suffix, _ in _fields(type(owner)):
                name = f"{prefix}.{suffix}"
                existing = self._metrics.get(name)
                if existing is not None:
                    raise ValueError(
                        f"metric {name!r} already registered as {type(existing).__name__}"
                    )
        self._published[prefix] = (*owners, owner) if owners else owner

    def _counts(self) -> Iterator[tuple[str, str, int]]:
        """``(prefix, suffix, value)`` of every published counter, a
        prefix's owners summed."""
        for prefix, held in self._published.items():
            total: dict[str, int] = {}
            for owner in _owners(held):
                for suffix, attribute in _fields(type(owner)):
                    total[suffix] = total.get(suffix, 0) + getattr(owner, attribute)
            for suffix, value in total.items():
                yield prefix, suffix, value

    def _published_counter(self, name: str) -> Optional[PublishedCounter]:
        """The published count called ``name``, or ``None``."""
        dot = name.find(".")
        while dot >= 0:
            held = self._published.get(name[:dot])
            if held is not None:
                suffix = name[dot + 1:]
                owners = tuple(
                    owner for owner in _owners(held) if suffix in type(owner).COUNTERS
                )
                if owners:
                    return PublishedCounter(name, owners, _attribute(suffix))
            dot = name.find(".", dot + 1)
        return None

    def _get_or_create(self, name: str, kind, factory):
        existing = self._metrics.get(name)
        if existing is None and self._published:
            existing = self._published_counter(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    f"metric {name!r} already registered as {type(existing).__name__}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        hist = self._get_or_create(name, Histogram, lambda: Histogram(name, edges))
        if hist.edges != tuple(float(e) for e in edges):
            raise ValueError(
                f"histogram {name!r} already registered with edges {hist.edges}"
            )
        return hist

    # -- queries ----------------------------------------------------------
    def get(self, name: str) -> Optional[Counter | Gauge | Histogram]:
        metric = self._metrics.get(name)
        return metric if metric is not None else self._published_counter(name)

    def names(self, prefix: str = "") -> list[str]:
        return sorted(self.snapshot(prefix))

    def snapshot(self, prefix: str = "") -> dict:
        """Plain-data view of every metric under ``prefix``, by name.

        Counters/gauges map to their value; histograms map to a dict with
        ``count``, ``sum``, ``edges``, and ``counts``.
        """
        out: dict[str, object] = {}
        for name, m in self._metrics.items():
            if not name.startswith(prefix):
                continue
            if isinstance(m, Histogram):
                out[name] = {
                    "count": m.count,
                    "sum": m.sum,
                    "edges": list(m.edges),
                    "counts": list(m.counts),
                }
            else:
                out[name] = m.value
        for owner_prefix, suffix, value in self._counts():
            name = f"{owner_prefix}.{suffix}"
            if name.startswith(prefix):
                out[name] = value
        return dict(sorted(out.items()))

    def reset(self) -> None:
        """Zero every registered metric (registrations are kept)."""
        for m in self._metrics.values():
            m.reset()
        for held in self._published.values():
            for owner in _owners(held):
                for _, attribute in _fields(type(owner)):
                    setattr(owner, attribute, 0)

    # -- cross-process aggregation ----------------------------------------
    def dump(self) -> dict:
        """Typed, picklable snapshot of every metric that moved, for
        :meth:`merge`.

        Unlike :meth:`snapshot` (a flat name→value view for humans and
        exporters), the dump records each instrument's kind so another
        registry — typically in the parent process of a worker pool —
        can reconstruct and combine it.  The dump is plain data (dicts,
        lists, numbers) and pickles cleanly across process boundaries.

        An instrument still in its fresh state is left out: a counter at
        0, a gauge at 0 that was never set with a timestamp, and a
        histogram with no observations.  Merging one would change
        nothing, so a reader takes an absent counter or gauge as 0 and
        an absent histogram as empty.
        """
        out: dict[str, dict] = {}
        for name, m in self._metrics.items():
            if isinstance(m, Counter):
                if m.value:
                    out[name] = {"type": "counter", "value": m.value}
            elif isinstance(m, Histogram):
                if m.count:
                    out[name] = {
                        "type": "histogram",
                        "edges": list(m.edges),
                        "counts": list(m.counts),
                        "count": m.count,
                        "sum": m.sum,
                        "min": m.min,
                        "max": m.max,
                    }
            elif m.value or m.last_set_ns is not None:
                entry = {"type": "gauge", "value": m.value}
                if m.last_set_ns is not None:
                    entry["first_set_ns"] = m.first_set_ns
                    entry["last_set_ns"] = m.last_set_ns
                    entry["weighted_ns"] = m.weighted_ns
                out[name] = entry
        for prefix, suffix, value in self._counts():
            if value:
                out[f"{prefix}.{suffix}"] = {"type": "counter", "value": value}
        return out

    def merge(self, dump: dict) -> None:
        """Merge a :meth:`dump` from another registry into this one.

        Counters and gauges add their values (a gauge dump is the
        instrument's final state in the source registry, so summing
        aggregates per-worker totals); histograms require identical
        edges and combine bucket counts, totals, and extrema.  Metric
        kinds must match any instrument already registered here —
        mismatches raise ``ValueError`` just like conflicting
        registrations do.
        """
        for name, entry in dump.items():
            kind = entry["type"]
            if kind == "counter":
                self.counter(name).inc(entry["value"])
            elif kind == "gauge":
                g = self.gauge(name)
                g.value += entry["value"]
                if "last_set_ns" in entry:
                    # Combine time-weighted state: integrals add, the
                    # observation window spans both sources.
                    g.weighted_ns += entry["weighted_ns"]
                    g.first_set_ns = (
                        entry["first_set_ns"] if g.first_set_ns is None
                        else min(g.first_set_ns, entry["first_set_ns"])
                    )
                    g.last_set_ns = (
                        entry["last_set_ns"] if g.last_set_ns is None
                        else max(g.last_set_ns, entry["last_set_ns"])
                    )
            elif kind == "histogram":
                h = self.histogram(name, entry["edges"])
                if len(entry["counts"]) != len(h.counts):
                    raise ValueError(
                        f"histogram {name!r}: merge with mismatched bucket count"
                    )
                for i, c in enumerate(entry["counts"]):
                    h.counts[i] += c
                h.count += entry["count"]
                h.sum += entry["sum"]
                h.min = min(h.min, entry["min"])
                h.max = max(h.max, entry["max"])
            else:
                raise ValueError(f"metric {name!r}: unknown dump kind {kind!r}")
