"""Sim-time time-series: windowed samplers over the metrics registry.

The registry (:mod:`repro.obs.metrics`) answers "how much, in total";
this module answers "how much, *when*".  A :class:`Timeline` owns a set
of :class:`Series` — fixed-size ring buffers of ``(t_ns, value)``
samples — each fed by a sampler closure that reads one instrument on a
virtual-time cadence:

* **counter rates** — per-window deltas of a counter, scaled to a
  per-second rate (``bytes`` counters become goodput curves, heartbeat
  counters become beat-rate curves);
* **gauge values** — the gauge's last value, or its per-window
  time-weighted average when the gauge records set timestamps
  (:meth:`repro.obs.metrics.Gauge.time_avg`);
* **histogram window percentiles** — the approximate percentile of the
  observations that landed *in this window*, from bucket-count deltas
  (latency-over-time, Fig. 9 as a function of run time);
* **callables** — any ``fn(now_ns) -> float``, which is how
  :mod:`repro.obs.flows` feeds percentile-over-time series.

All sampling is driven by one bounded simulator process
(:meth:`Timeline.start`); until the first series is registered no
process exists and nothing on any hot path changes, so the cost of the
subsystem is exactly zero when unused.  Sampling reads instruments the
components already maintain — registering a series never adds work to a
packet path.

Exports: :meth:`Timeline.to_csv` (long-format ``series,t_ns,value``),
:meth:`Timeline.chrome_counter_events` (Chrome ``trace_event`` counter
(``"ph": "C"``) events, mergeable with span traces), and
:meth:`Timeline.render` (text summary table).  For cross-process
aggregation (``repro.exec`` worker fan-out) :meth:`Timeline.dump`
produces a plain-data snapshot and :func:`merge_dumps` recombines any
number of them by series name.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from ..units import SECOND
from .metrics import MetricsRegistry, bucket_percentile

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator

__all__ = [
    "Series",
    "Timeline",
    "merge_dumps",
    "DEFAULT_INTERVAL_NS",
    "DEFAULT_CAPACITY",
]

#: Default sampling cadence: 100 µs of virtual time per window.
DEFAULT_INTERVAL_NS = 100_000
#: Default ring capacity per series (samples beyond this evict oldest).
DEFAULT_CAPACITY = 4096


class Series:
    """Fixed-size ring buffer of ``(t_ns, value)`` samples for one signal."""

    __slots__ = ("name", "unit", "capacity", "_t", "_v")

    def __init__(self, name: str, unit: str = "", capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"series {name}: capacity must be >= 1")
        self.name = name
        self.unit = unit
        self.capacity = capacity
        self._t: deque[int] = deque(maxlen=capacity)
        self._v: deque[float] = deque(maxlen=capacity)

    def append(self, t_ns: int, value: float) -> None:
        """Record one sample (oldest sample evicted once full)."""
        self._t.append(t_ns)
        self._v.append(value)

    def __len__(self) -> int:
        return len(self._t)

    @property
    def times(self) -> list[int]:
        """Sample timestamps (ns), oldest first."""
        return list(self._t)

    @property
    def values(self) -> list[float]:
        """Sample values, oldest first."""
        return list(self._v)

    def samples(self) -> list[tuple[int, float]]:
        """``(t_ns, value)`` pairs, oldest first."""
        return list(zip(self._t, self._v))

    def last(self) -> Optional[tuple[int, float]]:
        """Most recent sample, or None when empty."""
        if not self._t:
            return None
        return self._t[-1], self._v[-1]

    def finite_values(self) -> list[float]:
        """Values with NaN windows (e.g. empty histogram windows) dropped."""
        return [v for v in self._v if not math.isnan(v)]

    def to_dict(self) -> dict:
        """Plain-data form for :meth:`Timeline.dump` / :func:`merge_dumps`."""
        return {
            "name": self.name,
            "unit": self.unit,
            "capacity": self.capacity,
            "t": list(self._t),
            "v": list(self._v),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Series":
        """Inverse of :meth:`to_dict`."""
        s = cls(d["name"], unit=d.get("unit", ""), capacity=d["capacity"])
        for t, v in zip(d["t"], d["v"]):
            s.append(t, v)
        return s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Series {self.name} n={len(self)}>"


class Timeline:
    """A set of sampled series over one simulator's virtual clock.

    Registration is get-or-create by series name (like the registry),
    so wiring code may run twice.  The sampling process is spawned by
    :meth:`start` and is bounded by ``until_ns`` so a drained
    ``sim.run()`` terminates; :meth:`tick` can also be called directly
    (e.g. from a harness loop) for cadence-free sampling.
    """

    def __init__(
        self,
        sim: "Simulator",
        registry: MetricsRegistry,
        interval_ns: int = DEFAULT_INTERVAL_NS,
        capacity: int = DEFAULT_CAPACITY,
    ):
        if interval_ns <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval_ns}")
        self.sim = sim
        self.registry = registry
        self.interval_ns = int(interval_ns)
        self.capacity = capacity
        self.series: dict[str, Series] = {}
        self._samplers: list[tuple[Series, Callable[[int], float]]] = []
        self._observers: list[Callable[[int], None]] = []
        self._running = False

    @property
    def active(self) -> bool:
        """Whether any series is registered (sampling has a purpose)."""
        return bool(self._samplers)

    # -- registration ------------------------------------------------------
    def _register(
        self, name: str, fn: Callable[[int], float], unit: str
    ) -> Series:
        existing = self.series.get(name)
        if existing is not None:
            return existing
        series = Series(name, unit=unit, capacity=self.capacity)
        self.series[name] = series
        self._samplers.append((series, fn))
        return series

    def counter_rate(self, metric: str, series: Optional[str] = None,
                     unit: str = "/s") -> Series:
        """Sample a counter's per-window delta as a per-second rate."""
        counter = self.registry.counter(metric)
        state = [counter.value, self.sim.now]

        def sample(now_ns: int) -> float:
            delta = counter.value - state[0]
            dt = now_ns - state[1]
            state[0] = counter.value
            state[1] = now_ns
            return delta * SECOND / dt if dt > 0 else 0.0

        return self._register(series or f"{metric}.rate", sample, unit)

    def gauge_value(self, metric: str, series: Optional[str] = None,
                    time_avg: bool = False, unit: str = "") -> Series:
        """Sample a gauge: last value, or per-window time-weighted average.

        ``time_avg=True`` differences the gauge's value·time integral
        across the window, so it needs a gauge whose writers pass set
        timestamps; a timestamp-free gauge degenerates to last-value.
        """
        gauge = self.registry.gauge(metric)
        if not time_avg:
            return self._register(series or metric, lambda now: gauge.value, unit)
        state = [gauge.integral_ns(self.sim.now), self.sim.now]

        def sample(now_ns: int) -> float:
            integral = gauge.integral_ns(now_ns)
            dt = now_ns - state[1]
            avg = (integral - state[0]) / dt if dt > 0 else gauge.value
            state[0] = integral
            state[1] = now_ns
            return avg

        return self._register(series or f"{metric}.time_avg", sample, unit)

    def histogram_percentile(self, metric: str, q: float,
                             series: Optional[str] = None,
                             unit: str = "ns") -> Series:
        """Sample the approximate ``q``-th percentile of the observations
        that landed in each window (NaN for empty windows)."""
        hist = self.registry.get(metric)
        if hist is None or not hasattr(hist, "edges"):
            raise ValueError(f"{metric!r} is not a registered histogram")
        state = [list(hist.counts)]

        def sample(now_ns: int) -> float:
            counts = hist.counts
            delta = [c - p for c, p in zip(counts, state[0])]
            state[0] = list(counts)
            return bucket_percentile(hist.edges, delta, q)

        return self._register(series or f"{metric}.p{q:g}", sample, unit)

    def record(self, series: str, fn: Callable[[int], float],
               unit: str = "") -> Series:
        """Register an arbitrary sampler ``fn(now_ns) -> float``."""
        return self._register(series, fn, unit)

    def attach(self, observer: Callable[[int], None]) -> None:
        """Call ``observer(now_ns)`` after each tick (health monitors)."""
        self._observers.append(observer)

    # -- sampling ----------------------------------------------------------
    def tick(self) -> None:
        """Take one sample of every series at ``sim.now``."""
        now = self.sim.now
        for series, fn in self._samplers:
            series.append(now, fn(now))
        for observer in self._observers:
            observer(now)

    def start(self, until_ns: int):
        """Spawn the sampling process (one per timeline); returns it.

        Samples every ``interval_ns`` of virtual time until ``until_ns``,
        with a final tick at the horizon so the last partial window is
        captured.  Raises if the driver is already running.
        """
        if self._running:
            raise RuntimeError("timeline sampler already running")
        self._running = True
        return self.sim.process(self._run(int(until_ns)), name="obs.timeline")

    def _run(self, until_ns: int):
        while self.sim.now + self.interval_ns <= until_ns:
            yield self.interval_ns
            self.tick()
        if self.sim.now < until_ns:
            yield until_ns - self.sim.now
            self.tick()
        self._running = False

    # -- exports -----------------------------------------------------------
    def to_csv(self) -> str:
        """Long-format CSV: ``series,unit,t_ns,value`` (NaN as empty)."""
        lines = ["series,unit,t_ns,value"]
        for name in sorted(self.series):
            s = self.series[name]
            for t, v in s.samples():
                val = "" if math.isnan(v) else repr(v)
                lines.append(f"{name},{s.unit},{t},{val}")
        return "\n".join(lines) + "\n"

    def chrome_counter_events(self) -> list[dict]:
        """Chrome ``trace_event`` counter (``"ph": "C"``) events.

        Merge into a span trace's ``traceEvents`` list to see rate and
        occupancy curves under the per-packet spans in Perfetto.
        """
        events = []
        for name in sorted(self.series):
            s = self.series[name]
            for t, v in s.samples():
                if math.isnan(v):
                    continue
                events.append(
                    {
                        "name": name,
                        "ph": "C",
                        "ts": t / 1000.0,
                        "pid": 0,
                        "tid": 0,
                        "args": {"value": v},
                    }
                )
        return events

    def render(self, title: str = "timelines") -> str:
        """Summary table: one row per series over its retained window."""
        lines = [
            f"== time-series ({title}; window {self.interval_ns / 1000:.0f} us) ==",
            f"{'series':44} {'n':>5} {'min':>12} {'mean':>12} {'max':>12} {'last':>12}",
        ]
        for name in sorted(self.series):
            s = self.series[name]
            vals = s.finite_values()
            if vals:
                mn, mx = min(vals), max(vals)
                mean = sum(vals) / len(vals)
                last = s.last()[1]
                last_s = "" if math.isnan(last) else f"{last:12.1f}"
                lines.append(
                    f"{name:44} {len(s):5d} {mn:12.1f} {mean:12.1f} {mx:12.1f} {last_s:>12}"
                )
            else:
                lines.append(f"{name:44} {len(s):5d} {'-':>12} {'-':>12} {'-':>12} {'-':>12}")
        return "\n".join(lines)

    # -- cross-process aggregation ----------------------------------------
    def dump(self) -> dict:
        """Plain-data snapshot of every series (picklable, JSONable)."""
        return {
            "interval_ns": self.interval_ns,
            "series": {name: s.to_dict() for name, s in self.series.items()},
        }


def merge_dumps(dumps: Iterable[dict]) -> dict[str, Series]:
    """Recombine :meth:`Timeline.dump` snapshots by series name.

    Same-name series from different workers (or cached points) are
    concatenated and re-sorted by sample time; capacity grows to hold
    the union so merging never silently drops samples.
    """
    merged: dict[str, list[tuple[int, float]]] = {}
    units: dict[str, str] = {}
    for dump in dumps:
        for name, d in dump.get("series", {}).items():
            merged.setdefault(name, []).extend(zip(d["t"], d["v"]))
            units.setdefault(name, d.get("unit", ""))
    out: dict[str, Series] = {}
    for name, samples in merged.items():
        samples.sort(key=lambda tv: tv[0])
        series = Series(name, unit=units[name], capacity=max(1, len(samples)))
        for t, v in samples:
            series.append(t, v)
        out[name] = series
    return out
