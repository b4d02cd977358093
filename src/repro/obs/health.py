"""Health: an event log and anomaly detectors over telemetry.

The chaos subsystem (:mod:`repro.chaos`) can break an overlay; this
module is how the breakage is *read off the telemetry* instead of by
poking route tables.  Three pieces:

* :class:`HealthEvent` / :class:`HealthLog` — the timestamped event
  bus.  Instrumented subsystems (the phi detector in
  :mod:`repro.vnet.monitor`, failover in :mod:`repro.vnet.adaptation`,
  fault windows in :mod:`repro.chaos.schedule`) emit state transitions
  here with exact virtual timestamps, so "when was the partition
  detected" is a log query, not a data-structure inspection.
* detectors — :class:`GoodputCollapseDetector` (rate falls below a
  fraction of its observed peak) and :class:`HeartbeatSilenceDetector`
  (a counter stops advancing).  Each consumes one
  :class:`~repro.obs.timeline.Series` (or counter) and emits paired
  breach/recovery events, so durations fall out of the log.
* :class:`HealthHub` — owns the log and the monitors and rides a
  :class:`~repro.obs.timeline.Timeline`'s sampling cadence: monitors
  are checked after every tick, and cost nothing when none are
  registered.

Events are plain data (``to_dict``/``from_dict`` round-trip, which is
how they ship in :class:`~repro.obs.runinfo.RunArtifact` bundles),
deterministic in virtual time, and ordered by ``(t_ns, seq)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .metrics import Counter
from .timeline import Series, Timeline

__all__ = [
    "HealthEvent",
    "HealthLog",
    "HealthHub",
    "GoodputCollapseDetector",
    "HeartbeatSilenceDetector",
]

#: Event severities, mildest first.
SEVERITIES = ("info", "warning", "critical")


@dataclass
class HealthEvent:
    """One timestamped health-state transition."""

    t_ns: int
    monitor: str
    kind: str
    severity: str = "info"
    message: str = ""
    value: float = math.nan
    seq: int = 0

    def to_dict(self) -> dict:
        """JSON-serialisable form (the artifact ``health`` schema)."""
        return {
            "t_ns": self.t_ns,
            "monitor": self.monitor,
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "value": None if math.isnan(self.value) else self.value,
            "seq": self.seq,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "HealthEvent":
        """Inverse of :meth:`to_dict`."""
        value = d.get("value")
        return cls(
            t_ns=d["t_ns"],
            monitor=d["monitor"],
            kind=d["kind"],
            severity=d.get("severity", "info"),
            message=d.get("message", ""),
            value=math.nan if value is None else value,
            seq=d.get("seq", 0),
        )


class HealthLog:
    """Ordered, timestamped health events for one simulation."""

    def __init__(self):
        self.events: list[HealthEvent] = []
        self._seq = 0

    def emit(self, t_ns: int, monitor: str, kind: str, severity: str = "info",
             message: str = "", value: float = math.nan) -> HealthEvent:
        """Append one event; returns it."""
        if severity not in SEVERITIES:
            raise ValueError(f"unknown severity {severity!r}")
        self._seq += 1
        event = HealthEvent(t_ns=t_ns, monitor=monitor, kind=kind,
                            severity=severity, message=message, value=value,
                            seq=self._seq)
        self.events.append(event)
        return event

    def of_kind(self, kind: str, monitor: Optional[str] = None
                ) -> list[HealthEvent]:
        """Events with the given kind (and monitor, when given)."""
        return [e for e in self.events
                if e.kind == kind and (monitor is None or e.monitor == monitor)]

    def first(self, kind: str, monitor: Optional[str] = None,
              after_ns: int = -1) -> Optional[HealthEvent]:
        """Earliest event of ``kind`` at or after ``after_ns``, or None."""
        for e in self.events:
            if e.kind == kind and e.t_ns >= after_ns and (
                monitor is None or e.monitor == monitor
            ):
                return e
        return None

    def __len__(self) -> int:
        return len(self.events)

    def reset(self) -> None:
        """Drop all events (sequence numbering restarts)."""
        self.events.clear()
        self._seq = 0

    def render(self, title: str = "health events") -> str:
        """Text table of the log, one event per line."""
        lines = [f"== {title} ==",
                 f"{'t (ms)':>10} {'sev':8} {'monitor':28} {'kind':20} message"]
        for e in self.events:
            lines.append(
                f"{e.t_ns / 1e6:10.3f} {e.severity:8} {e.monitor:28} "
                f"{e.kind:20} {e.message}"
            )
        return "\n".join(lines)


class Monitor:
    """Base class: checked after every timeline tick.

    Subclasses implement :meth:`check`, emitting paired breach/recovery
    events into ``self.log``; ``self.breached`` tracks current state so
    transitions emit exactly once.
    """

    def __init__(self, name: str, log: HealthLog):
        self.name = name
        self.log = log
        self.breached = False

    def check(self, now_ns: int) -> None:  # pragma: no cover - interface
        """Inspect the watched telemetry at ``now_ns``."""
        raise NotImplementedError

    def _transition(self, now_ns: int, breach: bool, kind: str,
                    severity: str, message: str, value: float) -> None:
        if breach and not self.breached:
            self.breached = True
            self.log.emit(now_ns, self.name, kind, severity, message, value)
        elif not breach and self.breached:
            self.breached = False
            self.log.emit(now_ns, self.name, f"{kind}-recovered", "info",
                          message, value)


class GoodputCollapseDetector(Monitor):
    """Fires when a rate series collapses below a fraction of its peak.

    The baseline is the running peak of the series (goodput ramps up,
    then a fault knocks it down); collapse = sample below
    ``collapse_frac * peak`` once the peak has cleared ``min_rate``
    (warm-up guard).  Emits ``goodput-collapse`` / ``-recovered``.
    """

    def __init__(self, name: str, log: HealthLog, series: Series,
                 collapse_frac: float = 0.2, min_rate: float = 1.0):
        super().__init__(name, log)
        if not 0 < collapse_frac < 1:
            raise ValueError(f"collapse_frac must be in (0, 1), got {collapse_frac}")
        self.series = series
        self.collapse_frac = collapse_frac
        self.min_rate = min_rate
        self.peak = 0.0

    def check(self, now_ns: int) -> None:
        """Update the peak and test the newest sample against it."""
        last = self.series.last()
        if last is None or math.isnan(last[1]):
            return
        value = last[1]
        if value > self.peak:
            self.peak = value
        if self.peak < self.min_rate:
            return
        self._transition(
            now_ns, value < self.collapse_frac * self.peak, "goodput-collapse",
            "critical",
            f"{self.series.name}={value:g} < {self.collapse_frac:g} x "
            f"peak {self.peak:g}",
            value,
        )


class HeartbeatSilenceDetector(Monitor):
    """Fires when a counter stops advancing for consecutive windows.

    Watches any monotonically increasing counter (heartbeats received,
    packets delivered); silence = no increment for ``windows``
    consecutive checks after the counter has moved at least once.
    Emits ``heartbeat-silence`` / ``heartbeat-silence-recovered``.
    """

    def __init__(self, name: str, log: HealthLog, counter: Counter,
                 windows: int = 2):
        super().__init__(name, log)
        if windows < 1:
            raise ValueError(f"windows must be >= 1, got {windows}")
        self.counter = counter
        self.windows = windows
        self._last = counter.value
        self._still = 0
        self._ever_moved = False

    def check(self, now_ns: int) -> None:
        """Compare the counter against its value at the previous check."""
        value = self.counter.value
        if value != self._last:
            self._ever_moved = True
            self._still = 0
        else:
            self._still += 1
        self._last = value
        if not self._ever_moved:
            return
        self._transition(
            now_ns, self._still >= self.windows, "heartbeat-silence",
            "critical",
            f"{self.counter.name} stalled at {value} "
            f"for {self._still} window(s)",
            float(value),
        )


class HealthHub:
    """Monitors + log, riding a timeline's sampling cadence.

    ``hub.attach_to(timeline)`` registers the hub as a tick observer;
    every monitor is checked after each sampling tick, in registration
    order, so event timestamps land on window boundaries — except for
    events emitted directly into :attr:`log` by instrumented
    subsystems, which carry their exact transition time.
    """

    def __init__(self, log: Optional[HealthLog] = None):
        self.log = log if log is not None else HealthLog()
        self.monitors: list[Monitor] = []

    def add(self, monitor: Monitor) -> Monitor:
        """Register a monitor (returns it, for chaining)."""
        self.monitors.append(monitor)
        return monitor

    def attach_to(self, timeline: Timeline) -> "HealthHub":
        """Check all monitors after every tick of ``timeline``."""
        timeline.attach(self.check)
        return self

    def check(self, now_ns: int) -> None:
        """Run every monitor once against the current telemetry."""
        for monitor in self.monitors:
            monitor.check(now_ns)
