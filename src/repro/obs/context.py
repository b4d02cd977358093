"""Per-simulation observability context.

One :class:`Observability` instance pairs a :class:`~repro.obs.span.SpanRecorder`
with a :class:`~repro.obs.metrics.MetricsRegistry` for one
:class:`~repro.sim.Simulator`.  Components obtain it with
``Observability.of(sim)`` at construction time; the instance is created
lazily and cached on the simulator, so every subsystem sharing a
simulator shares one recorder and one registry — without the simulation
kernel itself knowing anything about observability.

Typical use::

    from repro.obs.context import Observability

    obs = Observability.of(tb.sim)
    obs.spans.enabled = True          # opt into span recording
    ... run the workload ...
    obs.metrics.snapshot("vnet.")     # counters are always on
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from .metrics import MetricsRegistry
from .span import SpanRecorder

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator
    from .health import HealthHub
    from .timeline import Timeline

__all__ = ["Observability", "RunCapture", "capture_run"]

_ATTR = "_repro_obs"


class RunCapture:
    """The observability of every simulation created inside one
    :func:`capture_run`.

    Registries are collected when a simulation's :class:`Observability`
    is created; timelines and health hubs only on first access, so a
    simulation that never samples a series or touches its hub
    contributes nothing (and pays nothing).
    """

    def __init__(self):
        self.registries: list[MetricsRegistry] = []
        self.timelines: list["Timeline"] = []
        self.hubs: list["HealthHub"] = []

    def dump(self) -> dict:
        """The run's ``metrics`` / ``timelines`` / ``health`` sections.

        ``metrics`` merges every registry's typed dump; ``timelines``
        holds one :meth:`~repro.obs.timeline.Timeline.dump` per timeline
        with series; ``health`` holds every hub's events as dicts, in
        emission order.  All three are picklable plain data — what
        :mod:`repro.exec` ships back from workers and what
        :class:`~repro.obs.runinfo.RunArtifact` serializes.
        """
        merged = MetricsRegistry()
        for registry in self.registries:
            merged.merge(registry.dump())
        return {
            "metrics": merged.dump(),
            "timelines": [tl.dump() for tl in self.timelines if tl.series],
            "health": [e.to_dict() for hub in self.hubs for e in hub.log.events],
        }


# Active captures (a stack, innermost last).  Each newly created
# Observability, timeline and health hub registers in the innermost one.
_capture_stack: list[RunCapture] = []


@contextmanager
def capture_run() -> Iterator[RunCapture]:
    """Collect the observability of every simulation created inside.

    :mod:`repro.exec` wraps each point function in this, so the point's
    metrics, timelines and health events ship back without the function
    threading a registry through.  Captures nest; simulations land in
    the innermost active capture only.
    """
    capture = RunCapture()
    _capture_stack.append(capture)
    try:
        yield capture
    finally:
        _capture_stack.pop()


class Observability:
    """Span recorder + metrics registry (+ lazy timeline/health) for one
    simulation."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.spans = SpanRecorder(sim)
        self.metrics = MetricsRegistry()
        self._timeline: Optional["Timeline"] = None
        self._health: Optional["HealthHub"] = None
        if _capture_stack:
            _capture_stack[-1].registries.append(self.metrics)

    @classmethod
    def of(cls, sim: "Simulator") -> "Observability":
        """The simulator's observability context (created on first use)."""
        obs = getattr(sim, _ATTR, None)
        if obs is None:
            obs = cls(sim)
            setattr(sim, _ATTR, obs)
        return obs

    @property
    def timeline(self) -> "Timeline":
        """The simulation's time-series store (created on first access).

        Nothing is sampled — and no simulator process exists — until
        series are registered and :meth:`~repro.obs.timeline.Timeline.start`
        is called, so merely importing this property costs nothing.
        """
        if self._timeline is None:
            from .timeline import Timeline

            self._timeline = Timeline(self.sim, self.metrics)
            if _capture_stack:
                _capture_stack[-1].timelines.append(self._timeline)
        return self._timeline

    @property
    def health(self) -> "HealthHub":
        """The simulation's health hub (created on first access).

        Instrumented subsystems emit :class:`~repro.obs.health.HealthEvent`s
        into ``health.log``; detectors registered on the hub piggyback
        on the timeline's sampling cadence via
        :meth:`~repro.obs.health.HealthHub.attach_to`.
        """
        if self._health is None:
            from .health import HealthHub

            self._health = HealthHub()
            if _capture_stack:
                _capture_stack[-1].hubs.append(self._health)
        return self._health

    def reset(self) -> None:
        """Drop recorded spans, zero all metrics, clear timeline/health."""
        self.spans.reset()
        self.metrics.reset()
        self._timeline = None
        if self._health is not None:
            self._health.log.reset()
