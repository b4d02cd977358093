"""Overlay convergence metrics: how fast a provisioned fabric comes up.

Cloud provisioning of an HPC overlay has a distinct observable the
steady-state benchmarks never see: the interval between "start pushing
configuration" and "every host's overlay is routable".  This module
tracks it in *simulated* time — per-host ready timestamps, a running
counter suitable for :class:`~repro.obs.timeline.Timeline` rate series,
and health-log breadcrumbs — so provisioning experiments report
convergence deterministically.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Simulator
from .health import HealthLog
from .metrics import MetricsRegistry

__all__ = ["ConvergenceTracker"]


class ConvergenceTracker:
    """Records when each host's overlay configuration finishes applying.

    ``host_ready(name)`` is called (in simulated time) by the
    provisioner as each host's last command lands; once ``expected``
    hosts have reported, the overlay is *converged* and
    :attr:`converged_ns` freezes.  A ``topo.hosts_ready`` counter is
    kept in ``metrics`` (when given) so a timeline can plot the ramp,
    and per-host / convergence events go to ``health`` (when given).
    """

    READY_COUNTER = "topo.hosts_ready"

    def __init__(
        self,
        sim: Simulator,
        expected: int,
        metrics: Optional[MetricsRegistry] = None,
        health: Optional[HealthLog] = None,
    ):
        self.sim = sim
        self.expected = expected
        self.metrics = metrics
        self.health = health
        self.ready_ns: dict[str, int] = {}
        self.start_ns: int = sim.now
        self.converged_ns: Optional[int] = None

    def host_ready(self, name: str) -> None:
        """Mark ``name``'s overlay configuration as fully applied."""
        if name in self.ready_ns:
            return
        now = self.sim.now
        self.ready_ns[name] = now
        if self.metrics is not None:
            self.metrics.counter(self.READY_COUNTER).inc()
        if self.health is not None:
            self.health.emit(now, "provisioner", "host-provisioned",
                             message=name, value=float(len(self.ready_ns)))
        if len(self.ready_ns) >= self.expected and self.converged_ns is None:
            self.converged_ns = now
            if self.health is not None:
                self.health.emit(now, "provisioner", "overlay-converged",
                                 value=float(now - self.start_ns))

    @property
    def converged(self) -> bool:
        """True once every expected host has reported ready."""
        return self.converged_ns is not None

    def ramp(self) -> list[tuple[int, int]]:
        """``(t_ns, hosts_ready)`` steps, sorted by time — the
        convergence ramp for plotting or assertions."""
        times = sorted(self.ready_ns.values())
        return [(t, i + 1) for i, t in enumerate(times)]
