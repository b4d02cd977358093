"""Overlay traffic monitoring (Sect. 3, items 1-2) and link liveness.

The VNET layer is "a locus of activity for an adaptive system": it can
observe application communication behaviour without guest cooperation.
This module implements the passive part — a per-core traffic matrix
keyed by (source MAC, destination MAC) with byte/packet counts and
rates — which an adaptation engine (see :mod:`repro.vnet.adaptation`)
turns into topology/routing changes.

It also tracks **overlay link health** from the heartbeats emitted by
:class:`~repro.vnet.heartbeat.HeartbeatService`: each watched link has
a :class:`LinkHealth` record with an EWMA of the inter-heartbeat
interval, and a simplified phi-accrual detector (:meth:`TrafficMonitor.phi`
= silence measured in mean intervals) declares a link dead once phi
exceeds ``phi_threshold``.  Unlike a fixed timeout, the detector adapts
to the actual heartbeat cadence the link has been delivering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..obs.context import Observability
from ..sim import Simulator
from ..units import SECOND

if TYPE_CHECKING:  # pragma: no cover
    from .core import VnetCore

__all__ = ["FlowStats", "LinkHealth", "TrafficMonitor"]


@dataclass
class FlowStats:
    """Cumulative observation of one (src, dst) MAC flow."""

    src: str
    dst: str
    packets: int = 0
    bytes: int = 0
    first_seen_ns: int = 0
    last_seen_ns: int = 0

    def rate_Bps(self, now_ns: int) -> float:
        """Average byte rate over the flow's observed lifetime.

        The observation window runs from ``first_seen_ns`` to the later of
        ``now_ns`` and ``last_seen_ns``.  A zero-length window (a flow's
        very first packet, observed just now) has no meaningful rate and
        reports 0.0 rather than an arbitrarily inflated value.
        """
        span = max(now_ns, self.last_seen_ns) - self.first_seen_ns
        if span <= 0:
            return 0.0
        return self.bytes * SECOND / span


@dataclass
class LinkHealth:
    """Liveness state of one watched overlay link.

    ``mean_interval_ns`` is an EWMA of observed inter-heartbeat gaps,
    seeded with the expected cadence at watch time so the detector is
    calibrated before the first beat lands.
    """

    link: str
    peer_ip: str
    expected_interval_ns: int
    watched_since_ns: int
    beats: int = 0
    last_heard_ns: int = -1
    mean_interval_ns: float = 0.0

    # EWMA smoothing factor for observed heartbeat gaps.
    ALPHA = 0.2


class TrafficMonitor:
    """Observes every packet a VNET/P core routes, and its links' health.

    Installed by wrapping the core's outbound processing; the core calls
    :meth:`observe` from both data paths.  Cost-free in simulated time —
    the real system piggybacks counters on the routing lookup it already
    performs.  Link liveness is fed by heartbeat interception on the
    core's inbound port (:meth:`note_heartbeat_from`).
    """

    #: A link is declared dead once it has been silent for this many
    #: mean heartbeat intervals (simplified phi-accrual threshold).
    PHI_DEAD = 8.0

    def __init__(self, sim: Simulator, core: "VnetCore",
                 phi_threshold: float = PHI_DEAD):
        self.sim = sim
        self.core = core
        self.flows: dict[tuple[str, str], FlowStats] = {}
        self.link_health: dict[str, LinkHealth] = {}
        self.phi_threshold = phi_threshold
        self.obs = Observability.of(sim)
        self._known_dead: set[str] = set()
        metrics = self.obs.metrics
        prefix = f"vnet.monitor.{core.host.name}"
        self._health_monitor = prefix
        self._packets = metrics.counter(f"{prefix}.packets")
        self._bytes = metrics.counter(f"{prefix}.bytes")
        self._flows_gauge = metrics.gauge(f"{prefix}.flows")
        self._heartbeats = metrics.counter(f"{prefix}.heartbeats")
        self._links_up = metrics.gauge(f"{prefix}.links_up")
        self._links_down = metrics.gauge(f"{prefix}.links_down")
        core.monitor = self

    @property
    def packets_observed(self) -> int:
        return self._packets.value

    @property
    def bytes_observed(self) -> int:
        return self._bytes.value

    def observe(self, src: str, dst: str, nbytes: int) -> None:
        key = (src, dst)
        flow = self.flows.get(key)
        if flow is None:
            flow = FlowStats(src=src, dst=dst, first_seen_ns=self.sim.now)
            self.flows[key] = flow
            self._flows_gauge.set(len(self.flows))
        flow.packets += 1
        flow.bytes += nbytes
        flow.last_seen_ns = self.sim.now
        self._packets.inc()
        self._bytes.inc(nbytes)

    # -- queries ----------------------------------------------------------
    def matrix(self) -> dict[tuple[str, str], int]:
        """Byte counts per (src, dst) pair."""
        return {k: f.bytes for k, f in self.flows.items()}

    def top_flows(self, n: int = 5) -> list[FlowStats]:
        return sorted(self.flows.values(), key=lambda f: f.bytes, reverse=True)[:n]

    def total_bytes(self) -> int:
        return sum(f.bytes for f in self.flows.values())

    # -- link liveness (phi-style heartbeat timeout detector) -------------
    def watch_link(self, link_name: str, peer_ip: str,
                   expected_interval_ns: int) -> LinkHealth:
        """Start (or continue) tracking liveness of ``link_name``.

        Idempotent: the heartbeat service calls this every emit round.
        """
        health = self.link_health.get(link_name)
        if health is None:
            health = LinkHealth(
                link=link_name,
                peer_ip=peer_ip,
                expected_interval_ns=int(expected_interval_ns),
                watched_since_ns=self.sim.now,
                mean_interval_ns=float(expected_interval_ns),
            )
            self.link_health[link_name] = health
            self._update_link_gauges()
        return health

    def note_heartbeat_from(self, src_ip: str) -> None:
        """A heartbeat from ``src_ip`` arrived on this core's inbound path."""
        self._heartbeats.inc()
        now = self.sim.now
        matched = False
        for health in self.link_health.values():
            if health.peer_ip != src_ip:
                continue
            matched = True
            if health.last_heard_ns >= 0:
                gap = now - health.last_heard_ns
                health.mean_interval_ns += LinkHealth.ALPHA * (
                    gap - health.mean_interval_ns
                )
            health.last_heard_ns = now
            health.beats += 1
        if not matched:
            # A peer we have a link to but never explicitly watched (e.g.
            # the remote side started beating first): learn it lazily.
            for name, link in self.core.links.items():
                if getattr(link, "dst_ip", None) == src_ip:
                    health = self.watch_link(name, src_ip, 500_000)
                    health.last_heard_ns = now
                    health.beats += 1
                    break

    def phi(self, link_name: str) -> float:
        """Suspicion level of ``link_name``: silence in mean heartbeat
        intervals (0.0 for unwatched links)."""
        health = self.link_health.get(link_name)
        if health is None:
            return 0.0
        base = health.last_heard_ns if health.last_heard_ns >= 0 \
            else health.watched_since_ns
        mean = health.mean_interval_ns or float(health.expected_interval_ns)
        return (self.sim.now - base) / mean

    def link_alive(self, link_name: str) -> bool:
        """Liveness verdict; unwatched links are optimistically alive."""
        return self.phi(link_name) <= self.phi_threshold

    def dead_links(self) -> list[str]:
        """Watched links whose phi exceeds the death threshold.

        Verdict *transitions* are published as ``link-dead`` /
        ``link-recovered`` :class:`~repro.obs.health.HealthEvent`s with
        the exact virtual timestamp of the evaluation, so failure
        detection time can be read off the health log instead of polling
        route tables.
        """
        dead = [name for name in self.link_health
                if not self.link_alive(name)]
        now_dead = set(dead)
        log = self.obs.health.log
        for name in sorted(now_dead - self._known_dead):
            log.emit(self.sim.now, self._health_monitor, "link-dead",
                     "critical", f"link {name} silent (phi > "
                     f"{self.phi_threshold:g})", self.phi(name))
        for name in sorted(self._known_dead - now_dead):
            log.emit(self.sim.now, self._health_monitor, "link-recovered",
                     "info", f"link {name} heartbeating again",
                     self.phi(name))
        self._known_dead = now_dead
        self._update_link_gauges(n_dead=len(dead))
        return dead

    def _update_link_gauges(self, n_dead: Optional[int] = None) -> None:
        if n_dead is None:
            n_dead = sum(1 for name in self.link_health
                         if not self.link_alive(name))
        self._links_down.set(n_dead)
        self._links_up.set(len(self.link_health) - n_dead)

    def reset(self) -> None:
        self.flows.clear()
        self.link_health.clear()
        self._known_dead.clear()
        self._packets.reset()
        self._bytes.reset()
        self._flows_gauge.set(0)
        self._links_up.set(0)
        self._links_down.set(0)
