"""A VADAPT-style adaptation engine (Sect. 3, item 4).

The VNET model exists so that an agent can "address performance
problems through VM migration and overlay network control".  This
module implements the overlay-control half as the paper's references
describe it: observe the traffic matrix through the
:class:`~repro.vnet.monitor.TrafficMonitor`, find the heavy
communicating pairs, and reshape routing so their traffic takes the
most direct overlay path (e.g. replacing star/waypoint topologies with
direct links).  The engine writes each core's link and routing tables
directly, the tables the control interface (:mod:`repro.vnet.control`)
also writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..obs.context import Observability
from ..sim import Simulator
from ..sim.fluid import fluid_region_of
from .monitor import FlowStats, TrafficMonitor
from .node import OverlayMap
from .overlay import DEFAULT_VNET_PORT, DestType, LinkProto, LinkSpec, RouteEntry

if TYPE_CHECKING:  # pragma: no cover
    from .core import VnetCore

__all__ = ["AdaptationEngine", "AdaptationAction", "FailoverRecord"]


@dataclass
class AdaptationAction:
    """One applied reconfiguration, for audit/inspection."""

    when_ns: int
    core: str
    description: str


@dataclass
class FailoverRecord:
    """Bookkeeping for one link the engine has routed around.

    ``saved_routes`` are the original entries, restored verbatim at
    failback; ``healthy_since_ns`` implements the re-probe backoff — a
    healed link must stay continuously alive for the backoff window
    before its routes return (a flap resets the clock).
    """

    core_idx: int
    link: str
    detour: str
    saved_routes: list[RouteEntry] = field(default_factory=list)
    failed_at_ns: int = 0
    healthy_since_ns: Optional[int] = None


class AdaptationEngine:
    """Greedy topology adaptation over a set of VNET/P cores.

    The engine knows, for each core, where every guest MAC lives (the
    location directory an IaaS controller maintains).  On each
    :meth:`adapt` pass it ensures the top-k flows have *direct* overlay
    links from the source's core to the destination's host, creating
    links and rewriting the core's routes as needed.
    """

    COUNTERS = ("failovers", "failbacks")

    def __init__(
        self,
        sim: Simulator,
        cores: list["VnetCore"],
        min_flow_bytes: int = 64 * 1024,
        failback_backoff_ns: int = 2_000_000,
    ):
        self.sim = sim
        self.cores = cores
        self.min_flow_bytes = min_flow_bytes
        self.failback_backoff_ns = failback_backoff_ns
        self.monitors = [
            c.monitor if c.monitor is not None else TrafficMonitor(sim, c)
            for c in cores
        ]
        # Location directory: guest MAC / host IP -> core index.
        self.overlay = OverlayMap(cores)
        self.actions: list[AdaptationAction] = []
        # Links currently routed around, keyed by (core index, link name).
        self.failed_links: dict[tuple[int, str], FailoverRecord] = {}
        self.obs = Observability.of(sim)
        self.failovers = self.failbacks = 0
        self.obs.metrics.publish("vnet.adaptation", self)

    def refresh_directory(self) -> None:
        """Re-learn MAC locations (after migrations)."""
        self.overlay = OverlayMap(self.cores)

    def _ensure_direct_route(self, core_idx: int, flow: FlowStats) -> bool:
        """Make ``flow`` leave core_idx on a direct link to its
        destination's host; returns True if anything changed."""
        dst_mac = flow.dst
        dst_idx = self.overlay.index_of_mac.get(dst_mac)
        if dst_idx is None or dst_idx == core_idx:
            return False
        core = self.cores[core_idx]
        target_host = self.cores[dst_idx].host
        # Find or create a UDP link straight to the destination host.
        link_name = core.udp_link_to(target_host.ip)
        changed = False
        if link_name is None:
            link_name = f"adapt-{dst_idx}"
            core.add_link(
                LinkSpec(
                    name=link_name,
                    proto=LinkProto.UDP,
                    dst_ip=target_host.ip,
                    dst_port=DEFAULT_VNET_PORT,
                )
            )
            self._log(core_idx, f"created direct link {link_name} -> {target_host.ip}")
            changed = True
        # Does the route this flow takes already use it?
        if core.next_hop(flow.src, dst_mac) is not core.links[link_name]:
            core.routing.remove_matching(dst_mac=dst_mac)
            core.add_route(
                RouteEntry(
                    src_mac="any",
                    dst_mac=dst_mac,
                    dest_type=DestType.LINK,
                    dest_name=link_name,
                )
            )
            self._log(core_idx, f"routed {dst_mac} via {link_name}")
            changed = True
        return changed

    def adapt(self, top_k: int = 8) -> int:
        """One adaptation pass; returns the number of changes applied."""
        changes = 0
        for i, monitor in enumerate(self.monitors):
            for flow in monitor.top_flows(top_k):
                if flow.bytes < self.min_flow_bytes:
                    continue
                if self._ensure_direct_route(i, flow):
                    changes += 1
        return changes

    # -- failover (overlay resilience) ------------------------------------
    def failover(self) -> int:
        """One failure-handling pass; returns routes moved (both ways).

        For every link a core's monitor declares dead, reroute the
        affected :class:`RouteEntry`\\ s through a waypoint host that
        both ends can still reach (the overlay-waypoint forwarding the
        inbound dispatcher already supports).  Healed links get their
        original routes back only after staying alive for the full
        ``failback_backoff_ns`` window.
        """
        changes = 0
        for i, monitor in enumerate(self.monitors):
            for link_name in monitor.dead_links():
                if (i, link_name) in self.failed_links:
                    continue
                changes += self._reroute_around(i, link_name)
            changes += self._maybe_failback(i)
        return changes

    def run_failover(self, interval_ns: int, until_ns: int):
        """Generator: run :meth:`failover` every ``interval_ns`` until the
        ``until_ns`` horizon (spawn with ``sim.process``)."""
        while self.sim.now + interval_ns <= until_ns:
            yield interval_ns
            self.failover()

    def _find_detour(self, core_idx: int, dst_idx: int,
                     dead_link: str) -> Optional[str]:
        """A live link from ``core_idx`` to a waypoint that reaches
        ``dst_idx`` — the overlay path around one dead link."""
        monitor = self.monitors[core_idx]
        dst_ip = self.cores[dst_idx].host.ip
        for k, waypoint in enumerate(self.cores):
            if k in (core_idx, dst_idx):
                continue
            via = self.cores[core_idx].udp_link_to(waypoint.host.ip)
            if via is None or via == dead_link or not monitor.link_alive(via):
                continue
            onward = waypoint.udp_link_to(dst_ip)
            if onward is None or not self.monitors[k].link_alive(onward):
                continue
            return via
        return None

    def _reroute_around(self, core_idx: int, link_name: str) -> int:
        core = self.cores[core_idx]
        link = core.links.get(link_name)
        if link is None:
            return 0
        dst_idx = self.overlay.index_of_ip.get(link.dst_ip)
        affected = core.routing.routes_to(DestType.LINK, link_name)
        if dst_idx is None or not affected:
            return 0
        detour = self._find_detour(core_idx, dst_idx, link_name)
        if detour is None:
            # No waypoint reachable right now; retried next pass.
            self._log(core_idx, f"link {link_name} dead; no detour available")
            return 0
        region = fluid_region_of(self.sim)
        if region is not None:
            # The analytic fluid model is compiled against the same
            # routes; hand affected flows back to packets at this exact
            # instant (the rewiring below would also release them via
            # the route-change hook — this names the cause).
            region.deescalate_all("failover")
        saved = list(affected)
        for route in saved:
            core.routing.remove(route)
            core.add_route(
                RouteEntry(
                    src_mac=route.src_mac,
                    dst_mac=route.dst_mac,
                    dest_type=DestType.LINK,
                    dest_name=detour,
                )
            )
        self.failed_links[(core_idx, link_name)] = FailoverRecord(
            core_idx=core_idx,
            link=link_name,
            detour=detour,
            saved_routes=saved,
            failed_at_ns=self.sim.now,
        )
        self.failovers += 1
        self._log(
            core_idx,
            f"failover: {len(saved)} route(s) off dead link {link_name} "
            f"via {detour}",
        )
        self.obs.health.log.emit(
            self.sim.now, "vnet.adaptation", "failover", "warning",
            f"{self.cores[core_idx].name}: {len(saved)} route(s) off dead "
            f"link {link_name} via {detour}", float(len(saved)))
        return len(saved)

    def _maybe_failback(self, core_idx: int) -> int:
        now = self.sim.now
        monitor = self.monitors[core_idx]
        changes = 0
        for key, record in list(self.failed_links.items()):
            if key[0] != core_idx:
                continue
            if not monitor.link_alive(record.link):
                record.healthy_since_ns = None  # flapped: restart backoff
                continue
            if record.healthy_since_ns is None:
                record.healthy_since_ns = now
                continue
            if now - record.healthy_since_ns < self.failback_backoff_ns:
                continue
            core = self.cores[core_idx]
            region = fluid_region_of(self.sim)
            if region is not None:
                region.deescalate_all("failback")
            for route in record.saved_routes:
                core.routing.remove_matching(
                    src_mac=route.src_mac,
                    dst_mac=route.dst_mac,
                    dest_name=record.detour,
                )
                core.add_route(route)
            del self.failed_links[key]
            self.failbacks += 1
            self._log(
                core_idx,
                f"failback: restored {len(record.saved_routes)} route(s) "
                f"to {record.link}",
            )
            self.obs.health.log.emit(
                self.sim.now, "vnet.adaptation", "failback", "info",
                f"{self.cores[core_idx].name}: restored "
                f"{len(record.saved_routes)} route(s) to {record.link}",
                float(len(record.saved_routes)))
            changes += len(record.saved_routes)
        return changes

    def _log(self, core_idx: int, description: str) -> None:
        self.actions.append(
            AdaptationAction(
                when_ns=self.sim.now,
                core=self.cores[core_idx].name,
                description=description,
            )
        )
