"""Forwarding-node state shared by VNET/P and VNET/U (Sect. 4.2, 4.6).

VNET/P's in-VMM core and the user-level VNET/U daemon implement the
same overlay model: named links to remote nodes, registered local
interfaces, and a routing table mapping (source, destination) MAC
pairs to one of them.  :class:`VnetNode` holds that state and the
configuration operations on it, so one control component
(:class:`~repro.vnet.control.VnetControl`) drives either system with
the same language.  Subclasses add only their datapath.

The node also owns the forwarding decision.  :meth:`VnetNode.destination`
turns a route into a local NIC or a link for the datapaths and the flow
cache; :meth:`VnetNode.next_hop` makes the same decision for a (source,
destination) MAC pair without touching lookup state; and
:meth:`OverlayMap.walk` repeats it node by node, as waypoint hosts do
(Sect. 4.6).  Validation and the fluid path compiler follow this one
walk; adaptation and migration use ``next_hop`` and
:meth:`VnetNode.udp_link_to`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from .overlay import DestType, InterfaceSpec, LinkProto, LinkSpec, RouteEntry
from .routing import RoutingTable

if TYPE_CHECKING:  # pragma: no cover
    from ..host.machine import Host
    from ..palacios.virtio import VirtioNIC

__all__ = ["MAX_HOPS", "OverlayMap", "OverlayWalk", "VnetNode", "WalkEnd"]

#: Hop-count ceiling of an overlay walk (guards routing loops).
MAX_HOPS = 16


class VnetNode:
    """Links, interfaces and routes of one overlay forwarding node.

    Subclasses set ``name`` and ``host`` and call :meth:`_init_node`
    before any configuration is applied.
    """

    name: str
    host: "Host"

    def _init_node(self, routing: RoutingTable) -> None:
        self.routing = routing
        self.links: dict[str, LinkSpec] = {}
        self.interfaces: dict[str, "VirtioNIC"] = {}
        self.if_specs: dict[str, InterfaceSpec] = {}
        self.if_by_mac: dict[str, "VirtioNIC"] = {}

    def add_link(self, link: LinkSpec) -> None:
        if link.name in self.links:
            raise ValueError(f"{self.name}: duplicate link {link.name!r}")
        self.links[link.name] = link

    def remove_link(self, name: str) -> None:
        if name not in self.links:
            raise KeyError(f"{self.name}: no such link {name!r}")
        if self.routing.routes_to(DestType.LINK, name):
            raise ValueError(f"{self.name}: link {name!r} still referenced by routes")
        del self.links[name]

    def register_interface(self, spec: InterfaceSpec, nic: "VirtioNIC") -> None:
        """Record a virtual NIC (done at VM configuration time, Sect. 4.4);
        subclasses extend this to attach their kick handler."""
        if spec.name in self.interfaces:
            raise ValueError(f"{self.name}: duplicate interface {spec.name!r}")
        if nic.mac != spec.mac:
            raise ValueError(
                f"{self.name}: interface {spec.name!r} MAC {spec.mac} != NIC MAC {nic.mac}"
            )
        self.interfaces[spec.name] = nic
        self.if_specs[spec.name] = spec
        self.if_by_mac[spec.mac] = nic

    def remove_interface(self, name: str) -> "VirtioNIC":
        """Detach a virtual NIC (e.g. ahead of a VM migration): no more
        kicks reach this node.  Returns the detached NIC."""
        if name not in self.interfaces:
            raise KeyError(f"{self.name}: no such interface {name!r}")
        if self.routing.routes_to(DestType.INTERFACE, name):
            raise ValueError(f"{self.name}: interface {name!r} still referenced by routes")
        nic = self.interfaces.pop(name)
        del self.if_by_mac[self.if_specs.pop(name).mac]
        nic._kick_handler = None
        return nic

    def _check_destination(self, route: RouteEntry) -> None:
        if route.dest_type is DestType.LINK and route.dest_name not in self.links:
            raise ValueError(f"{self.name}: route references unknown link {route.dest_name!r}")
        if (
            route.dest_type is DestType.INTERFACE
            and route.dest_name not in self.interfaces
        ):
            raise ValueError(
                f"{self.name}: route references unknown interface {route.dest_name!r}"
            )

    def add_route(self, route: RouteEntry) -> None:
        self._check_destination(route)
        self.routing.add(route)

    def add_routes(self, routes: list[RouteEntry]) -> int:
        """Bulk route installation: validate everything, then load once.

        The topology compiler provisions whole host tables in one call;
        validating every destination up front keeps the all-or-nothing
        contract of :meth:`add_route`, and the single
        :meth:`~repro.vnet.routing.RoutingTable.load` keeps derived
        caches (flow cache, lookup index) from flushing per entry.
        Returns the number of routes installed.
        """
        for route in routes:
            self._check_destination(route)
        return self.routing.load(routes)

    def destination(self, route: RouteEntry) -> Union["VirtioNIC", LinkSpec]:
        """The local NIC an INTERFACE route delivers to, or the link a
        LINK route sends on: the datapath's forwarding decision."""
        if route.dest_type is DestType.INTERFACE:
            return self.interfaces[route.dest_name]
        return self.links[route.dest_name]

    def next_hop(self, src_mac: str, dst_mac: str) -> Union["VirtioNIC", LinkSpec, None]:
        """:meth:`destination` of the route a (src, dst) frame takes here,
        or ``None`` without one.

        Reads the table with the side-effect-free
        :meth:`~repro.vnet.routing.RoutingTable.peek`, so control-plane
        queries leave the datapath's lookup counters and cache alone.
        """
        entry = self.routing.peek(src_mac, dst_mac)
        return None if entry is None else self.destination(entry)

    def udp_link_to(self, ip: str) -> Optional[str]:
        """Name of the first UDP link to host ``ip``, if any."""
        for name, link in self.links.items():
            if link.proto is LinkProto.UDP and link.dst_ip == ip:
                return name
        return None


class WalkEnd(enum.Enum):
    """How an overlay walk ended."""

    DELIVERED = "delivered"    # an INTERFACE route reached a local NIC
    NO_ROUTE = "no-route"      # the last node has no route for the pair
    DANGLING = "dangling"      # the last link targets a host outside the set
    DIRECT = "direct"          # the last link is DIRECT: the frame left the overlay
    LOOP = "loop"              # MAX_HOPS nodes visited without an end


@dataclass
class OverlayWalk:
    """The nodes one frame visits, in order; ``links[i]`` leaves
    ``nodes[i]``, and ``nic`` is where a DELIVERED frame lands."""

    end: WalkEnd
    nodes: list[VnetNode]
    links: list[LinkSpec]
    nic: Optional["VirtioNIC"] = None


class OverlayMap:
    """A set of nodes, indexed by the guest MACs and host IPs they own.

    The index is taken at construction; rebuild it after a guest moves.
    """

    def __init__(self, nodes: list[VnetNode]):
        self.nodes = nodes
        self.index_of_mac = {
            mac: i for i, node in enumerate(nodes) for mac in node.if_by_mac
        }
        self.index_of_ip = {node.host.ip: i for i, node in enumerate(nodes)}

    def walk(self, src_mac: str, dst_mac: str) -> Optional[OverlayWalk]:
        """Follow a unicast (src, dst) frame from the node owning
        ``src_mac``, making each node's own forwarding decision; ``None``
        when no node owns ``src_mac``."""
        i = self.index_of_mac.get(src_mac)
        if i is None:
            return None
        node = self.nodes[i]
        nodes: list[VnetNode] = []
        links: list[LinkSpec] = []
        for _hop in range(MAX_HOPS):
            nodes.append(node)
            hop = node.next_hop(src_mac, dst_mac)
            if hop is None:
                return OverlayWalk(WalkEnd.NO_ROUTE, nodes, links)
            if not isinstance(hop, LinkSpec):
                return OverlayWalk(WalkEnd.DELIVERED, nodes, links, hop)
            links.append(hop)
            if hop.proto is LinkProto.DIRECT:
                return OverlayWalk(WalkEnd.DIRECT, nodes, links)
            i = self.index_of_ip.get(hop.dst_ip)
            if i is None:
                return OverlayWalk(WalkEnd.DANGLING, nodes, links)
            node = self.nodes[i]
        return OverlayWalk(WalkEnd.LOOP, nodes, links)
