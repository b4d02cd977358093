"""Forwarding-node state shared by VNET/P and VNET/U (Sect. 4.2, 4.6).

VNET/P's in-VMM core and the user-level VNET/U daemon implement the
same overlay model: named links to remote nodes, registered local
interfaces, and a routing table mapping (source, destination) MAC
pairs to one of them.  :class:`VnetNode` holds that state and the
configuration operations on it, so one control component
(:class:`~repro.vnet.control.VnetControl`) drives either system with
the same language.  Subclasses add only their datapath.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .overlay import DestType, InterfaceSpec, LinkSpec, RouteEntry
from .routing import RoutingTable

if TYPE_CHECKING:  # pragma: no cover
    from ..palacios.virtio import VirtioNIC

__all__ = ["VnetNode"]


class VnetNode:
    """Links, interfaces and routes of one overlay forwarding node.

    Subclasses set ``name`` and call :meth:`_init_node` before any
    configuration is applied.
    """

    name: str

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

    def local_macs(self) -> set[str]:
        return set(self.if_by_mac)
