"""Overlay topology objects: links, interfaces, and routes (Sect. 4.3).

A routing-table entry maps a (source MAC, destination MAC) pair — either
may be a wildcard — to a *destination*: a **link** (the UDP/IP address of
a remote VNET/P core or VNET/U daemon, or the local physical network) or
an **interface** (a local virtual NIC).
"""

from __future__ import annotations

import enum
import re
import sys
from dataclasses import dataclass

__all__ = [
    "ANY_MAC",
    "DEFAULT_VNET_PORT",
    "LinkProto",
    "LinkSpec",
    "InterfaceSpec",
    "DestType",
    "RouteEntry",
    "validate_mac",
]

ANY_MAC = "any"
DEFAULT_VNET_PORT = 5002

_MAC_RE = re.compile(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}$")


def validate_mac(mac: str, allow_any: bool = True) -> str:
    """Normalise and validate a MAC address (or the ``any`` wildcard).

    The result is interned: a cluster-scale overlay holds the same MAC in
    every host's route table, and one shared string per address keeps
    those tables small.
    """
    mac = sys.intern(mac.strip().lower())
    if allow_any and mac == ANY_MAC:
        return ANY_MAC
    if not _MAC_RE.match(mac):
        raise ValueError(f"malformed MAC address: {mac!r}")
    return mac


class LinkProto(enum.Enum):
    """Transport used to traverse an overlay link (Sect. 4.5)."""

    UDP = "udp"          # encapsulated send (the evaluated configuration)
    TCP = "tcp"          # encapsulated send over a TCP stream
    DIRECT = "direct"    # raw Ethernet onto the local physical network


@dataclass(frozen=True)
class LinkSpec:
    """An overlay destination on some other machine (or the local net)."""

    name: str
    proto: LinkProto
    dst_ip: str = ""
    dst_port: int = DEFAULT_VNET_PORT

    def __post_init__(self):
        if self.proto is not LinkProto.DIRECT and not self.dst_ip:
            raise ValueError(f"link {self.name!r}: {self.proto.value} link needs dst_ip")


@dataclass(frozen=True)
class InterfaceSpec:
    """A local destination: a virtual NIC registered with the core."""

    name: str
    mac: str

    def __post_init__(self):
        object.__setattr__(self, "mac", validate_mac(self.mac, allow_any=False))


class DestType(enum.Enum):
    LINK = "link"
    INTERFACE = "interface"


@dataclass(frozen=True, slots=True)
class RouteEntry:
    """One routing rule: (src_mac, dst_mac) -> destination.

    Frozen, so it hashes on the fields its ``__eq__`` compares; the
    routing table's duplicate check relies on that.  Slotted, so the
    table's membership set costs no net memory at cluster scale.
    """

    src_mac: str
    dst_mac: str
    dest_type: DestType
    dest_name: str

    def __post_init__(self):
        object.__setattr__(self, "src_mac", validate_mac(self.src_mac))
        object.__setattr__(self, "dst_mac", validate_mac(self.dst_mac))

    def matches(self, src: str, dst: str) -> bool:
        return (self.src_mac in (ANY_MAC, src)) and (self.dst_mac in (ANY_MAC, dst))

    @property
    def specificity(self) -> int:
        """Match precedence: exact pairs beat single-side matches beat wildcards."""
        return (self.dst_mac != ANY_MAC) * 2 + (self.src_mac != ANY_MAC)
