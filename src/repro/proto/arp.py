"""ARP: dynamic address resolution on the (virtual) LAN.

The paper's testbeds use static configuration, and so do the harness
builders — but the guests *believe* they share a simple Ethernet LAN,
so the stack also implements real ARP: broadcast who-has requests,
unicast replies, caching and retries; every ARP packet teaches the
receiver its sender's binding.  Enable per stack with
``stack.arp_enabled = True``; unresolvable destinations then fail
instead of falling back to broadcast delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .base import next_pdu_id

__all__ = [
    "ETHERTYPE_ARP",
    "ARP_REQUEST",
    "ARP_REPLY",
    "ArpMessage",
    "ArpTimeout",
]

ETHERTYPE_ARP = 0x0806
ARP_REQUEST = 1
ARP_REPLY = 2
ARP_SIZE = 28


class ArpTimeout(TimeoutError):
    """Raised when an address cannot be resolved after all retries."""


@dataclass(slots=True)
class ArpMessage:
    """One ARP packet (request or reply)."""

    op: int
    sender_ip: str
    sender_mac: str
    target_ip: str
    target_mac: str = "00:00:00:00:00:00"
    id: int = field(default_factory=next_pdu_id)

    @property
    def size(self) -> int:
        return ARP_SIZE
