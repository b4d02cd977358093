"""IPv4 packets, fragmentation, and reassembly.

VNET/P supports guest MTUs up to 64 KB; when an encapsulated packet
exceeds the physical MTU the bridge (or host stack) fragments it
(Sect. 4.4).  Fragment offsets follow IPv4 semantics (8-byte units).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from .base import next_pdu_id

__all__ = [
    "IP_HEADER",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "IPv4Packet",
    "fragment",
    "Reassembler",
]

IP_HEADER = 20
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17


@dataclass(slots=True)
class IPv4Packet:
    """An IPv4 packet; ``size`` covers the IP header + payload.

    For fragments, ``payload`` is carried only by the first fragment (the
    simulation moves metadata, not bytes); every fragment knows the byte
    range it covers so the reassembler can verify completeness.
    """

    src: str
    dst: str
    proto: int
    payload: Any
    payload_bytes: int = -1           # explicit for fragments; -1 = payload.size
    ident: int = field(default_factory=next_pdu_id)
    frag_offset: int = 0              # in bytes (kept byte-granular for clarity)
    more_fragments: bool = False
    ttl: int = 64
    id: int = field(default_factory=next_pdu_id)

    def __post_init__(self):
        if self.payload_bytes < 0:
            self.payload_bytes = self.payload.size

    @property
    def size(self) -> int:
        return IP_HEADER + self.payload_bytes

    @property
    def is_fragment(self) -> bool:
        return self.more_fragments or self.frag_offset > 0


def fragment(packet: IPv4Packet, mtu: int) -> list[IPv4Packet]:
    """Split ``packet`` into fragments that fit ``mtu`` (incl. IP header).

    Returns ``[packet]`` unchanged when it already fits.  Fragment payload
    sizes are multiples of 8 bytes except the last, per IPv4.
    """
    if packet.size <= mtu:
        return [packet]
    max_payload = (mtu - IP_HEADER) // 8 * 8
    if max_payload <= 0:
        raise ValueError(f"MTU {mtu} too small to fragment into")
    fragments: list[IPv4Packet] = []
    total = packet.payload_bytes
    offset = 0
    while offset < total:
        chunk = min(max_payload, total - offset)
        fragments.append(
            replace(
                packet,
                payload=packet.payload if offset == 0 else None,
                payload_bytes=chunk,
                frag_offset=offset,
                more_fragments=(offset + chunk) < total,
                id=next_pdu_id(),
            )
        )
        offset += chunk
    return fragments


class Reassembler:
    """Reassembles fragment streams keyed by (src, dst, proto, ident)."""

    def __init__(self):
        self._partial: dict[tuple, dict] = {}

    def push(self, frag: IPv4Packet) -> Optional[IPv4Packet]:
        """Add a fragment; returns the whole packet when complete, else None."""
        if not frag.is_fragment:
            return frag
        key = (frag.src, frag.dst, frag.proto, frag.ident)
        state = self._partial.setdefault(
            key, {"have": 0, "total": None, "payload": None}
        )
        state["have"] += frag.payload_bytes
        if frag.payload is not None:
            state["payload"] = frag.payload
        if not frag.more_fragments:
            state["total"] = frag.frag_offset + frag.payload_bytes
        if state["total"] is not None and state["have"] >= state["total"]:
            del self._partial[key]
            return IPv4Packet(
                src=frag.src,
                dst=frag.dst,
                proto=frag.proto,
                payload=state["payload"],
                payload_bytes=state["total"],
                ident=frag.ident,
            )
        return None

    @property
    def pending(self) -> int:
        return len(self._partial)
