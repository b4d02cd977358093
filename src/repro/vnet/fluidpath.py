"""VNET/P path compilation for the hybrid fluid/packet fast path.

:mod:`repro.sim.fluid` is overlay-agnostic: the region only needs, per
captured flow, (a) the set of overlay links the flow traverses — as the
same ``<host>.vbridge.link.<link>`` tokens the chaos injector names, so
fault installs release exactly the right flows — and (b) a ``charge``
hook that applies aggregate per-hop counter updates for a stride's worth
of segments.  This module supplies both with the overlay's one
forwarding walk (:meth:`~repro.vnet.node.OverlayMap.walk`, which reads
routes with the side-effect-free :meth:`RoutingTable.peek`, so
compilation never perturbs datapath lookup statistics) over the
registered cores, from the sender's guest NIC to the receiver's, in
both directions: data segments ride the forward path, their ACKs the
reverse.

Compilation fails (returns ``None``, vetoing the capture) unless both
walks end at a guest NIC: missing routes, links leaving the registered
cores, and routing loops are the flows the packet path must keep
handling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim.fluid import FluidRegion
from .node import OverlayMap, WalkEnd

if TYPE_CHECKING:  # pragma: no cover
    from ..palacios.virtio import VirtioNIC
    from ..proto.tcp import TcpConnection
    from .core import VnetCore

__all__ = ["VnetFluidPath", "compile_vnet_path", "install_fluid"]


def install_fluid(sim, core: "VnetCore") -> FluidRegion:
    """Attach ``core`` to the simulator's fluid region (creating it)."""
    region = FluidRegion.ensure(sim, core.tuning)
    if region.compile_path is None:
        region.compile_path = compile_vnet_path
    region.add_core(core)
    return region


class _Hops:
    """One direction of a compiled flow path."""

    __slots__ = ("src_nic", "first_core", "links", "dst_core", "dst_nic",
                 "src_ctl", "dst_ctl")

    def __init__(self, src_nic: "VirtioNIC", first_core: "VnetCore",
                 links: list, dst_core: "VnetCore", dst_nic: "VirtioNIC"):
        self.src_nic = src_nic
        self.first_core = first_core
        # [(core, link, next_core), ...] — overlay crossings in order.
        self.links = links
        self.dst_core = dst_core
        self.dst_nic = dst_nic
        self.src_ctl = _controller_of(first_core, src_nic)
        self.dst_ctl = _controller_of(dst_core, dst_nic)

    def charge(self, segs: int) -> None:
        """Counter updates one packet-level traversal × ``segs`` would make."""
        self.src_nic.tx_packets += segs
        self.first_core.pkts_from_guest += segs
        for core, _link, nxt in self.links:
            core.pkts_to_bridge += segs
            core.host.nic.tx_frames += segs
            nxt.host.nic.rx_frames += segs
        self.dst_core.pkts_to_guest += segs
        self.dst_nic.rx_packets += segs
        # Feed the adaptive mode controllers exactly as the packet path
        # would (tx dispatch on the source NIC, guest delivery on the
        # destination): the Fig. 6 rate estimate must keep seeing the
        # modeled traffic or a fluid flow would freeze mode selection.
        # A switch fired here re-enters the region via on_mode_switch and
        # releases the flows at this precise instant.
        if self.src_ctl is not None:
            self.src_ctl.note_packet(segs)
        if self.dst_ctl is not None:
            self.dst_ctl.note_packet(segs)


def _controller_of(core: "VnetCore", nic: "VirtioNIC"):
    for name, inic in core.interfaces.items():
        if inic is nic:
            return core.controllers.get(name)
    return None


class VnetFluidPath:
    """Both directions of a captured flow, plus the fault-match tokens."""

    __slots__ = ("fwd", "rev", "link_tokens")

    def __init__(self, fwd: _Hops, rev: _Hops):
        self.fwd = fwd
        self.rev = rev
        tokens = set()
        for hops in (fwd, rev):
            for core, link, _nxt in hops.links:
                # The exact port name the chaos injector sits on for
                # this overlay crossing (VnetBridge.link_out).
                tokens.add(f"{core.host.name}.vbridge.link.{link.name}")
        self.link_tokens = frozenset(tokens)

    def charge(self, data_segs: int, ack_segs: int) -> None:
        if data_segs:
            self.fwd.charge(data_segs)
        if ack_segs:
            self.rev.charge(ack_segs)


def _hops(overlay: OverlayMap, conn: "TcpConnection") -> Optional[_Hops]:
    try:
        dev, dst_mac = conn.stack.route(conn.remote_ip)
    except Exception:
        return None
    walk = overlay.walk(dev.mac, dst_mac)
    if walk is None or walk.end is not WalkEnd.DELIVERED:
        return None
    nodes = walk.nodes
    first = nodes[0]
    return _Hops(first.if_by_mac[dev.mac], first,
                 list(zip(nodes, walk.links, nodes[1:])), nodes[-1], walk.nic)


def compile_vnet_path(
    region: FluidRegion, conn: "TcpConnection"
) -> Optional[VnetFluidPath]:
    """Compile a captured connection's overlay path, or veto the capture."""
    if conn.peer is None:
        return None
    overlay = OverlayMap(region.cores)
    fwd = _hops(overlay, conn)
    if fwd is None:
        return None
    rev = _hops(overlay, conn.peer)
    if rev is None:
        return None
    return VnetFluidPath(fwd, rev)
