"""VM migration over the overlay (the VNET model's location independence).

The second VNET requirement (Sect. 3): VMs can be "migrated between
networks and from site to site, while maintaining their connectivity,
without requiring any within-VM configuration changes".  The guest
keeps its MAC and IP; what moves is the *overlay attachment*: the
virtual NIC unregisters from the source core, the VM's memory is
shipped, the NIC registers with the destination core, and every core's
routing is rewritten so the guest's MAC now points at the new host.

In-flight packets addressed to the old location are dropped during the
blackout, exactly as in a real pre-copy migration's stop-and-copy
phase; transports recover (TCP retransmits, applications retry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .. import units
from ..sim import Simulator
from .overlay import DEFAULT_VNET_PORT, DestType, InterfaceSpec, LinkProto, LinkSpec, RouteEntry

if TYPE_CHECKING:  # pragma: no cover
    from ..palacios.virtio import VirtioNIC
    from ..palacios.vmm import VirtualMachine
    from .core import VnetCore

__all__ = ["MigrationResult", "migrate_vm"]


@dataclass
class MigrationResult:
    """Timing record of one migration."""

    vm_name: str
    src_core: str
    dst_core: str
    started_ns: int
    blackout_ns: int
    finished_ns: int


def _route_all_cores_to(
    cores: list["VnetCore"], mac: str, dst_idx: int, if_name: str
) -> None:
    """Point every core's route for ``mac`` at its new location."""
    dst_host_ip = cores[dst_idx].host.ip
    for i, core in enumerate(cores):
        core.routing.remove_matching(dst_mac=mac)
        if i == dst_idx:
            core.add_route(
                RouteEntry("any", mac, DestType.INTERFACE, if_name)
            )
            continue
        link_name = core.udp_link_to(dst_host_ip)
        if link_name is None:
            link_name = f"mig-{dst_idx}"
            core.add_link(
                LinkSpec(
                    name=link_name,
                    proto=LinkProto.UDP,
                    dst_ip=dst_host_ip,
                    dst_port=DEFAULT_VNET_PORT,
                )
            )
        core.add_route(RouteEntry("any", mac, DestType.LINK, link_name))


def migrate_vm(
    sim: Simulator,
    cores: list["VnetCore"],
    vm: "VirtualMachine",
    nic: "VirtioNIC",
    src_idx: int,
    dst_idx: int,
    if_name: str = "if0",
    dst_if_name: Optional[str] = None,
    migration_bw_Bps: float = 1.0e9,
    stop_copy_fraction: float = 0.08,
):
    """Generator: migrate ``vm`` from ``cores[src_idx]`` to ``cores[dst_idx]``.

    Models a pre-copy live migration: most memory transfers while the VM
    runs; connectivity blacks out only for the stop-and-copy fraction.
    Returns a :class:`MigrationResult`.
    """
    if src_idx == dst_idx:
        raise ValueError("source and destination cores are the same")
    src, dst = cores[src_idx], cores[dst_idx]
    if src.interfaces.get(if_name) is not nic:
        raise ValueError(f"{if_name!r} on {src.name} is not the given NIC")
    # The destination host typically already has an "if0"; give the
    # arriving VM's interface a distinct name there.
    dst_if_name = dst_if_name or f"{if_name}-{vm.name}"
    started = sim.now
    mem_bytes = vm.mem_mb * units.MIB
    precopy_ns = int(mem_bytes * (1 - stop_copy_fraction) / migration_bw_Bps * units.SECOND)
    blackout_ns = int(mem_bytes * stop_copy_fraction / migration_bw_Bps * units.SECOND)

    # Pre-copy phase: the VM keeps running and communicating.
    yield precopy_ns

    # Stop-and-copy: detach from the source overlay; packets to this MAC
    # now drop (no-route) until reattachment.
    src.routing.remove_matching(dst_mac=nic.mac)
    src.remove_interface(if_name)
    yield blackout_ns

    # Reattach at the destination and fix up routing everywhere.
    dst.register_interface(InterfaceSpec(name=dst_if_name, mac=nic.mac), nic)
    _route_all_cores_to(cores, nic.mac, dst_idx, dst_if_name)
    return MigrationResult(
        vm_name=vm.name,
        src_core=src.name,
        dst_core=dst.name,
        started_ns=started,
        blackout_ns=blackout_ns,
        finished_ns=sim.now,
    )
