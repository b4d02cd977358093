#!/usr/bin/env python3
"""VNET/P <-> VNET/U interoperability: bridging cloud and HPC.

The two systems share encapsulation and configuration languages by
design (Sect. 4.2): "the intent is that VNET/P and VNET/U be
interoperable, with VNET/P providing the fast path."  This example puts
a guest on a VNET/P host (the "HPC side") and a guest on a VNET/U host
(the "cloud side", where a user-level daemon is easy to deploy), joins
them into one overlay, and shows the guests talking as if on one LAN.

Run:  python examples/vnetp_vnetu_interop.py
"""

from repro import units
from repro.apps.ping import run_ping
from repro.apps.ttcp import run_ttcp_tcp
from repro.config import NETEFFECT_10G, default_host
from repro.harness.testbed import Endpoint, Testbed
from repro.host.machine import Host
from repro.hw.link import Link
from repro.palacios.vmm import PalaciosVMM
from repro.proto.ethernet import mac_addr
from repro.sim import Simulator
from repro.vnet.bridge import VnetBridge
from repro.vnet.control import VnetControl
from repro.vnet.core import VnetCore
from repro.vnet.overlay import InterfaceSpec
from repro.vnet.vnetu import VnetUDaemon


def build_mixed_overlay() -> Testbed:
    sim = Simulator()
    macs = [mac_addr(1, prefix=0x5D), mac_addr(2, prefix=0x5D)]

    # HPC side: VNET/P embedded in the VMM.
    hpc = Host(sim, default_host("hpc"), NETEFFECT_10G, ip="10.0.0.1", name="hpc")
    vmm_p = PalaciosVMM(sim, hpc)
    vm_p = vmm_p.create_vm("vm-hpc", guest_ip="172.16.0.1")
    nic_p = vm_p.attach_virtio_nic(mac=macs[0], mtu=1458)
    core = VnetCore(sim, hpc)
    core.register_interface(InterfaceSpec(name="if0", mac=macs[0]), nic_p)
    VnetBridge(sim, hpc, core)

    # Cloud side: the user-level VNET/U daemon.
    cloud = Host(sim, default_host("cloud"), NETEFFECT_10G, ip="10.0.0.2", name="cloud")
    vmm_u = PalaciosVMM(sim, cloud)
    vm_u = vmm_u.create_vm("vm-cloud", guest_ip="172.16.0.2")
    nic_u = vm_u.attach_virtio_nic(mac=macs[1], mtu=1458)
    daemon = VnetUDaemon(sim, cloud)
    daemon.register_interface(InterfaceSpec(name="if0", mac=macs[1]), nic_u)

    Link(sim, hpc.nic, cloud.nic)
    hpc.add_neighbor(cloud)
    cloud.add_neighbor(hpc)

    # One control component configures both systems in one language.
    # Both listen on the VNET encapsulation port, a link's default.
    control_p, control_u = VnetControl(sim, core), VnetControl(sim, daemon)
    control_p.apply_config(f"""
        add link to-cloud udp {cloud.ip}
        add route src any dst {macs[1]} link to-cloud
        add route src any dst {macs[0]} interface if0
    """)
    control_u.apply_config(f"""
        add link to-hpc udp {hpc.ip}
        add route src any dst {macs[0]} link to-hpc
        add route src any dst {macs[1]} interface if0
    """)

    for vm, other, mac in ((vm_p, vm_u, macs[1]), (vm_u, vm_p, macs[0])):
        vm.stack.add_neighbor(other.guest_ip, mac)
    endpoints = [
        Endpoint(stack=vm_p.stack, ip=vm_p.guest_ip, host=hpc, vm=vm_p),
        Endpoint(stack=vm_u.stack, ip=vm_u.guest_ip, host=cloud, vm=vm_u),
    ]
    return Testbed(sim=sim, config="vnetp<->vnetu", hosts=[hpc, cloud],
                   endpoints=endpoints, cores=[core], daemons=[daemon],
                   controls=[control_p, control_u])


def main() -> None:
    print("== One overlay, two implementations ==\n")
    tb = build_mixed_overlay()
    hpc_guest, cloud_guest = tb.endpoints
    print(f"HPC guest  {hpc_guest.ip} behind VNET/P (in-VMM fast path)")
    print(f"cloud guest {cloud_guest.ip} behind VNET/U (user-level daemon)\n")

    ping = run_ping(hpc_guest, cloud_guest, count=30)
    print(f"cross-system ping RTT: {ping.avg_rtt_us:.0f} us")

    tb2 = build_mixed_overlay()
    tcp = run_ttcp_tcp(tb2.endpoints[0], tb2.endpoints[1], total_bytes=5 * units.MB)
    print(f"cross-system TCP: {tcp.mbps:.0f} Mbps")
    print("\nthe guests see one Ethernet LAN; the user-level hop dominates "
          "the path cost, which is precisely why VNET/P exists")


if __name__ == "__main__":
    main()
