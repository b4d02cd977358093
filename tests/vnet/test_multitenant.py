"""Two tenants' overlays sharing the same physical hosts.

The VNET model gives each *user* a private virtual LAN.  Two VNET/P
cores (one per tenant) coexist on each host, with bridges on different
UDP ports; tenants' guests can reach their own peers but are invisible
to each other — even with overlapping guest IP space, as real
multi-tenant clouds require.
"""

import pytest

from repro.config import NETEFFECT_10G, default_host
from repro.host import Host
from repro.hw import Link
from repro.palacios import PalaciosVMM
from repro.proto.base import Blob
from repro.proto.ethernet import mac_addr
from repro.sim import Simulator
from repro.vnet.bridge import VnetBridge
from repro.vnet.core import VnetCore
from repro.vnet.overlay import DestType, InterfaceSpec, LinkProto, LinkSpec, RouteEntry


TENANT_PORTS = {"red": 6100, "blue": 6200}


def build_two_tenants():
    """2 hosts, 2 tenants, one VM per (host, tenant).

    Both tenants deliberately use the SAME guest IP addresses
    (172.20.0.1/2): isolation must come from the overlay, not addressing.
    """
    sim = Simulator()
    hosts = [
        Host(sim, default_host(f"h{i}"), NETEFFECT_10G, ip=f"10.0.0.{i + 1}", name=f"h{i}")
        for i in range(2)
    ]
    Link(sim, hosts[0].nic, hosts[1].nic)
    hosts[0].add_neighbor(hosts[1])
    hosts[1].add_neighbor(hosts[0])
    vmms = [PalaciosVMM(sim, h) for h in hosts]

    tenants = {}
    for t_idx, tenant in enumerate(("red", "blue")):
        endpoints = []
        cores = []
        macs = [mac_addr(100 * (t_idx + 1) + i, prefix=0x5E) for i in range(2)]
        for i, host in enumerate(hosts):
            vm = vmms[i].create_vm(f"{tenant}{i}", guest_ip=f"172.20.0.{i + 1}")
            nic = vm.attach_virtio_nic(mac=macs[i], mtu=8958)
            core = VnetCore(sim, host)
            core.register_interface(InterfaceSpec(name="if0", mac=macs[i]), nic)
            VnetBridge(sim, host, core, port=TENANT_PORTS[tenant])
            j = 1 - i
            core.add_link(
                LinkSpec(
                    name="peer",
                    proto=LinkProto.UDP,
                    dst_ip=hosts[j].ip,
                    dst_port=TENANT_PORTS[tenant],
                )
            )
            core.add_route(RouteEntry("any", macs[j], DestType.LINK, "peer"))
            core.add_route(RouteEntry("any", macs[i], DestType.INTERFACE, "if0"))
            endpoints.append(vm)
            cores.append(core)
        for i, vm in enumerate(endpoints):
            vm.stack.add_neighbor(endpoints[1 - i].guest_ip, macs[1 - i])
        tenants[tenant] = {"vms": endpoints, "cores": cores, "macs": macs}
    return sim, hosts, tenants


def test_each_tenant_communicates_privately():
    sim, hosts, tenants = build_two_tenants()
    got = {}

    def rx(tenant, vm):
        sock = vm.stack.udp_socket(port=9)
        payload, src, _ = yield from sock.recv()
        got[tenant] = (payload.size, src)

    def tx(vm, dst_ip, size):
        sock = vm.stack.udp_socket()
        yield from sock.sendto(Blob(size), dst_ip, 9)

    for tenant, size in (("red", 111), ("blue", 222)):
        vms = tenants[tenant]["vms"]
        sim.process(rx(tenant, vms[1]))
        sim.process(tx(vms[0], vms[1].guest_ip, size))
    sim.run()
    # Same destination IP, different overlays: each tenant got its own.
    assert got["red"] == (111, "172.20.0.1")
    assert got["blue"] == (222, "172.20.0.1")


def test_cross_tenant_traffic_cannot_leak():
    sim, hosts, tenants = build_two_tenants()
    red, blue = tenants["red"], tenants["blue"]
    leaked = []

    def blue_listener(vm):
        sock = vm.stack.udp_socket(port=9)
        payload, src, _ = yield from sock.recv()
        leaked.append(payload)

    # Red's guest addresses a frame directly at BLUE's MAC (a malicious
    # or misconfigured guest).  Red's core has no route for it.
    def red_attacker(vm):
        vm.stack.add_neighbor("172.20.0.99", blue["macs"][1])
        sock = vm.stack.udp_socket()
        yield from sock.sendto(Blob(666), "172.20.0.99", 9)

    sim.process(blue_listener(blue["vms"][1]))
    p = sim.process(red_attacker(red["vms"][0]))
    sim.run(until=p)
    sim.run()
    assert leaked == []
    assert red["cores"][0].dropped_no_route == 1


def test_tenant_bridges_share_the_wire():
    """Both overlays ride the same physical NICs, on different UDP ports."""
    sim, hosts, tenants = build_two_tenants()

    def tx(vm, dst_ip):
        sock = vm.stack.udp_socket()
        yield from sock.sendto(Blob(1000), dst_ip, 99)

    for tenant in ("red", "blue"):
        vms = tenants[tenant]["vms"]
        vms[1].stack.udp_socket(port=99)
        sim.process(tx(vms[0], vms[1].guest_ip))
    sim.run()
    assert hosts[0].nic.tx_frames == 2  # one encapsulated frame per tenant
