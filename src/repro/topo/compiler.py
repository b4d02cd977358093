"""TopologyCompiler: declarative topologies → VNET/P overlays.

One class compiles a :class:`~repro.topo.model.Topology` into every
concrete artefact the simulator needs:

* per-host **route tables** (:class:`~repro.vnet.overlay.RouteEntry`)
  and **link specs** (:class:`~repro.vnet.overlay.LinkSpec`), with the
  legacy ``to<j>`` naming so chaos/failover tooling keeps addressing
  links the same way;
* per-host **control-language configuration** — the command objects and
  their rendered text (:func:`repro.vnet.lang.render_config`), so a
  compiled host can be driven through exactly the VNET/U-compatible
  tooling path the paper describes;
* a built **testbed** (:meth:`CompiledTopology.build`): hosts, VMMs,
  VMs, cores, bridges and controls, physically wired and (optionally)
  configured.

Bit-identity contract: for ``wiring == "mesh"`` topologies the build
replays the pre-refactor ``build_vnetp``/``build_vnetu`` construction
order *exactly* — host/VM creation order, link line order, route line
order, ARP neighbor order — so the golden-trace suites hold through the
harness facades (which are now one-liners over this module).  One
routine builds every overlay backend — VNET/P, VNET/U and the Kitten
embedding differ only in each host's forwarding node and bridge — and
configures it the same way: one
:class:`~repro.vnet.control.VnetControl` per host applies the host's
compiled commands, links first.  Route load order cannot change a
VNET/U result: its routes are exact-destination, and the daemon
charges no lookup cost.

Address plan (a strict superset of the legacy one): host ``i`` gets
``10.x.y.z`` with ``x.y.z = i+1`` in base-256 (identical to the old
``10.0.0.<i+1>`` for the first 254 hosts); global VM ``j`` gets
``172.16+x.y.z`` with ``x.y.z = j+1`` likewise.  This is what lets the
same scheme span 1024-host fabrics without renumbering small testbeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional

from ..config import (
    BROADCOM_1G,
    KITTEN_NOISE,
    MELLANOX_IPOIB,
    NETEFFECT_10G,
    HostParams,
    NICParams,
    VnetTuning,
    default_host,
)
from ..host.kitten import KittenBridgeVM
from ..host.machine import Host
from ..hw.link import Link
from ..hw.switch import Switch, SwitchParams
from ..palacios.vmm import PalaciosVMM, VirtualMachine
from ..proto.stack import Stack
from ..sim import Simulator
from ..vnet.bridge import VnetBridge
from ..vnet.control import VnetControl
from ..vnet.core import VnetCore
from ..vnet.encap import ENCAP_OVERHEAD
from ..vnet.lang import AddLink, AddRoute, Command, render_config
from ..vnet.node import VnetNode
from ..vnet.overlay import (
    DEFAULT_VNET_PORT,
    DestType,
    InterfaceSpec,
    LinkProto,
    LinkSpec,
    RouteEntry,
)
from ..vnet.vnetu import VnetUDaemon
from .generators import guest_mac
from .model import Topology

__all__ = [
    "Endpoint",
    "Testbed",
    "CompiledHost",
    "CompiledTopology",
    "TopologyCompiler",
    "guest_mtu_for",
    "host_ip",
    "vm_ip",
    "peer_guests",
]


#: ``Testbed.config`` of each overlay backend.
_CONFIG_NAMES = {"vnetp": "vnet/p", "vnetu": "vnet/u", "kitten": "vnet/p-kitten"}


def host_ip(index: int) -> str:
    """Physical IP for host ``index``: ``10.0.0.<i+1>`` generalised to
    base-256 so 1000+-host fabrics stay in one /8."""
    n = index + 1
    return f"10.{(n >> 16) & 0xFF}.{(n >> 8) & 0xFF}.{n & 0xFF}"


def vm_ip(vm_index: int) -> str:
    """Guest IP for global VM ``vm_index``: ``172.16.0.<j+1>``
    generalised the same way inside ``172.16.0.0/12``."""
    n = vm_index + 1
    return f"172.{16 + ((n >> 16) & 0xFF)}.{(n >> 8) & 0xFF}.{n & 0xFF}"


def guest_mtu_for(nic_params: NICParams, tuning: VnetTuning) -> int:
    """Largest guest MTU whose encapsulation avoids fragmentation."""
    return min(tuning.vnet_mtu, nic_params.max_mtu - ENCAP_OVERHEAD)


@dataclass
class Endpoint:
    """What a benchmark binds to: one communicating stack."""

    stack: Stack
    ip: str
    host: Host
    vm: Optional[VirtualMachine] = None

    @property
    def is_virtual(self) -> bool:
        """True for guest (VM) endpoints, False for native host stacks."""
        return self.vm is not None


@dataclass
class Testbed:
    """A constructed configuration: simulator, hosts, endpoints."""

    sim: Simulator
    config: str
    hosts: list[Host]
    endpoints: list[Endpoint]
    switch: Optional[Switch] = None
    cores: list[VnetCore] = field(default_factory=list)
    daemons: list[VnetUDaemon] = field(default_factory=list)
    controls: list[VnetControl] = field(default_factory=list)
    compiled: Optional["CompiledTopology"] = None


@dataclass
class CompiledHost:
    """One host's compiled overlay state: links, routes, VM slots."""

    name: str
    index: int
    ip: str
    role: str
    #: ``(global_vm_index, mac, guest_ip, interface_name)`` per VM slot.
    vms: tuple[tuple[int, str, str, str], ...]
    links: tuple[LinkSpec, ...]
    routes: tuple[RouteEntry, ...]

    @property
    def commands(self) -> list[Command]:
        """The host's configuration as control-language commands (links
        first, then routes — the order the legacy testbed emitted)."""
        return [AddLink(spec) for spec in self.links] + [
            AddRoute(route) for route in self.routes
        ]

    @property
    def config_text(self) -> str:
        """The host's configuration rendered in the control language."""
        return render_config(self.commands)


class CompiledTopology:
    """The compiler's output: per-host tables plus a builder.

    Holds only plain VNET/P objects (no simulator state), so it can be
    inspected, snapshotted (:meth:`signature`) and rebuilt any number of
    times; :meth:`build` materialises a fresh simulated testbed from it.
    """

    def __init__(self, topo: Topology, compiler: "TopologyCompiler",
                 hosts: list[CompiledHost]):
        self.topo = topo
        self.compiler = compiler
        self.hosts = hosts
        self.by_name = {h.name: h for h in hosts}

    # -- inspection --------------------------------------------------------
    @property
    def n_routers(self) -> int:
        """Forwarding-only hosts."""
        return sum(1 for h in self.hosts if not h.vms)

    @property
    def routes_total(self) -> int:
        """Route entries across every host table."""
        return sum(len(h.routes) for h in self.hosts)

    @property
    def max_table(self) -> int:
        """Largest per-host route table."""
        return max((len(h.routes) for h in self.hosts), default=0)

    @property
    def n_commands(self) -> int:
        """Control-language commands to configure the whole overlay."""
        return sum(len(h.links) + len(h.routes) for h in self.hosts)

    def signature(self) -> str:
        """Stable content hash of the compiled overlay (hosts, IPs, and
        every rendered configuration line) — equal signatures mean
        identical compiled route tables."""
        digest = hashlib.sha256()
        for h in self.hosts:
            digest.update(f"{h.index} {h.name} {h.ip} {h.role}\n".encode())
            digest.update(h.config_text.encode())
            digest.update(b"\n--\n")
        return digest.hexdigest()

    # -- building ----------------------------------------------------------
    def build(self, sim: Optional[Simulator] = None, backend: str = "vnetp",
              configure: bool = True) -> Testbed:
        """Materialise the compiled overlay as a live testbed.

        ``backend`` selects the data path: ``"vnetp"`` (in-VMM core +
        bridge), ``"vnetu"`` (user-level daemon; single-VM mesh
        topologies only), ``"kitten"`` (Sect. 6.3: in-VMM core on a
        low-noise Kitten host, bridge in a service VM; the topology's
        links must be ``direct``) or ``"native"`` (no virtualisation;
        host stacks are the endpoints).  ``configure=False`` builds the
        machines and physical wiring but applies no overlay
        configuration — that is the entry point for
        :mod:`repro.topo.provision`, which applies it *inside* simulated
        time to measure convergence.
        """
        if backend in _CONFIG_NAMES:
            return self.compiler._build_overlay(self, sim, backend, configure)
        if backend == "native":
            return self.compiler._build_native(self, sim)
        raise ValueError(f"unknown backend {backend!r}")


class TopologyCompiler:
    """Compile a declarative :class:`~repro.topo.model.Topology` into
    VNET/P route tables, wiring, and host stacks.

    Construction parameters mirror the legacy testbed builders; ``None``
    leaves the backend default in force (NetEffect 10G NICs for
    VNET/P / native, Broadcom 1G for VNET/U, Mellanox IPoIB for Kitten,
    guest MTU clamped so the encapsulated packet fits the physical MTU).
    """

    def __init__(
        self,
        topo: Topology,
        nic_params: Optional[NICParams] = None,
        host_params: Optional[HostParams] = None,
        tuning: Optional[VnetTuning] = None,
        switch_params: Optional[SwitchParams] = None,
        guest_mtu: Optional[int] = None,
    ):
        self.topo = topo
        self.nic_params = nic_params
        self.host_params = host_params
        self.tuning = tuning
        self.switch_params = switch_params
        self.guest_mtu = guest_mtu
        self._index = {h.name: i for i, h in enumerate(topo.hosts)}

    # -- compilation -------------------------------------------------------
    def compile(self) -> CompiledTopology:
        """Resolve names to indices/IPs/MACs and build per-host tables."""
        topo = self.topo
        index = self._index
        # Global VM numbering: host-major over the host tuple (compute
        # hosts come first by generator convention, so VM j sits on
        # compute host j // vms_per_host exactly as in the legacy code).
        vm_slots: dict[str, list[tuple[int, str, str, str]]] = {}
        next_vm = 0
        for spec in topo.hosts:
            slots = []
            for v in range(spec.vms):
                slots.append((next_vm, guest_mac(next_vm), vm_ip(next_vm), f"if{v}"))
                next_vm += 1
            vm_slots[spec.name] = slots
        # Links, grouped per source host in topology order.
        links: dict[str, list[LinkSpec]] = {h.name: [] for h in topo.hosts}
        link_name: dict[tuple[str, str], str] = {}
        for ol in topo.links:
            if ol.src not in index or ol.dst not in index:
                raise ValueError(f"overlay link {ol.src}->{ol.dst}: unknown host")
            name = f"to{index[ol.dst]}"
            link_name[(ol.src, ol.dst)] = name
            proto = LinkProto(ol.proto)
            links[ol.src].append(
                LinkSpec(name=name, proto=proto, dst_ip=host_ip(index[ol.dst]),
                         dst_port=DEFAULT_VNET_PORT)
            )
        # Routes, grouped per host in topology order.
        routes: dict[str, list[RouteEntry]] = {h.name: [] for h in topo.hosts}
        for plan in topo.routes:
            if plan.via_interface is not None:
                dest_type, dest_name = DestType.INTERFACE, plan.via_interface
            else:
                key = (plan.host, plan.via_link)
                if key not in link_name:
                    raise ValueError(
                        f"route on {plan.host!r}: no overlay link to {plan.via_link!r}"
                    )
                dest_type, dest_name = DestType.LINK, link_name[key]
            routes[plan.host].append(
                RouteEntry(src_mac=plan.src_mac, dst_mac=plan.dst_mac,
                           dest_type=dest_type, dest_name=dest_name)
            )
        compiled = [
            CompiledHost(
                name=spec.name,
                index=i,
                ip=host_ip(i),
                role=spec.role,
                vms=tuple(vm_slots[spec.name]),
                links=tuple(links[spec.name]),
                routes=tuple(routes[spec.name]),
            )
            for i, spec in enumerate(topo.hosts)
        ]
        return CompiledTopology(topo, self, compiled)

    # -- builders (invoked through CompiledTopology.build) -----------------
    def _resolve_nic(self, backend: str) -> NICParams:
        if self.nic_params is not None:
            return self.nic_params
        return {"vnetu": BROADCOM_1G, "kitten": MELLANOX_IPOIB}.get(backend, NETEFFECT_10G)

    def _guest_mtu(self, nic_params: NICParams, tuning: VnetTuning) -> int:
        if self.guest_mtu is not None:
            return self.guest_mtu
        return guest_mtu_for(nic_params, tuning)

    def _make_host(self, sim: Simulator, ch: CompiledHost,
                   nic_params: NICParams, backend: str) -> Host:
        params = self.host_params or default_host(ch.name)
        if backend == "kitten":
            # Kitten is a lightweight kernel with almost no OS noise.
            params = replace(params, noise=KITTEN_NOISE)
        return Host(sim, params, nic_params, ip=ch.ip, name=ch.name)

    def _wire(self, sim: Simulator, hosts: list[Host]) -> Optional[Switch]:
        """Physical substrate: the legacy mesh wiring, or link-scoped
        ARP with a shared switch for cluster-scale fabrics."""
        if self.topo.wiring == "mesh":
            for a in hosts:
                for b in hosts:
                    if a is not b:
                        a.add_neighbor(b)
            if len(hosts) == 2 and self.switch_params is None:
                Link(sim, hosts[0].nic, hosts[1].nic)
                return None
            switch = Switch(
                sim,
                self.switch_params
                or SwitchParams(port_rate_bps=hosts[0].nic.params.rate_bps),
            )
            for h in hosts:
                switch.attach(h.nic)
            return switch
        # Link-scoped wiring: ARP entries only where overlay links exist
        # (O(links), not O(N^2)); one switch carries the substrate.
        index = self._index
        for ol in self.topo.links:
            hosts[index[ol.src]].add_neighbor(hosts[index[ol.dst]])
            hosts[index[ol.dst]].add_neighbor(hosts[index[ol.src]])
        switch = Switch(
            sim,
            self.switch_params
            or SwitchParams(port_rate_bps=hosts[0].nic.params.rate_bps),
        )
        for h in hosts:
            switch.attach(h.nic)
        return switch

    def _build_overlay(self, compiled: CompiledTopology, sim: Optional[Simulator],
                       backend: str, configure: bool) -> Testbed:
        """Every overlay backend: hosts, VMs, one forwarding node per
        host (:class:`VnetCore`, or :class:`VnetUDaemon` for VNET/U),
        its bridge, and one :class:`VnetControl` that configures it."""
        topo = self.topo
        if backend == "vnetu" and (topo.wiring != "mesh" or topo.vms_per_host != 1):
            raise ValueError(
                "vnetu backend supports single-VM mesh topologies only "
                f"(got wiring={topo.wiring!r}, vms_per_host={topo.vms_per_host})"
            )
        sim = sim or Simulator()
        nic_params = self._resolve_nic(backend)
        tuning = self.tuning or VnetTuning()
        mtu = self._guest_mtu(nic_params, tuning)
        hosts: list[Host] = []
        vms: list[VirtualMachine] = []
        vm_hosts: list[Host] = []
        nodes: list[VnetNode] = []
        controls: list[VnetControl] = []
        for ch in compiled.hosts:
            host = self._make_host(sim, ch, nic_params, backend)
            vmm = PalaciosVMM(sim, host) if ch.vms else None
            if backend == "vnetu":
                node: VnetNode = VnetUDaemon(sim, host)
            else:
                node = VnetCore(sim, host, tuning=tuning)
            for idx, mac, guest_ip, if_name in ch.vms:
                vm = vmm.create_vm(f"vm{idx}", guest_ip=guest_ip)
                nic = vm.attach_virtio_nic(mac=mac, mtu=mtu)
                node.register_interface(InterfaceSpec(name=if_name, mac=mac), nic)
                vms.append(vm)
                vm_hosts.append(host)
            if backend == "vnetp":
                VnetBridge(sim, host, node)
            elif backend == "kitten":
                KittenBridgeVM(sim, host, node)
            controls.append(VnetControl(sim, node))
            hosts.append(host)
            nodes.append(node)
        switch = self._wire(sim, hosts)
        if configure:
            for ch, control in zip(compiled.hosts, controls):
                control.apply_commands(ch.commands)
        if topo.wiring == "mesh":
            # Guests believe they share a simple Ethernet LAN: static
            # neighbors, all pairs (the legacy behaviour; cluster-scale
            # topologies peer probe pairs explicitly via peer_guests).
            macs = [slot[1] for ch in compiled.hosts for slot in ch.vms]
            for i, vm in enumerate(vms):
                for j, other in enumerate(vms):
                    if i != j:
                        vm.stack.add_neighbor(other.guest_ip, macs[j])
        endpoints = [
            Endpoint(stack=vm.stack, ip=vm.guest_ip, host=host, vm=vm)
            for vm, host in zip(vms, vm_hosts)
        ]
        testbed = Testbed(
            sim=sim,
            config=_CONFIG_NAMES[backend],
            hosts=hosts,
            endpoints=endpoints,
            switch=switch,
            controls=controls,
            compiled=compiled,
        )
        if backend == "vnetu":
            testbed.daemons = nodes
        else:
            testbed.cores = nodes
        return testbed

    def _build_native(self, compiled: CompiledTopology,
                      sim: Optional[Simulator]) -> Testbed:
        sim = sim or Simulator()
        nic_params = self._resolve_nic("native")
        hosts = [self._make_host(sim, ch, nic_params, "native") for ch in compiled.hosts]
        switch = self._wire(sim, hosts)
        endpoints = [Endpoint(stack=h.stack, ip=h.ip, host=h) for h in hosts]
        return Testbed(sim=sim, config="native", hosts=hosts,
                       endpoints=endpoints, switch=switch, compiled=compiled)


def peer_guests(testbed: Testbed, a: int, b: int) -> None:
    """Make endpoints ``a`` and ``b`` mutual L2 neighbors.

    Cluster-scale builds skip the legacy all-pairs guest ARP mesh
    (O(VMs²)); callers peer exactly the endpoint pairs their probes
    exchange traffic between.
    """
    ea, eb = testbed.endpoints[a], testbed.endpoints[b]
    if ea.vm is None or eb.vm is None:
        raise ValueError("peer_guests needs VM endpoints")
    compiled = testbed.compiled
    if compiled is None:
        raise ValueError("peer_guests needs a compiler-built testbed")
    macs = {slot[2]: slot[1] for ch in compiled.hosts for slot in ch.vms}
    ea.vm.stack.add_neighbor(eb.ip, macs[eb.ip])
    eb.vm.stack.add_neighbor(ea.ip, macs[ea.ip])
