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
harness facades (which are now one-liners over this module).

Address plan (a strict superset of the legacy one): host ``i`` gets
``10.x.y.z`` with ``x.y.z = i+1`` in base-256 (identical to the old
``10.0.0.<i+1>`` for the first 254 hosts); global VM ``j`` gets
``172.16+x.y.z`` with ``x.y.z = j+1`` likewise.  This is what lets the
same scheme span 1024-host fabrics without renumbering small testbeds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from ..config import (
    HostParams,
    NICParams,
    VnetTuning,
    default_host,
)
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
from ..vnet.overlay import (
    DEFAULT_VNET_PORT,
    DestType,
    InterfaceSpec,
    LinkProto,
    LinkSpec,
    RouteEntry,
)
from ..vnet.vnetu import DEFAULT_VNETU_PORT, VnetUDaemon
from .generators import guest_mac
from .model import Topology

__all__ = [
    "Endpoint",
    "Testbed",
    "CompiledHost",
    "CompiledTopology",
    "TopologyCompiler",
    "host_ip",
    "vm_ip",
    "peer_guests",
]


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
        bridge), ``"vnetu"`` (user-level daemon; mesh topologies only)
        or ``"native"`` (no virtualisation; host stacks are the
        endpoints).  ``configure=False`` builds the machines and
        physical wiring but applies no overlay configuration — that is
        the entry point for :mod:`repro.topo.provision`, which applies
        it *inside* simulated time to measure convergence.
        """
        if backend == "vnetp":
            return self.compiler._build_vnetp(self, sim, configure)
        if backend == "vnetu":
            return self.compiler._build_vnetu(self, sim, configure)
        if backend == "native":
            return self.compiler._build_native(self, sim)
        raise ValueError(f"unknown backend {backend!r}")


class TopologyCompiler:
    """Compile a declarative :class:`~repro.topo.model.Topology` into
    VNET/P route tables, wiring, and host stacks.

    Construction parameters mirror the legacy testbed builders; ``None``
    leaves the backend default in force (NetEffect 10G NICs for
    VNET/P / native, Broadcom 1G for VNET/U, guest MTU clamped so the
    encapsulated packet fits the physical MTU).
    """

    def __init__(
        self,
        topo: Topology,
        nic_params: Optional[NICParams] = None,
        host_params: Optional[HostParams] = None,
        tuning: Optional[VnetTuning] = None,
        switch_params: Optional[SwitchParams] = None,
        guest_mtu: Optional[int] = None,
        direct_receive: bool = False,
    ):
        self.topo = topo
        self.nic_params = nic_params
        self.host_params = host_params
        self.tuning = tuning
        self.switch_params = switch_params
        self.guest_mtu = guest_mtu
        self.direct_receive = direct_receive
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
        if backend == "vnetu":
            from ..config import BROADCOM_1G

            return BROADCOM_1G
        from ..config import NETEFFECT_10G

        return NETEFFECT_10G

    def _guest_mtu(self, backend: str, nic_params: NICParams,
                   tuning: VnetTuning) -> int:
        if self.guest_mtu is not None:
            return self.guest_mtu
        if backend == "vnetu":
            return nic_params.max_mtu - ENCAP_OVERHEAD
        return min(tuning.vnet_mtu, nic_params.max_mtu - ENCAP_OVERHEAD)

    def _make_host(self, sim: Simulator, ch: CompiledHost,
                   nic_params: NICParams) -> Host:
        return Host(
            sim,
            self.host_params or default_host(ch.name),
            nic_params,
            ip=ch.ip,
            name=ch.name,
        )

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

    def _build_vnetp(self, compiled: CompiledTopology, sim: Optional[Simulator],
                     configure: bool) -> Testbed:
        sim = sim or Simulator()
        nic_params = self._resolve_nic("vnetp")
        tuning = self.tuning or VnetTuning()
        mtu = self._guest_mtu("vnetp", nic_params, tuning)
        hosts: list[Host] = []
        vms: list[VirtualMachine] = []
        vm_owner: list[int] = []
        cores: list[VnetCore] = []
        controls: list[VnetControl] = []
        for ch in compiled.hosts:
            host = self._make_host(sim, ch, nic_params)
            vmm = PalaciosVMM(sim, host) if ch.vms else None
            core = VnetCore(sim, host, tuning=tuning)
            for idx, mac, guest_ip, if_name in ch.vms:
                vm = vmm.create_vm(f"vm{idx}", guest_ip=guest_ip)
                nic = vm.attach_virtio_nic(mac=mac, mtu=mtu)
                core.register_interface(InterfaceSpec(name=if_name, mac=mac), nic)
                vms.append(vm)
                vm_owner.append(ch.index)
            VnetBridge(sim, host, core, direct_receive=self.direct_receive)
            controls.append(VnetControl(sim, core))
            hosts.append(host)
            cores.append(core)
        switch = self._wire(sim, hosts)
        if configure:
            for ch, control in zip(compiled.hosts, controls):
                control.apply_commands(ch.commands)
        if self.topo.wiring == "mesh":
            # Guests believe they share a simple Ethernet LAN: static
            # neighbors, all pairs (the legacy behaviour; cluster-scale
            # topologies peer probe pairs explicitly via peer_guests).
            macs = [slot[1] for ch in compiled.hosts for slot in ch.vms]
            for i, vm in enumerate(vms):
                for j, other in enumerate(vms):
                    if i != j:
                        vm.stack.add_neighbor(other.guest_ip, macs[j])
        endpoints = [
            Endpoint(stack=vm.stack, ip=vm.guest_ip, host=hosts[vm_owner[i]], vm=vm)
            for i, vm in enumerate(vms)
        ]
        return Testbed(
            sim=sim,
            config="vnet/p",
            hosts=hosts,
            endpoints=endpoints,
            switch=switch,
            cores=cores,
            controls=controls,
            compiled=compiled,
        )

    def _build_vnetu(self, compiled: CompiledTopology, sim: Optional[Simulator],
                     configure: bool) -> Testbed:
        topo = self.topo
        if topo.wiring != "mesh" or topo.vms_per_host != 1:
            raise ValueError(
                "vnetu backend supports single-VM mesh topologies only "
                f"(got wiring={topo.wiring!r}, vms_per_host={topo.vms_per_host})"
            )
        sim = sim or Simulator()
        nic_params = self._resolve_nic("vnetu")
        mtu = self._guest_mtu("vnetu", nic_params, self.tuning or VnetTuning())
        hosts: list[Host] = []
        vms: list[VirtualMachine] = []
        daemons: list[VnetUDaemon] = []
        for ch in compiled.hosts:
            host = self._make_host(sim, ch, nic_params)
            vmm = PalaciosVMM(sim, host)
            idx, mac, guest_ip, _if_name = ch.vms[0]
            vm = vmm.create_vm(f"vm{idx}", guest_ip=guest_ip)
            nic = vm.attach_virtio_nic(mac=mac, mtu=mtu)
            daemon = VnetUDaemon(sim, host)
            daemon.register_interface(InterfaceSpec(name="if0", mac=mac), nic)
            hosts.append(host)
            vms.append(vm)
            daemons.append(daemon)
        switch = self._wire(sim, hosts)
        if configure:
            # Legacy VNET/U order: per remote host, link then route
            # interleaved; the self-interface route last.
            for ch, daemon in zip(compiled.hosts, daemons):
                remote = {spec.name: spec for spec in ch.links}
                for other in compiled.hosts:
                    if other.name == ch.name:
                        continue
                    spec = remote[f"to{other.index}"]
                    daemon.add_link(
                        LinkSpec(name=spec.name, proto=spec.proto,
                                 dst_ip=spec.dst_ip, dst_port=DEFAULT_VNETU_PORT)
                    )
                    daemon.add_route(
                        RouteEntry(src_mac="any", dst_mac=other.vms[0][1],
                                   dest_type=DestType.LINK, dest_name=spec.name)
                    )
                daemon.add_route(
                    RouteEntry(src_mac="any", dst_mac=ch.vms[0][1],
                               dest_type=DestType.INTERFACE, dest_name="if0")
                )
        macs = [ch.vms[0][1] for ch in compiled.hosts]
        for i, vm in enumerate(vms):
            for j, other in enumerate(vms):
                if i != j:
                    vm.stack.add_neighbor(other.guest_ip, macs[j])
        endpoints = [
            Endpoint(stack=vm.stack, ip=vm.guest_ip, host=hosts[i], vm=vm)
            for i, vm in enumerate(vms)
        ]
        return Testbed(
            sim=sim,
            config="vnet/u",
            hosts=hosts,
            endpoints=endpoints,
            switch=switch,
            daemons=daemons,
            compiled=compiled,
        )

    def _build_native(self, compiled: CompiledTopology,
                      sim: Optional[Simulator]) -> Testbed:
        sim = sim or Simulator()
        nic_params = self._resolve_nic("native")
        hosts = [self._make_host(sim, ch, nic_params) for ch in compiled.hosts]
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
