"""Testbed builders: the paper's hardware/software configurations in a box.

Each builder returns a :class:`Testbed` with ready-to-use *endpoints*
(the stacks benchmarks talk to): native host stacks for the Native
configurations, guest stacks inside Palacios VMs for the VNET/P and
VNET/U configurations.

These are now thin facades over the declarative topology layer: each
builder describes its network with :func:`repro.topo.full_mesh` and
compiles/builds it through :class:`repro.topo.TopologyCompiler`.  The
construction replays the historical hand-rolled order exactly — host
and VM creation sequence, configuration line order, ARP neighbor order —
so golden observables are bit-identical to the pre-refactor builders.
Cluster-scale topologies (fat-tree, torus, multi-rack) go through
:func:`build_topo` or :mod:`repro.topo` directly.

Conventions: host IPs are ``10.0.0.x``, guest IPs ``172.16.0.x``; guest
MTU is clamped so encapsulated packets fit the physical MTU without
fragmentation (Sect. 5.2, "UDP and TCP with a large MTU").
"""

from __future__ import annotations

from typing import Optional

from ..config import HostParams, NICParams, VnetTuning
from ..hw.switch import SwitchParams
from ..sim import Simulator
from ..topo.compiler import Endpoint, Testbed, TopologyCompiler, guest_mtu_for
from ..topo.generators import full_mesh, generate
from ..topo.model import GUEST_MAC_PREFIX, TopoSpec, Topology

__all__ = [
    "Endpoint",
    "Testbed",
    "build_native",
    "build_vnetp",
    "build_vnetu",
    "build_topo",
    "guest_mtu_for",
    "GUEST_MAC_PREFIX",
]


def build_native(
    n_hosts: int = 2,
    nic_params: Optional[NICParams] = None,
    host_params: Optional[HostParams] = None,
    switch_params: Optional[SwitchParams] = None,
    sim: Optional[Simulator] = None,
) -> Testbed:
    """The Native configuration: BusyBox Linux directly on the hardware."""
    compiler = TopologyCompiler(
        full_mesh(n_hosts),
        nic_params=nic_params,
        host_params=host_params,
        switch_params=switch_params,
    )
    return compiler.compile().build(sim=sim, backend="native")


def build_vnetp(
    n_hosts: int = 2,
    nic_params: Optional[NICParams] = None,
    host_params: Optional[HostParams] = None,
    tuning: Optional[VnetTuning] = None,
    switch_params: Optional[SwitchParams] = None,
    guest_mtu: Optional[int] = None,
    vms_per_host: int = 1,
    sim: Optional[Simulator] = None,
) -> Testbed:
    """The VNET/P configuration (Fig. 1): guest VMs with virtio NICs,
    VNET/P core + bridge per host, full UDP-encapsulated overlay mesh.

    ``vms_per_host > 1`` co-locates VMs; traffic between co-located
    guests takes the core's interface-to-interface fast path without
    touching the physical network."""
    compiler = TopologyCompiler(
        full_mesh(n_hosts, vms_per_host=vms_per_host),
        nic_params=nic_params,
        host_params=host_params,
        tuning=tuning,
        switch_params=switch_params,
        guest_mtu=guest_mtu,
    )
    return compiler.compile().build(sim=sim, backend="vnetp")


def build_vnetu(
    n_hosts: int = 2,
    nic_params: Optional[NICParams] = None,
    host_params: Optional[HostParams] = None,
    switch_params: Optional[SwitchParams] = None,
    guest_mtu: Optional[int] = None,
    sim: Optional[Simulator] = None,
) -> Testbed:
    """The VNET/U baseline: same VMs, user-level daemon data path."""
    compiler = TopologyCompiler(
        full_mesh(n_hosts),
        nic_params=nic_params,
        host_params=host_params,
        switch_params=switch_params,
        guest_mtu=guest_mtu,
    )
    return compiler.compile().build(sim=sim, backend="vnetu")


def build_topo(
    spec: TopoSpec | Topology,
    nic_params: Optional[NICParams] = None,
    host_params: Optional[HostParams] = None,
    tuning: Optional[VnetTuning] = None,
    switch_params: Optional[SwitchParams] = None,
    guest_mtu: Optional[int] = None,
    sim: Optional[Simulator] = None,
    configure: bool = True,
) -> Testbed:
    """Build a VNET/P testbed for any declarative topology.

    ``spec`` is either a plain-data :class:`~repro.topo.model.TopoSpec`
    (dispatched through :func:`repro.topo.generators.generate`) or an
    already-constructed :class:`~repro.topo.model.Topology`.  With
    ``configure=False`` the overlay configuration is left unapplied for
    :func:`repro.topo.provision.provision` to replay in simulated time.
    """
    topo = generate(spec) if isinstance(spec, TopoSpec) else spec
    compiler = TopologyCompiler(
        topo,
        nic_params=nic_params,
        host_params=host_params,
        tuning=tuning,
        switch_params=switch_params,
        guest_mtu=guest_mtu,
    )
    return compiler.compile().build(sim=sim, backend="vnetp", configure=configure)
