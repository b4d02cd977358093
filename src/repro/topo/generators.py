"""Deterministic topology generators: full mesh and fat-tree.

Each generator is a pure function from parameters to a
:class:`~repro.topo.model.Topology` — no clocks, no global state, and
any randomness folded through the explicit ``seed`` — so calling one
twice with the same arguments yields *equal* topologies, and compiling
them yields identical route tables (a property the test suite asserts
by straight equality).

Conventions shared by every generator:

* compute hosts are named ``h<i>`` and come first in the host tuple, so
  host index, IP (``10.x.y.z`` from the index) and guest-MAC numbering
  all match the legacy hand-rolled testbeds;
* routers follow, named by tier (``edge<p>-<e>``, ``agg<p>-<a>``,
  ``core<c>``), carry zero VMs, and forward purely by their VNET/P
  route tables (overlay waypoints);
* guest MAC for global VM index ``i`` is
  ``mac_addr(i + 1, prefix=GUEST_MAC_PREFIX)`` — VM ``i`` lives on
  compute host ``i // vms_per_host``, exactly the legacy layout.

Route-table shape is where the generators differ:

* :func:`full_mesh` — every host links to every other; one exact route
  per remote VM (the legacy testbed, now as data).  O(N²) state.
* :func:`fat_tree` — a k-ary fat-tree.  Compute hosts and edge/agg
  routers hold *small* tables (exact routes for what is below them plus
  one wildcard default up); only core routers know every VM.  This is
  what makes 1024-host overlays compile and run in bounded memory.
"""

from __future__ import annotations

import functools
import math

from ..proto.ethernet import mac_addr
from .model import (
    GUEST_MAC_PREFIX,
    HostSpec,
    Network,
    OverlayLink,
    RoutePlan,
    Router,
    Subnet,
    TopoSpec,
    Topology,
)

__all__ = [
    "full_mesh",
    "fat_tree",
    "generate",
    "guest_mac",
]

_NETWORK = Network(
    "vnetp-overlay",
    (Subnet("phys", "10.0.0.0/8"), Subnet("guest", "172.16.0.0/12")),
)


def guest_mac(vm_index: int) -> str:
    """Guest MAC for global VM index ``vm_index`` (legacy numbering)."""
    return mac_addr(vm_index + 1, prefix=GUEST_MAC_PREFIX)


def _vm_macs(n_hosts: int, vms_per_host: int) -> list[list[str]]:
    """Per-host guest MAC lists, host-major global numbering."""
    return [
        [guest_mac(i * vms_per_host + v) for v in range(vms_per_host)]
        for i in range(n_hosts)
    ]


def full_mesh(n_hosts: int, vms_per_host: int = 1, proto: str = "udp",
              prefix: str = "h") -> Topology:
    """The legacy testbed as data: all-pairs links, exact per-VM routes.

    Compiling this topology reproduces ``build_vnetp``'s wiring and
    configuration bit-for-bit (link order, route order, naming), which
    is what lets the harness facades keep their golden observables.
    ``proto`` is the overlay link protocol (``"direct"`` for the Kitten
    embedding, which maps guest frames straight onto InfiniBand), and
    hosts are named ``<prefix><i>`` (a host's name seeds its noise).
    Every host but a VM's own reaches it through one shared plan.
    """
    if n_hosts < 1:
        raise ValueError(f"full_mesh: n_hosts must be >= 1, got {n_hosts}")
    names = [f"{prefix}{i}" for i in range(n_hosts)]
    links = tuple(
        OverlayLink(names[i], names[j], proto)
        for i in range(n_hosts)
        for j in range(n_hosts)
        if i != j
    )
    macs = _vm_macs(n_hosts, vms_per_host)
    # Per global VM: the owner's interface route and everyone else's.
    local = [RoutePlan("any", macs[owner][v], via_interface=f"if{v}")
             for owner in range(n_hosts) for v in range(vms_per_host)]
    remote = [RoutePlan("any", macs[owner][v], via_link=names[owner])
              for owner in range(n_hosts) for v in range(vms_per_host)]
    hosts = tuple(
        HostSpec(
            name=names[i], role="compute", vms=vms_per_host,
            routes=tuple(
                local[idx] if idx // vms_per_host == i else remote[idx]
                for idx in range(n_hosts * vms_per_host)
            ),
        )
        for i in range(n_hosts)
    )
    return Topology(
        name=f"mesh-{n_hosts}x{vms_per_host}",
        network=_NETWORK,
        hosts=hosts,
        links=links,
        wiring="mesh",
        vms_per_host=vms_per_host,
    )


def fat_tree(n_hosts: int, vms_per_host: int = 1, seed: int = 0) -> Topology:
    """A k-ary fat-tree overlay sized for ``n_hosts`` compute hosts.

    ``k`` is the smallest even arity whose capacity ``k³/4`` covers
    ``n_hosts``; pods beyond the last used one are trimmed.  Tables stay
    small everywhere except the cores: a compute host holds its own
    interface routes plus one wildcard default to its edge router; an
    edge holds exact routes for the VMs below it plus a default to one
    aggregation router; an aggregation router holds exact routes for its
    pod plus a default to one core (spread across the core group by pod
    and ``seed``); cores hold one exact route per VM.  Equal plans are
    one object: the aggregation routers of a pod share their down
    routes, and the cores of a group share one table.
    """
    if n_hosts < 1:
        raise ValueError(f"fat_tree: n_hosts must be >= 1, got {n_hosts}")
    k = 2
    while k * k * k // 4 < n_hosts:
        k += 2
    half = k // 2
    pod_cap = half * half          # compute hosts per pod
    pods = min(k, math.ceil(n_hosts / pod_cap))

    def edge_name(p: int, e: int) -> str:
        return f"edge{p}-{e}"

    def agg_name(p: int, a: int) -> str:
        return f"agg{p}-{a}"

    def core_name(c: int) -> str:
        return f"core{c}"

    def edge_of(i: int) -> str:
        p, slot = divmod(i, pod_cap)
        return edge_name(p, slot // half)

    macs = _vm_macs(n_hosts, vms_per_host)
    # One object per distinct rule: equal plans on different hosts are
    # shared, not copied (every call below passes the same argument form).
    plan = functools.cache(RoutePlan)
    # Hosts attached to edge (p, e), in index order.
    attached: dict[str, list[int]] = {}
    for i in range(n_hosts):
        attached.setdefault(edge_of(i), []).append(i)

    def agg_up_core(p: int, a: int) -> str:
        # Aggregation router a talks to core group a; the pod (+seed)
        # spreads different pods across the group's cores.
        return core_name(a * half + (p + seed) % half)

    links: list[OverlayLink] = []
    tables: dict[str, tuple[RoutePlan, ...]] = {}
    # Compute hosts: up-link + default route to the edge.
    for i in range(n_hosts):
        links.append(OverlayLink(f"h{i}", edge_of(i)))
        tables[f"h{i}"] = (
            *(plan("any", macs[i][v], via_interface=f"if{v}") for v in range(vms_per_host)),
            plan("any", "any", via_link=edge_of(i)),
        )
    # Edge routers: exact down per attached VM, default up to one agg.
    for p in range(pods):
        for e in range(half):
            name = edge_name(p, e)
            up = agg_name(p, e % half)
            table = []
            for i in attached.get(name, ()):
                links.append(OverlayLink(name, f"h{i}"))
                for v in range(vms_per_host):
                    table.append(plan("any", macs[i][v], via_link=f"h{i}"))
            links.append(OverlayLink(name, up))
            table.append(plan("any", "any", via_link=up))
            tables[name] = tuple(table)
    # Aggregation routers: exact down for the whole pod, default up to
    # one core of their core group.
    for p in range(pods):
        for a in range(half):
            name = agg_name(p, a)
            table = []
            for e in range(half):
                edge = edge_name(p, e)
                down_any = False
                for i in attached.get(edge, ()):
                    if not down_any:
                        links.append(OverlayLink(name, edge))
                        down_any = True
                    for v in range(vms_per_host):
                        table.append(plan("any", macs[i][v], via_link=edge))
            up = agg_up_core(p, a)
            links.append(OverlayLink(name, up))
            table.append(plan("any", "any", via_link=up))
            tables[name] = tuple(table)
    # Cores: exact route for every VM, down to the pod's agg in this
    # core's group; the cores of a group share one table.
    # (Every pod below ``pods`` holds at least one compute host.)
    group_tables: dict[int, tuple[RoutePlan, ...]] = {}
    for c in range(half * half):
        name = core_name(c)
        group = c // half
        links.extend(OverlayLink(name, agg_name(p, group)) for p in range(pods))
        if group not in group_tables:
            group_tables[group] = tuple(
                plan("any", macs[i][v], via_link=agg_name(i // pod_cap, group))
                for i in range(n_hosts)
                for v in range(vms_per_host)
            )
        tables[name] = group_tables[group]

    hosts = [
        HostSpec(name=f"h{i}", role="compute", rack=f"pod{i // pod_cap}",
                 vms=vms_per_host, routes=tables[f"h{i}"])
        for i in range(n_hosts)
    ]
    routers = []
    for p in range(pods):
        for e in range(half):
            name = edge_name(p, e)
            hosts.append(HostSpec(name, role="edge", rack=f"pod{p}", vms=0,
                                  routes=tables[name]))
            routers.append(Router(name, "edge"))
    for p in range(pods):
        for a in range(half):
            name = agg_name(p, a)
            hosts.append(HostSpec(name, role="agg", rack=f"pod{p}", vms=0,
                                  routes=tables[name]))
            routers.append(Router(name, "agg"))
    for c in range(half * half):
        name = core_name(c)
        hosts.append(HostSpec(name, role="core", vms=0, routes=tables[name]))
        routers.append(Router(name, "core"))
    return Topology(
        name=f"fat-tree-k{k}-{n_hosts}x{vms_per_host}",
        network=_NETWORK,
        hosts=tuple(hosts),
        routers=tuple(routers),
        links=tuple(links),
        wiring="links",
        vms_per_host=vms_per_host,
    )


def generate(spec: TopoSpec) -> Topology:
    """Materialise a :class:`~repro.topo.model.TopoSpec` (the plain-data
    form experiments pass through exec-engine point kwargs)."""
    if spec.kind == "mesh":
        return full_mesh(spec.n_hosts, vms_per_host=spec.vms_per_host)
    if spec.kind == "fat-tree":
        return fat_tree(spec.n_hosts, vms_per_host=spec.vms_per_host, seed=spec.seed)
    raise ValueError(f"unknown topology kind {spec.kind!r}")
