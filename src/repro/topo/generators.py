"""Deterministic topology generators: mesh, fat-tree, torus, multi-rack.

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
  ``core<c>``, ``tor<r>``, ``spine<s>``), carry zero VMs, and forward
  purely by their VNET/P route tables (overlay waypoints);
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
* :func:`torus2d` — dimension-order routing on a 2D torus: every host
  routes every remote VM to one of its four ring neighbors.
* :func:`multirack` — racks behind ToR routers with a configurable
  oversubscription ratio: ``max(1, hosts_per_rack // oversubscription)``
  spine routers; ToRs spread uplink traffic across spines by a stable
  per-destination-MAC hash.
"""

from __future__ import annotations

import math
import zlib

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
    "torus2d",
    "multirack",
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
    """
    if n_hosts < 1:
        raise ValueError(f"full_mesh: n_hosts must be >= 1, got {n_hosts}")
    names = [f"{prefix}{i}" for i in range(n_hosts)]
    hosts = tuple(
        HostSpec(name=name, role="compute", vms=vms_per_host) for name in names
    )
    links = tuple(
        OverlayLink(names[i], names[j], proto)
        for i in range(n_hosts)
        for j in range(n_hosts)
        if i != j
    )
    macs = _vm_macs(n_hosts, vms_per_host)
    routes = []
    for i in range(n_hosts):
        for idx in range(n_hosts * vms_per_host):
            owner, v = divmod(idx, vms_per_host)
            if owner == i:
                routes.append(
                    RoutePlan(names[i], "any", macs[owner][v], via_interface=f"if{v}")
                )
            else:
                routes.append(
                    RoutePlan(names[i], "any", macs[owner][v], via_link=names[owner])
                )
    return Topology(
        name=f"mesh-{n_hosts}x{vms_per_host}",
        network=_NETWORK,
        hosts=hosts,
        links=links,
        routes=tuple(routes),
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
    and ``seed``); cores hold one exact route per VM.
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

    hosts = [
        HostSpec(name=f"h{i}", role="compute", rack=f"pod{i // pod_cap}",
                 vms=vms_per_host)
        for i in range(n_hosts)
    ]
    routers = []
    for p in range(pods):
        for e in range(half):
            hosts.append(HostSpec(edge_name(p, e), role="edge", rack=f"pod{p}", vms=0))
            routers.append(Router(edge_name(p, e), "edge"))
    for p in range(pods):
        for a in range(half):
            hosts.append(HostSpec(agg_name(p, a), role="agg", rack=f"pod{p}", vms=0))
            routers.append(Router(agg_name(p, a), "agg"))
    for c in range(half * half):
        hosts.append(HostSpec(core_name(c), role="core", vms=0))
        routers.append(Router(core_name(c), "core"))

    macs = _vm_macs(n_hosts, vms_per_host)
    # Hosts attached to edge (p, e), in index order.
    attached: dict[str, list[int]] = {}
    for i in range(n_hosts):
        attached.setdefault(edge_of(i), []).append(i)

    def agg_up_core(p: int, a: int) -> str:
        # Aggregation router a talks to core group a; the pod (+seed)
        # spreads different pods across the group's cores.
        return core_name(a * half + (p + seed) % half)

    links: list[OverlayLink] = []
    routes: list[RoutePlan] = []
    # Compute hosts: up-link + default route to the edge.
    for i in range(n_hosts):
        links.append(OverlayLink(f"h{i}", edge_of(i)))
        for v in range(vms_per_host):
            routes.append(RoutePlan(f"h{i}", "any", macs[i][v], via_interface=f"if{v}"))
        routes.append(RoutePlan(f"h{i}", "any", "any", via_link=edge_of(i)))
    # Edge routers: exact down per attached VM, default up to one agg.
    for p in range(pods):
        for e in range(half):
            name = edge_name(p, e)
            up = agg_name(p, e % half)
            for i in attached.get(name, ()):
                links.append(OverlayLink(name, f"h{i}"))
                for v in range(vms_per_host):
                    routes.append(RoutePlan(name, "any", macs[i][v], via_link=f"h{i}"))
            links.append(OverlayLink(name, up))
            routes.append(RoutePlan(name, "any", "any", via_link=up))
    # Aggregation routers: exact down for the whole pod, default up to
    # one core of their core group.
    for p in range(pods):
        for a in range(half):
            name = agg_name(p, a)
            for e in range(half):
                edge = edge_name(p, e)
                down_any = False
                for i in attached.get(edge, ()):
                    if not down_any:
                        links.append(OverlayLink(name, edge))
                        down_any = True
                    for v in range(vms_per_host):
                        routes.append(RoutePlan(name, "any", macs[i][v], via_link=edge))
            up = agg_up_core(p, a)
            links.append(OverlayLink(name, up))
            routes.append(RoutePlan(name, "any", "any", via_link=up))
    # Cores: exact route for every VM, down to the pod's agg in this
    # core's group.
    for c in range(half * half):
        name = core_name(c)
        group = c // half
        for p in range(pods):
            down = agg_name(p, group)
            down_linked = False
            for i in range(p * pod_cap, min((p + 1) * pod_cap, n_hosts)):
                if not down_linked:
                    links.append(OverlayLink(name, down))
                    down_linked = True
                for v in range(vms_per_host):
                    routes.append(RoutePlan(name, "any", macs[i][v], via_link=down))
    return Topology(
        name=f"fat-tree-k{k}-{n_hosts}x{vms_per_host}",
        network=_NETWORK,
        hosts=tuple(hosts),
        routers=tuple(routers),
        links=tuple(links),
        routes=tuple(routes),
        wiring="links",
        vms_per_host=vms_per_host,
    )


def _ring_step(src: int, dst: int, size: int) -> int:
    """Shortest-direction unit step on a ring (ties go positive)."""
    fwd = (dst - src) % size
    return 1 if fwd <= size - fwd else -1


def torus2d(rows: int, cols: int, vms_per_host: int = 1, seed: int = 0) -> Topology:
    """A ``rows × cols`` 2D torus with dimension-order routing.

    Host ``h<i>`` sits at ``(i // cols, i % cols)`` and links to its four
    ring neighbors; a packet first corrects its column (shortest ring
    direction), then its row.  Every host carries one exact route per
    remote VM, so tables are O(N) per host — suited to modest torus
    sizes, not the 1000-host regime (use :func:`fat_tree` there).
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError(f"torus2d: need at least 2 hosts, got {rows}x{cols}")
    n_hosts = rows * cols
    hosts = tuple(
        HostSpec(name=f"h{i}", role="compute", rack=f"row{i // cols}",
                 vms=vms_per_host)
        for i in range(n_hosts)
    )
    macs = _vm_macs(n_hosts, vms_per_host)

    def at(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)

    links: list[OverlayLink] = []
    routes: list[RoutePlan] = []
    for i in range(n_hosts):
        r, c = divmod(i, cols)
        neighbors = []
        for j in (at(r, c + 1), at(r, c - 1), at(r + 1, c), at(r - 1, c)):
            if j != i and j not in neighbors:
                neighbors.append(j)
        for j in neighbors:
            links.append(OverlayLink(f"h{i}", f"h{j}"))
        for v in range(vms_per_host):
            routes.append(RoutePlan(f"h{i}", "any", macs[i][v], via_interface=f"if{v}"))
        for j in range(n_hosts):
            if j == i:
                continue
            rj, cj = divmod(j, cols)
            if cj != c:
                nxt = at(r, c + _ring_step(c, cj, cols))
            else:
                nxt = at(r + _ring_step(r, rj, rows), c)
            for v in range(vms_per_host):
                routes.append(RoutePlan(f"h{i}", "any", macs[j][v], via_link=f"h{nxt}"))
    return Topology(
        name=f"torus-{rows}x{cols}x{vms_per_host}",
        network=_NETWORK,
        hosts=hosts,
        links=tuple(links),
        routes=tuple(routes),
        wiring="links",
        vms_per_host=vms_per_host,
    )


def multirack(racks: int, hosts_per_rack: int, oversubscription: int = 4,
              vms_per_host: int = 1, seed: int = 0) -> Topology:
    """Racks behind ToR routers, spines sized by oversubscription.

    The fabric has ``max(1, hosts_per_rack // oversubscription)`` spine
    routers: an oversubscription of 1 gives a spine per rack host
    (non-blocking), larger values shrink the spine layer and concentrate
    inter-rack traffic.  ToRs route their own rack's VMs directly and
    spread everything else across the spines with a stable
    ``crc32(dst_mac, seed)`` hash, so a flow always takes one spine and
    the choice is reproducible.
    """
    if racks < 1 or hosts_per_rack < 1:
        raise ValueError(
            f"multirack: need racks/hosts_per_rack >= 1, got {racks}/{hosts_per_rack}"
        )
    if oversubscription < 1:
        raise ValueError(f"multirack: oversubscription must be >= 1, got {oversubscription}")
    n_hosts = racks * hosts_per_rack
    spines = max(1, hosts_per_rack // oversubscription)
    hosts = [
        HostSpec(name=f"h{i}", role="compute", rack=f"rack{i // hosts_per_rack}",
                 vms=vms_per_host)
        for i in range(n_hosts)
    ]
    routers = []
    for r in range(racks):
        hosts.append(HostSpec(f"tor{r}", role="tor", rack=f"rack{r}", vms=0))
        routers.append(Router(f"tor{r}", "tor"))
    for s in range(spines):
        hosts.append(HostSpec(f"spine{s}", role="spine", vms=0))
        routers.append(Router(f"spine{s}", "spine"))
    macs = _vm_macs(n_hosts, vms_per_host)

    def spine_for(mac: str) -> str:
        return f"spine{zlib.crc32(f'{mac}/{seed}'.encode()) % spines}"

    links: list[OverlayLink] = []
    routes: list[RoutePlan] = []
    for i in range(n_hosts):
        tor = f"tor{i // hosts_per_rack}"
        links.append(OverlayLink(f"h{i}", tor))
        for v in range(vms_per_host):
            routes.append(RoutePlan(f"h{i}", "any", macs[i][v], via_interface=f"if{v}"))
        routes.append(RoutePlan(f"h{i}", "any", "any", via_link=tor))
    for r in range(racks):
        tor = f"tor{r}"
        for i in range(r * hosts_per_rack, (r + 1) * hosts_per_rack):
            links.append(OverlayLink(tor, f"h{i}"))
        for s in range(spines):
            links.append(OverlayLink(tor, f"spine{s}"))
        for i in range(n_hosts):
            local = i // hosts_per_rack == r
            for v in range(vms_per_host):
                via = f"h{i}" if local else spine_for(macs[i][v])
                routes.append(RoutePlan(tor, "any", macs[i][v], via_link=via))
    for s in range(spines):
        name = f"spine{s}"
        for r in range(racks):
            links.append(OverlayLink(name, f"tor{r}"))
        for i in range(n_hosts):
            tor = f"tor{i // hosts_per_rack}"
            for v in range(vms_per_host):
                routes.append(RoutePlan(name, "any", macs[i][v], via_link=tor))
    return Topology(
        name=f"multirack-{racks}x{hosts_per_rack}o{oversubscription}",
        network=_NETWORK,
        hosts=tuple(hosts),
        routers=tuple(routers),
        links=tuple(links),
        routes=tuple(routes),
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
    if spec.kind == "torus":
        return torus2d(spec.rows, spec.cols, vms_per_host=spec.vms_per_host,
                       seed=spec.seed)
    if spec.kind == "multirack":
        return multirack(spec.racks, spec.hosts_per_rack,
                         oversubscription=spec.oversubscription,
                         vms_per_host=spec.vms_per_host, seed=spec.seed)
    raise ValueError(f"unknown topology kind {spec.kind!r}")
