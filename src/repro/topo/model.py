"""Declarative network model: what a cluster-scale overlay *is*.

The paper's experiments wire a handful of hosts by hand; scaling VNET/P
to HPC-cluster sizes needs the topology itself to be **data**.  This
module defines that data — a neutron-inspired model (networks, subnets,
routers) plus the overlay-specific pieces (hosts carrying VMs, directed
overlay links, route plans held by their hosts) — as frozen dataclasses, so a
:class:`Topology` is hashable, comparable, and serialisable, and the
generators in :mod:`repro.topo.generators` can be tested for
determinism by straight equality.

The split of responsibilities:

* a **generator** (full mesh, fat-tree) produces a
  :class:`Topology`: hosts, routers, directed :class:`OverlayLink`\\ s
  and abstract :class:`RoutePlan`\\ s phrased in terms of host names and
  guest MACs;
* the :class:`~repro.topo.compiler.TopologyCompiler` turns that into
  concrete VNET/P artefacts — :class:`~repro.vnet.overlay.LinkSpec` and
  :class:`~repro.vnet.overlay.RouteEntry` tables per host, control-language
  configuration text, and (on request) a fully built simulated testbed.

:class:`TopoSpec` is the *plain-data* handle experiments pass through
:class:`~repro.exec.Point` kwargs: a small frozen dataclass the exec
engine's fingerprinter understands, so topology-parameterised points
cache and invalidate exactly like scalar-parameterised ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Subnet",
    "Network",
    "HostSpec",
    "Router",
    "OverlayLink",
    "RoutePlan",
    "Topology",
    "TopoSpec",
    "GUEST_MAC_PREFIX",
]

#: Locally-administered OUI byte for guest (VM) MACs; physical NICs use
#: the default prefix from :func:`repro.proto.ethernet.mac_addr`.
GUEST_MAC_PREFIX = 0x5A


@dataclass(frozen=True, slots=True)
class Subnet:
    """One address block, e.g. the physical ``10.0.0.0/8`` substrate."""

    name: str
    cidr: str


@dataclass(frozen=True, slots=True)
class Network:
    """A named network: the subnets an overlay deployment spans."""

    name: str
    subnets: tuple[Subnet, ...] = ()


@dataclass(frozen=True, slots=True)
class HostSpec:
    """One simulated machine: a VM-carrying compute host or a router.

    ``vms`` is the number of guest VMs the host carries (0 for pure
    forwarders); ``role`` names its function (``compute`` or a router
    tier such as ``edge``/``agg``/``core``); ``rack``
    is a free-form placement label; ``routes`` is the host's route table
    as abstract plans, in load order.  IPs and MACs are *not* stored
    here: the compiler derives them from position, which is what keeps
    the legacy testbeds bit-identical.
    """

    name: str
    role: str = "compute"
    rack: str = ""
    vms: int = 1
    routes: tuple[RoutePlan, ...] = ()


@dataclass(frozen=True, slots=True)
class Router:
    """A forwarding-only overlay participant (a :class:`HostSpec` with
    ``vms == 0``), tagged with its tier in the fabric."""

    host: str
    tier: str


@dataclass(frozen=True, slots=True)
class OverlayLink:
    """A directed overlay link: ``src`` can encapsulate frames to ``dst``.

    The compiler names the resulting :class:`~repro.vnet.overlay.LinkSpec`
    ``to<j>`` where ``j`` is ``dst``'s host index — the same convention
    the hand-rolled testbeds used, so existing chaos/failover tooling
    that addresses links by name keeps working on generated topologies.
    """

    src: str
    dst: str
    proto: str = "udp"


@dataclass(frozen=True, slots=True)
class RoutePlan:
    """One abstract routing rule, held by the hosts whose tables carry it.

    ``via_link`` names the *destination host* of an overlay link (the
    compiler resolves it to the concrete ``to<j>`` link name);
    ``via_interface`` names a local virtual NIC.  Exactly one is set.
    ``src_mac``/``dst_mac`` follow VNET/P semantics (``any`` wildcards
    allowed).  A plan names no host: equal rules on different hosts
    (every core of a fat-tree core group has the same table) can be one
    object, and compile to one shared
    :class:`~repro.vnet.overlay.RouteEntry`.
    """

    src_mac: str
    dst_mac: str
    via_link: Optional[str] = None
    via_interface: Optional[str] = None

    def __post_init__(self):
        if (self.via_link is None) == (self.via_interface is None):
            raise ValueError(
                f"route to {self.dst_mac!r}: exactly one of via_link/via_interface"
            )


@dataclass(frozen=True, slots=True)
class Topology:
    """A complete declarative overlay: the compiler's input.

    ``wiring`` selects the physical substrate: ``"mesh"`` replays the
    legacy testbed wiring (all-pairs ARP neighbors, direct cable for two
    hosts, one switch otherwise) and is what the facades use; ``"links"``
    wires ARP neighbors only along overlay links (plus a shared switch),
    which is what makes 1000+-host fabrics affordable.
    """

    name: str
    network: Network
    hosts: tuple[HostSpec, ...]
    routers: tuple[Router, ...] = ()
    links: tuple[OverlayLink, ...] = ()
    wiring: str = "links"
    vms_per_host: int = 1

    def __post_init__(self):
        if self.wiring not in ("mesh", "links"):
            raise ValueError(f"unknown wiring mode {self.wiring!r}")
        names = [h.name for h in self.hosts]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate host names in topology {self.name!r}")

    @property
    def compute_hosts(self) -> tuple[HostSpec, ...]:
        """The VM-carrying hosts, in index order."""
        return tuple(h for h in self.hosts if h.vms > 0)

    @property
    def n_routers(self) -> int:
        """Forwarding-only hosts in the fabric."""
        return len(self.routers)


@dataclass(frozen=True, slots=True)
class TopoSpec:
    """Plain-data topology request: the exec-engine-friendly handle.

    ``kind`` selects the generator (``mesh`` or ``fat-tree``); the
    remaining fields parameterise it (``seed`` is read by the fat-tree
    only and still fingerprints stably for a mesh).  Frozen and
    flat so :mod:`repro.exec.fingerprint` hashes it like any scalar
    kwarg; pass through :func:`repro.topo.generators.generate`.
    """

    kind: str
    n_hosts: int = 2
    vms_per_host: int = 1
    seed: int = 0

    # Keep a stable repr for experiment labels.
    def label(self) -> str:
        """Short human label, e.g. ``fat-tree/64``."""
        return f"{self.kind}/{self.n_hosts}"
