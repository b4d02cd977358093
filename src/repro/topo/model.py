"""Declarative network model: what a cluster-scale overlay *is*.

The paper's experiments wire a handful of hosts by hand; scaling VNET/P
to HPC-cluster sizes needs the topology itself to be **data**.  This
module defines that data — a neutron-inspired model (networks, subnets,
routers) plus the overlay-specific pieces (hosts carrying VMs, directed
overlay links, per-host route plans) — as frozen dataclasses, so a
:class:`Topology` is hashable, comparable, and serialisable, and the
generators in :mod:`repro.topo.generators` can be tested for
determinism by straight equality.

The split of responsibilities:

* a **generator** (fat-tree, 2D torus, multi-rack) produces a
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


@dataclass(frozen=True)
class Subnet:
    """One address block, e.g. the physical ``10.0.0.0/8`` substrate."""

    name: str
    cidr: str


@dataclass(frozen=True)
class Network:
    """A named network: the subnets an overlay deployment spans."""

    name: str
    subnets: tuple[Subnet, ...] = ()


@dataclass(frozen=True)
class HostSpec:
    """One simulated machine: a VM-carrying compute host or a router.

    ``vms`` is the number of guest VMs the host carries (0 for pure
    forwarders); ``role`` names its function (``compute`` or a router
    tier such as ``edge``/``agg``/``core``/``tor``/``spine``); ``rack``
    is a free-form placement label.  IPs and MACs are *not* stored here:
    the compiler derives them from position, which is what keeps the
    legacy testbeds bit-identical.
    """

    name: str
    role: str = "compute"
    rack: str = ""
    vms: int = 1


@dataclass(frozen=True)
class Router:
    """A forwarding-only overlay participant (a :class:`HostSpec` with
    ``vms == 0``), tagged with its tier in the fabric."""

    host: str
    tier: str


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RoutePlan:
    """One abstract routing rule on ``host``.

    ``via_link`` names the *destination host* of an overlay link (the
    compiler resolves it to the concrete ``to<j>`` link name);
    ``via_interface`` names a local virtual NIC.  Exactly one is set.
    ``src_mac``/``dst_mac`` follow VNET/P semantics (``any`` wildcards
    allowed).
    """

    host: str
    src_mac: str
    dst_mac: str
    via_link: Optional[str] = None
    via_interface: Optional[str] = None

    def __post_init__(self):
        if (self.via_link is None) == (self.via_interface is None):
            raise ValueError(
                f"route on {self.host!r}: exactly one of via_link/via_interface"
            )


@dataclass(frozen=True)
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
    routes: tuple[RoutePlan, ...] = ()
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


@dataclass(frozen=True)
class TopoSpec:
    """Plain-data topology request: the exec-engine-friendly handle.

    ``kind`` selects the generator (``mesh``, ``fat-tree``, ``torus``,
    ``multirack``); the remaining fields parameterise it (unused fields
    stay at their defaults and still fingerprint stably).  Frozen and
    flat so :mod:`repro.exec.fingerprint` hashes it like any scalar
    kwarg; pass through :func:`repro.topo.generators.generate`.
    """

    kind: str
    n_hosts: int = 2
    vms_per_host: int = 1
    rows: int = 0
    cols: int = 0
    racks: int = 0
    hosts_per_rack: int = 0
    oversubscription: int = 4
    seed: int = 0

    # Keep a stable repr for experiment labels.
    def label(self) -> str:
        """Short human label, e.g. ``fat-tree/64``."""
        if self.kind == "torus":
            return f"torus/{self.rows}x{self.cols}"
        if self.kind == "multirack":
            return f"multirack/{self.racks}x{self.hosts_per_rack}"
        return f"{self.kind}/{self.n_hosts}"
