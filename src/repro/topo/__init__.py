"""``repro.topo``: declarative cluster-scale topologies for VNET/P.

The package splits *describing* a network from *building* one:

* :mod:`repro.topo.model` — frozen dataclasses (:class:`Network`,
  :class:`Subnet`, :class:`HostSpec`, :class:`Router`,
  :class:`OverlayLink`, :class:`RoutePlan`, :class:`Topology`) plus the
  exec-engine-friendly :class:`TopoSpec` handle;
* :mod:`repro.topo.generators` — deterministic fat-tree and full-mesh
  generators;
* :mod:`repro.topo.compiler` — :class:`TopologyCompiler`, which turns a
  topology into per-host VNET/P route tables, link specs and
  control-language configuration, and builds live testbeds from them;
* :mod:`repro.topo.provision` — applies compiled configuration inside
  simulated time to measure overlay convergence.

See ``docs/topology.md`` for the model, the generated fabrics, and the
compilation pipeline.
"""

from .compiler import (
    CompiledHost,
    CompiledTopology,
    Endpoint,
    Testbed,
    TopologyCompiler,
    host_ip,
    peer_guests,
    vm_ip,
)
from .generators import fat_tree, full_mesh, generate, guest_mac
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
from .provision import ProvisionReport, probe_rtt_ns, provision

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
    "full_mesh",
    "fat_tree",
    "generate",
    "guest_mac",
    "TopologyCompiler",
    "CompiledTopology",
    "CompiledHost",
    "Endpoint",
    "Testbed",
    "host_ip",
    "vm_ip",
    "peer_guests",
    "ProvisionReport",
    "provision",
    "probe_rtt_ns",
]
