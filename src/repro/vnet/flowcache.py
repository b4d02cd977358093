"""Per-flow fast-path cache in front of VNET/P routing (ONCache-style).

ONCache (PAPERS.md) closes most of the container-overlay gap to native
with one observation: after a flow's *first* packet has walked the full
lookup/encapsulation stack, every later packet repeats exactly the same
decisions.  This module applies that idea to the :class:`~repro.vnet.core.VnetCore`
datapath.  The first packet of a flow — keyed on the slotted PDU's flow
id, the ``(src MAC, dst MAC)`` pair every descriptor carries — walks the
full :class:`~repro.sim.pipeline.PacketStage` chain (dispatch span,
routing-table lookup, link/interface resolution) and the core *compiles*
the outcome into a :class:`FlowCacheEntry`: the destination virtio NIC
**or** the overlay :class:`~repro.vnet.overlay.LinkSpec`.  Subsequent
packets take the cached chain, which charges one merged timeout and
skips the Python-level lookup; linked packets then go down the bridge's
ordinary transmit path, so per-link chaos filters see every one of them.

A hit charges exactly what the full chain would have charged for a warm
flow: ``dispatch_ns`` plus the routing table's warm lookup cost
(:meth:`~repro.vnet.routing.RoutingTable.warm_lookup_cost`).  The cache
is always on, and the full chain every miss walks is its reference:
simulated observables stay **bit-identical** to a run whose lookups all
miss (``tests/vnet/test_flowcache.py`` enforces this); what the cache
elides is charged-not-performed work — wall-clock only, like the kernel
fast paths in ``repro.sim``.

One invalidation rule: any add/remove/clear on the owning core's
:class:`~repro.vnet.routing.RoutingTable` fires its change listeners and
flushes the whole cache.  An entry is derived from nothing but its
route, so nothing else can make it stale: chaos faults act on ports the
cached packets still cross, failover and failback rewrite routes, and a
liveness verdict alone changes no route.  The flush is timing-free (a
dict clear; no simulated events), so the next packet of an affected flow
simply re-walks the full chain.

Metrics live under ``vnet.flowcache.<host>.*`` (hits, misses, installs,
invalidated entries, entry-count gauge); :meth:`FlowCache.register_hit_rate`
adds a per-window hit-rate series to an :class:`~repro.obs.timeline.Timeline`.
The performance model — and where each charged nanosecond goes — is
documented in ``docs/performance.md``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from ..obs.context import Observability
from ..sim import PacketStage, Simulator
from .overlay import DestType, LinkSpec, RouteEntry

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.timeline import Series, Timeline
    from ..palacios.virtio import VirtioNIC
    from .core import VnetCore

__all__ = ["FlowCache", "FlowCacheEntry"]


class FlowCacheEntry:
    """One compiled flow: its pre-resolved destination.

    Exactly one of ``nic`` (local interface delivery) and ``link``
    (overlay link via the bridge) is set.  ``charge_ns`` is the virtual
    time a cached hit charges inside the dispatch span — precisely what
    the full chain would have charged for this already-resolved flow.
    """

    __slots__ = ("nic", "link", "charge_ns", "hits")

    def __init__(self, nic: Optional["VirtioNIC"], link: Optional[LinkSpec],
                 charge_ns: int):
        self.nic = nic
        self.link = link
        self.charge_ns = charge_ns
        self.hits = 0


class FlowCache(PacketStage):
    """Per-core flow cache: (src, dst) flow id -> compiled fast path.

    Sits in front of the core's routing stage; the core consults it with
    :meth:`lookup` before paying for dispatch, and :meth:`install`\\ s the
    compiled entry after a successful full walk.  Install failures (an
    unresolvable destination) are silent: the flow simply keeps taking
    the full chain.
    """

    def __init__(self, sim: Simulator, core: "VnetCore"):
        self._init_stage(sim, f"{core.host.name}.vnet.flowcache")
        self.core = core
        self.entries: dict[tuple[str, str], FlowCacheEntry] = {}
        metrics = Observability.of(sim).metrics
        prefix = f"vnet.flowcache.{core.host.name}"
        self._hits = metrics.counter(f"{prefix}.hits")
        self._misses = metrics.counter(f"{prefix}.misses")
        self._installs = metrics.counter(f"{prefix}.installs")
        self._invalidated = metrics.counter(f"{prefix}.invalidated_entries")
        self._entries_gauge = metrics.gauge(f"{prefix}.entries")
        # The one invalidation rule: any route-table mutation flushes.
        core.routing.on_change(self._on_route_change)

    # -- statistics (registry-backed, read-only views) --------------------
    @property
    def hits(self) -> int:
        """Cached-chain packets served."""
        return self._hits.value

    @property
    def misses(self) -> int:
        """Packets that walked the full chain (cold or just-invalidated)."""
        return self._misses.value

    @property
    def installs(self) -> int:
        """Entries compiled from full-chain walks."""
        return self._installs.value

    @property
    def invalidated_entries(self) -> int:
        """Entries dropped by route-change flushes."""
        return self._invalidated.value

    @property
    def hit_rate(self) -> float:
        """Lifetime hit fraction over all cache consultations."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self.entries)

    # -- the datapath face -------------------------------------------------
    def lookup(self, src: str, dst: str) -> Optional[FlowCacheEntry]:
        """The per-packet consultation: a compiled entry, or ``None``."""
        entry = self.entries.get((src, dst))
        if entry is None:
            self._misses.inc()
            return None
        self._hits.inc()
        entry.hits += 1
        return entry

    def install(self, src: str, dst: str, route: RouteEntry) -> Optional[FlowCacheEntry]:
        """Compile ``route`` into a fast-path entry for flow ``(src, dst)``.

        Called by the core right after a successful full-chain lookup.
        Returns the entry, or ``None`` when the destination cannot be
        compiled (unknown name, no bridge attached) — never raises on
        the datapath.
        """
        core = self.core
        nic = link = None
        if route.dest_type is DestType.INTERFACE:
            nic = core.interfaces.get(route.dest_name)
            if nic is None:
                return None
        else:
            link = core.links.get(route.dest_name)
            if link is None or core.bridge is None:
                return None
        # What the full chain charges once the flow is resolved
        # (dispatch + warm routing lookup).
        charge = core.costs.dispatch_ns + core.routing.warm_lookup_cost()
        entry = FlowCacheEntry(nic, link, charge)
        self.entries[(src, dst)] = entry
        self._installs.inc()
        self._entries_gauge.set(len(self.entries))
        return entry

    def _on_route_change(self) -> None:
        dropped = len(self.entries)
        if dropped:
            self.entries.clear()
            self._invalidated.inc(dropped)
            self._entries_gauge.set(0)

    # -- observability -----------------------------------------------------
    def register_hit_rate(self, timeline: "Timeline",
                          series: Optional[str] = None) -> "Series":
        """Add a per-window hit-rate series (NaN for idle windows)."""
        hits, misses = self._hits, self._misses
        state = [0, 0]

        def sample(now_ns: int) -> float:
            dh = hits.value - state[0]
            dm = misses.value - state[1]
            state[0] = hits.value
            state[1] = misses.value
            total = dh + dm
            return dh / total if total else math.nan

        name = series or f"vnet.flowcache.{self.core.host.name}.hit_rate"
        return timeline.record(name, sample, unit="ratio")

    def stats(self) -> dict:
        """Operational counters, control-interface style."""
        return {
            "entries": len(self.entries),
            "hits": self.hits,
            "misses": self.misses,
            "installs": self.installs,
            "invalidated_entries": self.invalidated_entries,
            "hit_rate": self.hit_rate,
        }
