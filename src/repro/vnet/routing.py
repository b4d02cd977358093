"""VNET/P routing table with hash-cache fast path (Sect. 4.3).

The table itself is an ordered list scanned linearly (the paper's design);
a hash cache keyed on exact (src, dst) MAC pairs makes the common case a
constant-time lookup.  Lookup *cost* is reported to the caller in
nanoseconds so the dispatcher can charge it on the data path, letting the
routing-cache ablation bench measure the difference.

Cluster-scale tables (``repro.topo`` compiles 1000+-host topologies into
per-host tables with hundreds to thousands of entries) made the *Python*
linear walk the bottleneck even though the *charged* cost already models
it.  Lookups therefore consult a lazily-built index — exact-destination
buckets plus a wildcard-destination list — instead of scanning
``entries``.  Because destination-exact entries always outrank
destination-wildcard ones (see :attr:`RouteEntry.specificity`), checking
the exact bucket first and falling back to the wildcard list preserves
the scan's selection exactly, including first-added-wins tie-breaking
within a bucket.  The **charged** cost is unchanged: a resolving lookup
still pays ``route_table_per_entry_ns`` for every entry in the table
(the paper's design scans the whole list), and the hash cache still
short-circuits warm flows at ``route_cache_hit_ns``.

Installation is O(1) per route too.  ``provision()``
installs a host's table one control command at a time, and a duplicate
check that scanned ``entries`` made that quadratic.  The table keeps a
private membership set next to the ordered list (:class:`RouteEntry` is
frozen, so it hashes on the fields its ``__eq__`` compares); ``add`` and
``load`` test for duplicates against it and reject exactly what the
scan rejected.

``entries`` must be mutated through the table API (``add`` / ``remove``
/ ``remove_matching`` / ``clear`` / ``load``): each keeps the membership
set equal to ``entries``, and the index and the hash cache are
invalidated from :meth:`RoutingTable._changed`, so out-of-band list
surgery would leave duplicate checks and lookups reading stale state.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from ..config import VnetCostParams
from .overlay import ANY_MAC, DestType, RouteEntry

__all__ = ["RoutingTable", "NoRouteError"]


class NoRouteError(LookupError):
    """No routing entry matches a packet's (src, dst) MAC pair."""


class RoutingTable:
    """Ordered route list + (src, dst) lookup cache."""

    def __init__(self, costs: VnetCostParams, cache_enabled: bool = True):
        self.costs = costs
        self.cache_enabled = cache_enabled
        self.entries: list[RouteEntry] = []
        # Same routes as ``entries``, for O(1) duplicate checks.
        self._members: set[RouteEntry] = set()
        self._cache: dict[tuple[str, str], RouteEntry] = {}
        # Lazily rebuilt lookup index: exact-dst buckets + wildcard-dst
        # list, both in insertion order.  None = stale (rebuilt on the
        # next lookup), so bulk loads pay one rebuild, not one per entry.
        self._by_dst: Optional[dict[str, list[RouteEntry]]] = None
        self._wild_dst: list[RouteEntry] = []
        self._listeners: list[Callable[[], None]] = []
        self.lookups = 0
        self.cache_hits = 0

    def __len__(self) -> int:
        return len(self.entries)

    def on_change(self, listener: Callable[[], None]) -> None:
        """Register a callback fired after any table mutation.

        Derived caches (the core's per-flow fast path, see
        :mod:`repro.vnet.flowcache`) subscribe here so a route change
        can never leave a stale compiled decision behind.
        """
        self._listeners.append(listener)

    def _changed(self) -> None:
        self._cache.clear()
        self._by_dst = None
        for listener in self._listeners:
            listener()

    def _rebuild_index(self) -> dict[str, list[RouteEntry]]:
        by_dst: dict[str, list[RouteEntry]] = {}
        wild: list[RouteEntry] = []
        for entry in self.entries:
            if entry.dst_mac == ANY_MAC:
                wild.append(entry)
            else:
                by_dst.setdefault(entry.dst_mac, []).append(entry)
        self._by_dst = by_dst
        self._wild_dst = wild
        return by_dst

    def add(self, entry: RouteEntry) -> None:
        if entry in self._members:
            raise ValueError(f"duplicate route: {entry}")
        self.entries.append(entry)
        self._members.add(entry)
        self._changed()

    def load(self, entries: Iterable[RouteEntry]) -> int:
        """Bulk-append routes with a single change notification.

        The topology compiler (:mod:`repro.topo.compiler`) installs
        hundreds of routes per host on cluster-scale overlays; loading
        them one :meth:`add` at a time would fire the change listeners —
        and flush every derived cache — per entry.  ``load`` extends the
        table in one step and notifies listeners once.  Like :meth:`add`
        it rejects a route already in the table, and also one repeated
        within the batch, with ``ValueError``; it checks the whole batch
        before mutating anything, so a rejected load leaves the table
        untouched.  Returns the number of routes added.
        """
        added = list(entries)
        fresh: set[RouteEntry] = set()
        for entry in added:
            if entry in self._members or entry in fresh:
                raise ValueError(f"duplicate route: {entry}")
            fresh.add(entry)
        self.entries.extend(added)
        self._members |= fresh
        self._changed()
        return len(added)

    def remove(self, entry: RouteEntry) -> None:
        if entry not in self._members:
            raise KeyError(f"no such route: {entry}")
        self.entries.remove(entry)
        self._members.remove(entry)
        self._changed()

    def remove_matching(
        self,
        src_mac: Optional[str] = None,
        dst_mac: Optional[str] = None,
        dest_name: Optional[str] = None,
    ) -> int:
        """Remove routes by field filter; returns count removed."""
        keep = []
        removed = 0
        for e in self.entries:
            if (
                (src_mac is None or e.src_mac == src_mac)
                and (dst_mac is None or e.dst_mac == dst_mac)
                and (dest_name is None or e.dest_name == dest_name)
            ):
                removed += 1
                self._members.remove(e)
            else:
                keep.append(e)
        self.entries = keep
        self._changed()
        return removed

    def clear(self) -> None:
        self.entries.clear()
        self._members.clear()
        self._changed()

    def warm_lookup_cost(self) -> int:
        """Lookup cost (ns) for a flow this table has already resolved.

        With the hash cache on, that is a constant cache hit; with it
        off, every packet pays the full linear scan.  The per-flow fast
        path charges exactly this in its timing-neutral mode so cached
        and uncached runs stay bit-identical in simulated time.
        """
        if self.cache_enabled:
            return self.costs.route_cache_hit_ns
        return self.costs.route_table_per_entry_ns * max(1, len(self.entries))

    def lookup(self, src_mac: str, dst_mac: str) -> tuple[RouteEntry, int]:
        """Find the best route for (src, dst); returns (entry, lookup_cost_ns).

        Raises :class:`NoRouteError` when nothing matches (the cost of the
        failed scan is attributed to the exception path; callers drop the
        packet).
        """
        self.lookups += 1
        key = (src_mac, dst_mac)
        if self.cache_enabled:
            hit = self._cache.get(key)
            if hit is not None:
                self.cache_hits += 1
                return hit, self.costs.route_cache_hit_ns
        best = self._select(src_mac, dst_mac)
        # Charged cost models the paper's full linear walk over the table,
        # exactly as before the index existed (the scan never broke early).
        cost = self.costs.route_table_per_entry_ns * max(1, len(self.entries))
        if best is None:
            raise NoRouteError(f"no route for src={src_mac} dst={dst_mac}")
        if self.cache_enabled:
            self._cache[key] = best
        return best, cost

    def peek(self, src_mac: str, dst_mac: str) -> Optional[RouteEntry]:
        """Side-effect-free best-match query (no counters, no cache fill).

        Control-plane consumers — the fluid path compiler in
        :mod:`repro.vnet.fluidpath` — must not perturb the datapath's
        lookup statistics or warm its cache, or an otherwise identical
        packet-level segment would see different charged costs.
        """
        return self._select(src_mac, dst_mac)

    def _select(self, src_mac: str, dst_mac: str) -> Optional[RouteEntry]:
        """Indexed selection, linear-scan semantics.

        Dst-exact entries (specificity >= 2) always beat dst-wildcard
        ones (<= 1), so the exact bucket is conclusive when it matches;
        within a bucket, insertion order + strict '>' preserves
        first-added-wins ties.
        """
        by_dst = self._by_dst
        if by_dst is None:
            by_dst = self._rebuild_index()
        best: Optional[RouteEntry] = None
        for entry in by_dst.get(dst_mac, ()):
            if entry.src_mac in (ANY_MAC, src_mac) and (
                best is None or entry.specificity > best.specificity
            ):
                best = entry
        if best is None:
            for entry in self._wild_dst:
                if entry.src_mac in (ANY_MAC, src_mac) and (
                    best is None or entry.specificity > best.specificity
                ):
                    best = entry
        return best

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.lookups if self.lookups else 0.0

    def routes_to(self, dest_type: DestType, dest_name: str) -> list[RouteEntry]:
        return [
            e
            for e in self.entries
            if e.dest_type is dest_type and e.dest_name == dest_name
        ]
